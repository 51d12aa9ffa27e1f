package feature

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// variedTrace generates records that exercise every feature group the
// encoder derives state from: identities, security config, protocol
// states, and timestamps (inter-arrival / burst features).
func variedTrace(n int, seed int64) mobiflow.Trace {
	rng := rand.New(rand.NewSource(seed))
	msgs := []string{"RRCSetupRequest", "RRCSetup", "RegistrationRequest", "never-seen"}
	ts := time.Unix(1700000000, 0)
	tr := make(mobiflow.Trace, n)
	for i := range tr {
		ts = ts.Add(time.Duration(rng.Intn(20)) * time.Millisecond)
		r := mobiflow.Record{
			Msg:       msgs[rng.Intn(len(msgs))],
			UEID:      uint64(rng.Intn(6)),
			RNTI:      cell.RNTI(rng.Intn(8)),
			TMSI:      cell.TMSI(rng.Intn(5)),
			Dir:       cell.Uplink,
			Timestamp: ts,
			RRCState:  rrc.State(rng.Intn(6)),
			NASState:  nas.State(rng.Intn(6)),
			CipherAlg: cell.CipherAlg(rng.Intn(4)),
			IntegAlg:  cell.IntegAlg(rng.Intn(4)),
		}
		r.SecurityOn = rng.Intn(2) == 0
		r.OutOfOrder = rng.Intn(8) == 0
		if rng.Intn(4) == 0 {
			r.SUPI = "imsi-00101999"
		}
		tr[i] = r
	}
	return tr
}

// TestEncodeF32MatchesEncode is the parity contract of the zero-copy
// path: EncodeF32 must produce exactly float32(Encode(r)[i]) for every
// feature, with identical identity-history evolution.
func TestEncodeF32MatchesEncode(t *testing.T) {
	tr := variedTrace(300, 7)
	v := BuildVocabulary(tr)
	e64, e32 := NewEncoder(v), NewEncoder(v)
	dst := make([]float32, e32.Dim())
	for i, r := range tr {
		want := e64.Encode(r)
		e32.EncodeF32(dst, r)
		for j := range want {
			if dst[j] != float32(want[j]) {
				t.Fatalf("record %d feature %d: EncodeF32 = %g, Encode = %g", i, j, dst[j], want[j])
			}
		}
	}
}

// TestRowBufferWindows checks Push/Trim bookkeeping, the rows and each
// row's column list, against independently encoded rows.
func TestRowBufferWindows(t *testing.T) {
	tr := variedTrace(40, 9)
	v := BuildVocabulary(tr)
	ref := Vectorize(tr, v)
	enc := NewEncoder(v)
	b := NewRowBuffer(Dim(v))

	for i, r := range tr {
		b.Push(enc, r)
		if b.Len() != i+1 {
			t.Fatalf("Len after %d pushes = %d", i+1, b.Len())
		}
	}
	for i, want := range ref {
		row := b.Row(i)
		for j := range want {
			if row[j] != float32(want[j]) {
				t.Fatalf("row %d feature %d = %g, want %g", i, j, row[j], want[j])
			}
		}
	}

	checkCols(t, b, ref)

	// A window is a view of its consecutive rows.
	const start, n = 5, 4
	rows, _, _ := b.Sparse()
	win := rows[start*b.Dim() : (start+n)*b.Dim()]
	for i := 0; i < n; i++ {
		for j := 0; j < b.Dim(); j++ {
			if win[i*b.Dim()+j] != float32(ref[start+i][j]) {
				t.Fatalf("window row %d feature %d mismatch", i, j)
			}
		}
	}

	// Trim slides surviving rows down.
	b.Trim(10)
	if b.Len() != len(tr)-10 {
		t.Fatalf("Len after Trim(10) = %d, want %d", b.Len(), len(tr)-10)
	}
	row := b.Row(0)
	for j := range ref[10] {
		if row[j] != float32(ref[10][j]) {
			t.Fatalf("post-trim row 0 feature %d = %g, want %g", j, row[j], ref[10][j])
		}
	}
	checkCols(t, b, ref[10:])
	b.Trim(b.Len() + 5)
	if b.Len() != 0 {
		t.Fatalf("Len after over-trim = %d, want 0", b.Len())
	}
	b.Push(enc, tr[0]) // lists restart from an empty buffer
	row = b.Row(0)
	again := make([]float64, len(row))
	for j, f := range row {
		again[j] = float64(f)
	}
	checkCols(t, b, [][]float64{again})
}

// checkCols requires every row's column list to be exactly the columns
// of want's row whose float32 is not zero, ascending, and Sparse to
// describe the same lists.
func checkCols(t *testing.T, b *RowBuffer, want [][]float64) {
	t.Helper()
	_, cols, off := b.Sparse()
	if len(off) != b.Len()+1 || off[0] != 0 || int(off[b.Len()]) != len(cols) {
		t.Fatalf("%d rows described by %d offsets from %d over %d columns", b.Len(), len(off), off[0], len(cols))
	}
	for i, row := range want {
		var listed []int32
		for j, v := range row {
			if float32(v) != 0 {
				listed = append(listed, int32(j))
			}
		}
		if got := b.Cols(i); !slices.Equal(got, listed) || !slices.Equal(cols[off[i]:off[i+1]], listed) {
			t.Fatalf("row %d lists columns %v, want %v", i, got, listed)
		}
	}
}

// TestFeatureToTensorZeroAllocs proves the streaming feature→tensor path
// allocates nothing in steady state: a warm RowBuffer cycles Push/Trim
// without touching the heap, its rows and column lists read in place.
func TestFeatureToTensorZeroAllocs(t *testing.T) {
	tr := variedTrace(64, 11)
	v := BuildVocabulary(tr)
	enc := NewEncoder(v)
	b := NewRowBuffer(Dim(v))
	// Warm up: identity maps and the buffer's backing array reach their
	// steady-state footprint.
	for _, r := range tr {
		b.Push(enc, r)
	}
	b.Trim(b.Len())
	for _, r := range tr[:16] {
		b.Push(enc, r)
	}

	i, listed := 0, 0
	if a := testing.AllocsPerRun(200, func() {
		b.Push(enc, tr[i%len(tr)])
		listed += len(b.Cols(b.Len() - 1))
		b.Trim(1)
		i++
	}); a != 0 {
		t.Errorf("feature→tensor cycle allocates %v/op, want 0", a)
	}
}

// TestRowBufferCopyFrom checks that a copy of a buffer's tail holds the
// same rows and column lists as the source from that row on, that copying
// into a used buffer replaces what it held, and that a warm copy allocates
// nothing.
func TestRowBufferCopyFrom(t *testing.T) {
	tr := variedTrace(40, 13)
	v := BuildVocabulary(tr)
	ref := Vectorize(tr, v)
	enc := NewEncoder(v)
	src := NewRowBuffer(Dim(v))
	for _, r := range tr {
		src.Push(enc, r)
	}
	dst := NewRowBuffer(Dim(v))
	for _, from := range []int{0, 7, 39, 40, 3} {
		dst.CopyFrom(src, from)
		if dst.Len() != len(tr)-from {
			t.Fatalf("copy from row %d holds %d rows, want %d", from, dst.Len(), len(tr)-from)
		}
		for i := 0; i < dst.Len(); i++ {
			if !slices.Equal(dst.Row(i), src.Row(from+i)) {
				t.Fatalf("copy from row %d: row %d differs from the source's row %d", from, i, from+i)
			}
		}
		checkCols(t, dst, ref[from:])
	}
	if a := testing.AllocsPerRun(100, func() { dst.CopyFrom(src, 5) }); a != 0 {
		t.Errorf("a warm CopyFrom allocates %v/op, want 0", a)
	}
}
