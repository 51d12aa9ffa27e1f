package mobiwatch

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nn"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ric"
)

// smallBundle returns an untrained bundle small enough to fuzz: two
// messages, window 2, one-unit hidden layers and all-zero weights, so
// its Save output is about a kilobyte of mostly structure.
func smallBundle() *Models {
	vocab := feature.NewVocabulary([]string{"RRCSetup", "RRCSetupRequest"})
	dim := feature.Dim(vocab)
	m := &Models{
		Vocab:         vocab,
		Window:        2,
		AE:            nn.NewAutoencoder(nn.AEConfig{InputDim: 2 * dim, Hidden: []int{1}, Seed: 1}),
		AEThreshold:   0.5,
		LSTM:          nn.NewLSTM(2, dim, 1, dim),
		LSTMThreshold: 0.5,
		engines:       &engineCache{},
	}
	for _, ps := range [][]*nn.Param{m.AE.Params(), m.LSTM.Params()} {
		for _, p := range ps {
			clear(p.W)
		}
	}
	return m
}

// scoresOneWindow scores a trace just long enough for one LSTM window
// (and two autoencoder windows) through both engines.
func scoresOneWindow(t *testing.T, m *Models) {
	t.Helper()
	tr := make(mobiflow.Trace, m.Window+1)
	for i := range tr {
		tr[i] = mobiflow.Record{Seq: uint64(i), UEID: 1, Msg: "RRCSetupRequest"}
	}
	if n := len(m.ScoreTraceAEBatched(tr, nn.Float32)); n != 2 {
		t.Errorf("autoencoder scored %d windows of %d records, want 2", n, len(tr))
	}
	if n := len(m.ScoreTraceLSTMBatched(tr, nn.Float32)); n != 1 {
		t.Errorf("lstm scored %d windows of %d records, want 1", n, len(tr))
	}
}

// TestLoadRejectsMismatchedShapes feeds Load bundles whose models do not
// fit the vocabulary and window they ship with. Each one used to load: a
// narrower LSTM then panicked in ScoreBatch, killing the worker, and a
// narrower autoencoder scored misaligned rows without a word.
func TestLoadRejectsMismatchedShapes(t *testing.T) {
	dim := feature.Dim(smallBundle().Vocab)
	snapshot := func(m interface{ Snapshot() ([]byte, error) }) json.RawMessage {
		data, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, c := range []struct {
		name    string
		corrupt func(b map[string]json.RawMessage)
	}{
		{"a message dropped", func(b map[string]json.RawMessage) { b["messages"] = json.RawMessage(`["RRCSetup"]`) }},
		{"window one longer", func(b map[string]json.RawMessage) { b["window"] = json.RawMessage(`3`) }},
		{"autoencoder input_dim one short", func(b map[string]json.RawMessage) {
			var ae map[string]json.RawMessage
			if err := json.Unmarshal(b["autoencoder"], &ae); err != nil {
				t.Fatal(err)
			}
			ae["input_dim"], _ = json.Marshal(2*dim - 1)
			b["autoencoder"], _ = json.Marshal(ae)
		}},
		{"autoencoder one record wide", func(b map[string]json.RawMessage) {
			b["autoencoder"] = snapshot(nn.NewAutoencoder(nn.AEConfig{InputDim: dim, Hidden: []int{1}, Seed: 1}))
		}},
		{"lstm one feature narrower", func(b map[string]json.RawMessage) { b["lstm"] = snapshot(nn.NewLSTM(2, dim-1, 1, dim-1)) }},
		{"lstm output one feature short", func(b map[string]json.RawMessage) { b["lstm"] = snapshot(nn.NewLSTM(2, dim, 1, dim-1)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			data, err := smallBundle().Save()
			if err != nil {
				t.Fatal(err)
			}
			var b map[string]json.RawMessage
			if err := json.Unmarshal(data, &b); err != nil {
				t.Fatal(err)
			}
			c.corrupt(b)
			if data, err = json.Marshal(b); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(data); err == nil {
				t.Error("loaded")
			}
		})
	}
	// The bundle they were cut from loads and scores.
	data, err := smallBundle().Save()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	scoresOneWindow(t, m)
}

// FuzzLoad holds Load — the path smo.Deploy takes registry bytes through
// to a running xApp — to one property on arbitrary bytes: it returns an
// error, or a bundle whose engines score a window without panicking. The
// seed is a small untrained bundle's Save output.
func FuzzLoad(f *testing.F) {
	data, err := smallBundle().Save()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(data)
		if err != nil {
			return
		}
		scoresOneWindow(t, m)
	})
}

// FuzzDecodeSnapshot holds DecodeSnapshot — how a migrated-in UE's
// detection state arrives off the fed bus — to four properties on
// arbitrary bytes: it does not panic; a snapshot it returns re-encodes
// and decodes back equal; it sizes nothing larger than the input holds,
// whatever count or length the bytes declare; and a worker that restores
// the snapshot, replaying its records through the encoder and the row
// buffer, then scores an indication for the UE without panicking. The
// seeds are EncodeSnapshot of a benign fixture UE's records.
func FuzzDecodeSnapshot(f *testing.F) {
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{Sessions: 4, Fleet: 2, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	ue := benign[0].UEID
	records := benign.FilterUE(ue)
	f.Add(EncodeSnapshot(&UESnapshot{UE: ue, Node: "gnb-1", LastSN: 7, Records: records}))
	f.Add(EncodeSnapshot(&UESnapshot{UE: ue, Node: "gnb-2", LastSN: 1, Records: records[:1]}))
	f.Add(EncodeSnapshot(&UESnapshot{}))

	ledger := prov.New(prov.Options{})
	ledger.Close() // evidence is counted and dropped, not kept across inputs
	old := prov.SetActive(ledger)
	f.Cleanup(func() { prov.SetActive(old) })
	models := smallBundle()

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if cap(snap.Records) > len(data) || len(snap.Node) > len(data) {
			t.Fatalf("%d bytes decoded into %d records and a %d-byte node", len(data), cap(snap.Records), len(snap.Node))
		}
		back, err := DecodeSnapshot(EncodeSnapshot(snap))
		if err != nil || !reflect.DeepEqual(back, snap) {
			t.Fatalf("decode∘encode: %+v, %v; want %+v", back, err, snap)
		}

		rt := &Runtime{models: models, opts: RunOptions{NodeID: "gnb-fuzz"}}
		rt.triage = newAlertQueue(&rt.stats, obsQueueDepth.With("gnb-fuzz"), time.Now)
		w := newWorker(rt)
		w.restore(snap)
		next := mobiflow.Trace{benign[1], benign[2]}
		for i := range next {
			next[i].UEID, next[i].Seq = snap.UE, snap.Records.LastSeq()+uint64(i)+1
		}
		hdr := asn1lite.Marshal(&e2sm.IndicationHeader{NodeID: "gnb-fuzz", UEID: snap.UE})
		w.ingest(ric.Indication{NodeID: "gnb-fuzz", SN: 1, Header: hdr}, next)
		w.flush("gnb-fuzz")
		if n := len(w.pending[0].starts) + len(w.pending[1].starts); n != 0 {
			t.Fatalf("%d windows still pending after the flush", n)
		}
	})
}

// FuzzWindowKey holds the score memo's key to its contract on arbitrary
// rows: two windows get one key if and only if their rows are equal bit
// for bit. data sets the values of one window (seven bytes a value: its
// row, its column, its bits); the second window is the first after one
// edit — none, a value set to bits, a row's last value moved to the same
// column of the next row (so the rows' column-value lists, run together,
// read the same), or two rows swapped. Rows are 200 wide, so columns past
// 127 take two bytes, and hold their values as RowBuffer does: every
// column whose bits are not zero is listed, −0 and NaNs included.
func FuzzWindowKey(f *testing.F) {
	const dim, span = 200, 5
	value := func(row int, col uint16, bits uint32) []byte {
		return []byte{byte(row), byte(col), byte(col >> 8), byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)}
	}
	one, negZero, sub := math.Float32bits(1), uint32(1)<<31, uint32(1)
	base := slices.Concat(value(0, 3, one), value(0, 130, 0x7fc00001), value(1, 127, negZero),
		value(1, 128, sub), value(2, 199, one), value(4, 0, 0x3dcccccd))
	f.Add(base, uint8(0), uint16(0), uint32(0))
	f.Add(base, uint8(1), uint16(130*span), uint32(0x7fc00002)) // another NaN payload
	f.Add(base, uint8(1), uint16(130*span), uint32(0x7fc00001)) // the same NaN
	f.Add(base, uint8(1), uint16(127*span+1), uint32(0))        // −0 becomes +0
	f.Add(base, uint8(1), uint16(128*span+1), uint32(2))        // another subnormal
	f.Add(base, uint8(2), uint16(0), uint32(0))
	f.Add(base, uint8(2), uint16(1), uint32(0))
	f.Add(base, uint8(3), uint16(2), uint32(0))
	f.Add([]byte{}, uint8(3), uint16(0), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, edit uint8, at uint16, bits uint32) {
		a := make([][]float32, span)
		for r := range a {
			a[r] = make([]float32, dim)
		}
		for ; len(data) >= 7; data = data[7:] {
			col := int(binary.LittleEndian.Uint16(data[1:])) % dim
			a[int(data[0])%span][col] = math.Float32frombits(binary.LittleEndian.Uint32(data[3:]))
		}
		b := make([][]float32, span)
		for r := range b {
			b[r] = slices.Clone(a[r])
		}
		r := int(at) % span
		switch edit % 4 {
		case 1:
			b[r][int(at)/span%dim] = math.Float32frombits(bits)
		case 2:
			// Row r's last value moves to row r+1 when it stays ahead of
			// every value there: the lists run together are unchanged.
			if r == span-1 {
				break
			}
			nonZero := func(v float32) bool { return math.Float32bits(v) != 0 }
			c := dim - 1
			for c >= 0 && !nonZero(b[r][c]) {
				c--
			}
			if c < 0 || slices.ContainsFunc(b[r+1][:c+1], nonZero) {
				break
			}
			b[r][c], b[r+1][c] = 0, b[r][c]
		case 3:
			s := (r + 1) % span
			b[r], b[s] = b[s], b[r]
		}

		var in nn.Rows
		in.Dim, in.Off = dim, []int32{0}
		equal := true
		for i, row := range slices.Concat(a, b) {
			in.X = append(in.X, row...)
			for c, v := range row {
				if math.Float32bits(v) != 0 {
					in.Cols = append(in.Cols, int32(c))
				}
				if i < span && math.Float32bits(v) != math.Float32bits(b[i][c]) {
					equal = false
				}
			}
			in.Off = append(in.Off, int32(len(in.Cols)))
		}
		m := newScoreMemo(ModelAE)
		m.intern(in, 0, 2*span)
		if same := m.key(0, span) == m.key(span, span); same != equal {
			t.Fatalf("edit %d: windows equal bit for bit %v, keys equal %v", edit%4, equal, same)
		}
	})
}
