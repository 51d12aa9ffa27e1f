package feature

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/mobiflow"
)

func rec(msg string, ue uint64, rnti cell.RNTI, tmsi cell.TMSI) mobiflow.Record {
	return mobiflow.Record{Msg: msg, UEID: ue, RNTI: rnti, TMSI: tmsi, Dir: cell.Uplink}
}

func TestVocabularyBuildAndLookup(t *testing.T) {
	tr := mobiflow.Trace{rec("b", 1, 1, 0), rec("a", 1, 1, 0), rec("b", 1, 1, 0)}
	v := BuildVocabulary(tr)
	if !reflect.DeepEqual(v.Messages, []string{"a", "b"}) {
		t.Fatalf("Messages = %v", v.Messages)
	}
	if v.Index("a") != 0 || v.Index("b") != 1 {
		t.Error("known message indices wrong")
	}
	if v.Index("zzz") != 2 {
		t.Errorf("unknown index = %d, want unknown bucket 2", v.Index("zzz"))
	}
	if v.Size() != 3 {
		t.Errorf("Size = %d", v.Size())
	}
}

func TestEncodeDimensionsAndOneHot(t *testing.T) {
	v := NewVocabulary([]string{"RRCSetupRequest", "RRCSetup"})
	e := NewEncoder(v)
	r := rec("RRCSetupRequest", 1, 0x10, 0)
	vec := e.Encode(r)
	if len(vec) != e.Dim() {
		t.Fatalf("len = %d, want %d", len(vec), e.Dim())
	}
	if vec[0] != 1 || vec[1] != 0 || vec[2] != 0 {
		t.Errorf("message one-hot wrong: %v", vec[:3])
	}
	// Exactly one message slot set.
	var count int
	for _, x := range vec[:v.Size()] {
		if x == 1 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("message one-hot count = %d", count)
	}
}

func TestUnknownMessageBucket(t *testing.T) {
	v := NewVocabulary([]string{"known"})
	e := NewEncoder(v)
	vec := e.Encode(rec("never-seen", 1, 1, 0))
	if vec[v.Size()-1] != 1 {
		t.Error("unknown bucket not set for unseen message")
	}
}

func TestRNTIFreshness(t *testing.T) {
	v := NewVocabulary([]string{"m"})
	e := NewEncoder(v)
	derivedBase := e.Dim() - widthDerived

	v1 := e.Encode(rec("m", 1, 0x10, 0))
	if v1[derivedBase] != 1 {
		t.Error("first RNTI not marked fresh")
	}
	v2 := e.Encode(rec("m", 1, 0x10, 0))
	if v2[derivedBase] != 0 {
		t.Error("repeated RNTI marked fresh")
	}
	v3 := e.Encode(rec("m", 2, 0x11, 0))
	if v3[derivedBase] != 1 {
		t.Error("new RNTI not marked fresh")
	}
	// Invalid (zero) RNTI is never fresh.
	v4 := e.Encode(rec("m", 3, cell.InvalidRNTI, 0))
	if v4[derivedBase] != 0 {
		t.Error("invalid RNTI marked fresh")
	}
}

func TestTMSIReuseAcrossUEs(t *testing.T) {
	v := NewVocabulary([]string{"m"})
	e := NewEncoder(v)
	base := e.Dim() - widthDerived

	a := e.Encode(rec("m", 1, 1, 0xBEEF))
	if a[base+1] != 0 {
		t.Error("first TMSI use marked as reuse")
	}
	if a[base+2] != 1 {
		t.Error("tmsiPresent not set")
	}
	b := e.Encode(rec("m", 1, 1, 0xBEEF))
	if b[base+1] != 0 {
		t.Error("same-UE TMSI marked as reuse")
	}
	// Blind DoS pattern: another UE context presents the same TMSI.
	c := e.Encode(rec("m", 2, 2, 0xBEEF))
	if c[base+1] != 1 {
		t.Error("cross-UE TMSI reuse not detected")
	}
}

func TestSUPIExposureFeature(t *testing.T) {
	v := NewVocabulary([]string{"m"})
	e := NewEncoder(v)
	base := e.Dim() - widthDerived

	r := rec("m", 1, 1, 0)
	r.SUPI = "imsi-001010000000001"
	vec := e.Encode(r)
	if vec[base+3] != 1 {
		t.Error("plaintext SUPI before security not flagged")
	}
	r.SecurityOn = true
	vec = e.Encode(r)
	if vec[base+3] != 0 {
		t.Error("SUPI after security activation flagged")
	}
}

func TestNullSecurityFeature(t *testing.T) {
	v := NewVocabulary([]string{"m"})
	e := NewEncoder(v)
	base := e.Dim() - widthDerived

	r := rec("m", 1, 1, 0)
	r.SecurityOn = true
	r.CipherAlg = cell.NEA0
	r.IntegAlg = cell.NIA0
	if vec := e.Encode(r); vec[base+4] != 1 {
		t.Error("active null security not flagged")
	}
	r.CipherAlg, r.IntegAlg = cell.NEA2, cell.NIA2
	if vec := e.Encode(r); vec[base+4] != 0 {
		t.Error("strong security flagged as null")
	}
	// NEA0 before security activation is normal, not an anomaly feature.
	r.SecurityOn = false
	r.CipherAlg = cell.NEA0
	if vec := e.Encode(r); vec[base+4] != 0 {
		t.Error("pre-security NEA0 flagged")
	}
}

func TestEncoderReset(t *testing.T) {
	v := NewVocabulary([]string{"m"})
	e := NewEncoder(v)
	base := e.Dim() - widthDerived
	e.Encode(rec("m", 1, 0x10, 0))
	e.Reset()
	if vec := e.Encode(rec("m", 1, 0x10, 0)); vec[base] != 1 {
		t.Error("RNTI history survived Reset")
	}
}

func TestWindowsAE(t *testing.T) {
	vecs := [][]float64{{1}, {2}, {3}, {4}}
	w := WindowsAE(vecs, 2)
	want := [][]float64{{1, 2}, {2, 3}, {3, 4}}
	if !reflect.DeepEqual(w, want) {
		t.Errorf("WindowsAE = %v, want %v", w, want)
	}
	if WindowsAE(vecs, 5) != nil {
		t.Error("window larger than data should yield nil")
	}
	if WindowsAE(vecs, 0) != nil {
		t.Error("n=0 should yield nil")
	}
}

func TestWindowsLSTM(t *testing.T) {
	vecs := [][]float64{{1}, {2}, {3}, {4}}
	wins, nexts := WindowsLSTM(vecs, 2)
	if len(wins) != 2 || len(nexts) != 2 {
		t.Fatalf("got %d windows, %d nexts", len(wins), len(nexts))
	}
	if !reflect.DeepEqual(nexts[0], []float64{3}) || !reflect.DeepEqual(nexts[1], []float64{4}) {
		t.Errorf("nexts = %v", nexts)
	}
	if !reflect.DeepEqual(wins[1], [][]float64{{2}, {3}}) {
		t.Errorf("window 1 = %v", wins[1])
	}
}

func TestWindowLabels(t *testing.T) {
	labels := []bool{false, false, true, false, false}
	got := WindowLabels(labels, 2)
	// Windows: [0,1] [1,2] [2,3] [3,4] → record 2 malicious taints windows 1 and 2.
	want := []bool{false, true, true, false}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WindowLabels = %v, want %v", got, want)
	}
}

func TestWindowLabelsNext(t *testing.T) {
	labels := []bool{false, false, false, true}
	got := WindowLabelsNext(labels, 2)
	// Pairs: window [0,1]+next 2 → benign; window [1,2]+next 3 → malicious.
	want := []bool{false, true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("WindowLabelsNext = %v, want %v", got, want)
	}
}

// Property: windows and labels stay aligned for arbitrary trace lengths
// and window sizes.
func TestQuickWindowAlignment(t *testing.T) {
	f := func(lenRaw uint8, nRaw uint8, maliciousAt uint8) bool {
		length := int(lenRaw%50) + 1
		n := int(nRaw%8) + 1
		vecs := make([][]float64, length)
		labels := make([]bool, length)
		for i := range vecs {
			vecs[i] = []float64{float64(i)}
		}
		if int(maliciousAt) < length {
			labels[maliciousAt] = true
		}
		wins := WindowsAE(vecs, n)
		wl := WindowLabels(labels, n)
		if len(wins) != len(wl) {
			return false
		}
		lw, nexts := WindowsLSTM(vecs, n)
		nl := WindowLabelsNext(labels, n)
		return len(lw) == len(nl) && len(lw) == len(nexts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: encoding is deterministic given identical history.
func TestQuickEncodeDeterministic(t *testing.T) {
	v := NewVocabulary([]string{"a", "b"})
	f := func(msgSel bool, ue uint64, rnti uint16, tmsi uint32, ooo bool) bool {
		msg := "a"
		if msgSel {
			msg = "b"
		}
		r := rec(msg, ue, cell.RNTI(rnti), cell.TMSI(tmsi))
		r.OutOfOrder = ooo
		e1, e2 := NewEncoder(v), NewEncoder(v)
		return reflect.DeepEqual(e1.Encode(r), e2.Encode(r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeRecord(b *testing.B) {
	v := NewVocabulary([]string{"RRCSetupRequest", "RRCSetup", "RRCSetupComplete", "RegistrationRequest"})
	e := NewEncoder(v)
	r := rec("RRCSetupRequest", 1, 0x46, 0xBEEF)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Encode(r)
	}
}

// TestRNTICyclingKeepsEncoderSize cycles every valid RNTI through one
// encoder twice, among repeats of a few: the live heap is what it was
// before the cycles, and every record's fresh-RNTI feature is what a map
// of the RNTIs seen so far says.
func TestRNTICyclingKeepsEncoderSize(t *testing.T) {
	v := BuildVocabulary(mobiflow.Trace{{Msg: "RRCSetupRequest"}})
	e := NewEncoder(v)
	b := NewRowBuffer(Dim(v))
	freshCol := int32(Dim(v) - widthDerived)
	seen := map[cell.RNTI]bool{}
	rec := mobiflow.Record{Msg: "RRCSetupRequest", UEID: 1, Dir: cell.Uplink, Timestamp: time.Unix(1700000000, 0)}
	check := func(rnti cell.RNTI) {
		rec.RNTI = rnti
		want := rnti != cell.InvalidRNTI && !seen[rnti]
		seen[rnti] = true
		b.Push(e, rec)
		if got := slices.Contains(b.Cols(0), freshCol); got != want {
			t.Fatalf("RNTI %#x: fresh %v, the map of RNTIs seen says %v", rnti, got, want)
		}
		b.Trim(1)
	}
	check(7) // the encoder and the buffer at their steady-state size
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for cycle := 0; cycle < 2; cycle++ {
		for r := 0; r < 1<<16; r++ {
			check(cell.RNTI(r))
			check(cell.RNTI(r * 7919 % 11))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 16<<10 {
		t.Errorf("cycling every RNTI grew the live heap by %d B", grew)
	}
}
