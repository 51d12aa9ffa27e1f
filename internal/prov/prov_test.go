package prov

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/6g-xsec/xsec/internal/mobiflow"
)

func TestChainIDRoundtrip(t *testing.T) {
	for _, id := range []ChainID{
		{Node: "gnb-001", SN: 0},
		{Node: "gnb-oai-42", SN: 1337},
		{Node: "region/site/gnb", SN: 9}, // nodes may contain slashes
	} {
		got, err := ParseChainID(id.String())
		if err != nil {
			t.Fatalf("ParseChainID(%q): %v", id.String(), err)
		}
		if got != id {
			t.Fatalf("roundtrip %q = %+v, want %+v", id.String(), got, id)
		}
	}
}

func TestParseChainIDErrors(t *testing.T) {
	for _, s := range []string{"", "gnb-001", "gnb-001/x", "/5", "gnb/1/z"} {
		if id, err := ParseChainID(s); err == nil {
			t.Fatalf("ParseChainID(%q) = %+v, want error", s, id)
		}
	}
}

func TestKindJSONRoundtrip(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back != k {
			t.Fatalf("roundtrip %v → %s → %v", k, data, back)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"warp"`), &k); err == nil {
		t.Fatal("unknown kind name accepted")
	}
}

func TestDigestDeterministicAndSensitive(t *testing.T) {
	w := []float64{0.1, 0.2, 0.3}
	if NewDigest().floats(w) != NewDigest().floats([]float64{0.1, 0.2, 0.3}) {
		t.Fatal("digest not deterministic")
	}
	if NewDigest().floats(w) == NewDigest().floats([]float64{0.1, 0.2, 0.30000001}) {
		t.Fatal("digest insensitive to a feature change")
	}
	// The string terminator keeps concatenations distinguishable.
	if NewDigest().Str("ab").Str("c") == NewDigest().Str("a").Str("bc") {
		t.Fatal(`digest("ab","c") == digest("a","bc")`)
	}
}

// TestDigestIsBytewiseFNV1a pins digests to the standard library's
// FNV-1a over the little-endian bytes, zeros included: the one-step zero
// word in U64 is a shortcut to the same value, so stored digests from
// before it still verify.
func TestDigestIsBytewiseFNV1a(t *testing.T) {
	window := []float64{0, 1, 0, 0, 0.25, 0, -0.0, 0, 0, 0, 3.5, 0}
	h := fnv.New64a()
	var le [8]byte
	for _, v := range window {
		binary.LittleEndian.PutUint64(le[:], math.Float64bits(v))
		h.Write(le[:])
	}
	if got, want := NewDigest().floats(window), Digest(h.Sum64()); got != want {
		t.Fatalf("floats = %s, bytewise FNV-1a = %s", got, want)
	}
	f32 := make([]float32, len(window))
	for i, v := range window {
		f32[i] = float32(v)
	}
	if got, want := NewDigest().floats32(f32), NewDigest().floats(window); got != want {
		t.Fatalf("floats32 = %s, floats of the same values = %s", got, want)
	}
}

// TestDigestZeroRunsMatchBytewise is the differential test of the
// digest's fast path: floats32 and SparseFloats32 mix a run of +0
// elements as one multiplication per 64 of them, and must land where
// byte-serial FNV-1a over every element's float64 bytes does — on random
// vectors with runs longer than the power table, −0 (which is not a
// zero run) and NaN payloads. The pinned value is what floats32 gave
// before it had a fast path, so a wrong table entry cannot hide behind a
// reference that shares it.
func TestDigestZeroRunsMatchBytewise(t *testing.T) {
	bytewise := func(vs []float32) Digest {
		h := fnv.New64a()
		var le [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(le[:], math.Float64bits(float64(v)))
			h.Write(le[:])
		}
		return Digest(h.Sum64())
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		vs := make([]float32, rng.Intn(400))
		var nz []int32
		for i := 0; i < len(vs); {
			if run := rng.Intn(3*len(fnvZeroWords)) * rng.Intn(2); run > 0 {
				i += run // a zero run, often past the table
				continue
			}
			switch rng.Intn(4) {
			case 0:
				vs[i] = float32(math.Copysign(0, -1))
			case 1:
				vs[i] = math.Float32frombits(0x7f800001 + uint32(rng.Intn(1<<22))) // a NaN payload
			default:
				vs[i] = float32(rng.NormFloat64())
			}
			nz = append(nz, int32(i))
			i++
		}
		want := bytewise(vs)
		if got := NewDigest().floats32(vs); got != want {
			t.Fatalf("trial %d (%d elements): floats32 = %s, bytewise FNV-1a = %s", trial, len(vs), got, want)
		}
		if got := NewDigest().SparseFloats32(vs, nz); got != want {
			t.Fatalf("trial %d (%d elements): Sparsefloats32 = %s, bytewise FNV-1a = %s", trial, len(vs), got, want)
		}
	}

	pinned := make([]float32, 300)
	for i := range pinned {
		switch {
		case i%37 == 0:
			pinned[i] = float32(i) / 8
		case i%53 == 0:
			pinned[i] = float32(math.Copysign(0, -1))
		case i == 201:
			pinned[i] = math.Float32frombits(0x7fc01234)
		}
	}
	if got, want := NewDigest().floats32(pinned).String(), "3056df145f3925df"; got != want {
		t.Fatalf("pinned vector digests to %s, want %s", got, want)
	}
}

func TestDigestRecords(t *testing.T) {
	tr := mobiflow.Trace{
		{Seq: 1, Msg: "RRCSetupRequest", UEID: 7},
		{Seq: 2, Msg: "RRCSetup", UEID: 7},
	}
	d := DigestRecords(tr)
	if d == 0 || d == NewDigest() {
		t.Fatalf("degenerate digest %v", d)
	}
	tampered := mobiflow.Trace{
		{Seq: 1, Msg: "RRCSetupRequest", UEID: 7},
		{Seq: 2, Msg: "RRCSetup", UEID: 8}, // different UE context
	}
	if DigestRecords(tampered) == d {
		t.Fatal("digest insensitive to record tampering")
	}
}

// TestDigestJSONSurvivesGenericDecode is the reason Digest marshals as
// hex: a uint64 pushed through a float64-based decoder (encoding/json's
// interface{} path) silently loses low bits.
func TestDigestJSONSurvivesGenericDecode(t *testing.T) {
	d := DigestText("a prompt with enough entropy to fill 64 bits")
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var generic interface{}
	if err := json.Unmarshal(data, &generic); err != nil {
		t.Fatal(err)
	}
	redata, err := json.Marshal(generic)
	if err != nil {
		t.Fatal(err)
	}
	var back Digest
	if err := json.Unmarshal(redata, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Fatalf("digest %s corrupted to %s via generic JSON", d, back)
	}
	if len(d.String()) != 16 {
		t.Fatalf("String() = %q, want 16 hex digits", d.String())
	}
}

func TestEventJSONOmitsZeroFields(t *testing.T) {
	ev := Event{Chain: ChainID{Node: "n", SN: 1}, Kind: KindIndication}
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"score", "threshold", "model", "label", "action", "note", "ue_id", "action_id"} {
		if _, ok := m[field]; ok {
			t.Fatalf("zero field %q serialized: %s", field, data)
		}
	}
}

// floats mixes a float64 vector element by element: the reference the
// float32 digests are held to.
func (d Digest) floats(vs []float64) Digest {
	for _, v := range vs {
		d = d.F64(v)
	}
	return d
}

// floats32 is SparseFloats32 over every element: it mixes vs through
// the same float64 bit patterns as floats, a run of +0 elements in one
// multiplication.
func (d Digest) floats32(vs []float32) Digest {
	run := 0
	for _, v := range vs {
		if math.Float32bits(v) == 0 {
			run++
			continue
		}
		d = d.zeroWords(run).F64(float64(v))
		run = 0
	}
	return d.zeroWords(run)
}
