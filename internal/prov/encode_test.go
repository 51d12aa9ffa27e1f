package prov

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/sdl"
)

// sameAsMarshal requires appendJSON and json.Marshal to agree on ev: the
// same bytes, or both refusing.
func sameAsMarshal(t *testing.T, ev Event) {
	t.Helper()
	want, err := json.Marshal(&ev)
	got, ok := ev.appendJSON(nil)
	if ok != (err == nil) {
		t.Fatalf("appendJSON ok=%v, json.Marshal err=%v for %+v", ok, err, ev)
	}
	if ok && !bytes.Equal(got, want) {
		t.Fatalf("appendJSON diverges from json.Marshal for %+v:\n  got  %s\n  want %s", ev, got, want)
	}
}

// TestAppendJSONMatchesMarshal is the differential pin behind persisting
// without reflection: over hand-picked edge cases and 20 000 random events
// — every Kind (and one past the last), every field both empty and set,
// hostile strings, floats on both sides of each formatting boundary, local
// and UTC times — the hand-written encoder is json.Marshal byte for byte,
// and refuses exactly what json.Marshal refuses.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	strs := []string{
		"", "gnb-001", "autoencoder", "ue/5", `say "hi"`, `back\slash`, "<script>&amp;</script>",
		"line\nbreak\ttab\rcr", "\b\f\x00\x01\x1f\x7f", "sep\u2028and\u2029", "snow ☃ 🙂 é",
		"bad\xffutf8\xc3", "\xe2\x80", "trail\xf0\x9f\x99", "ｆｕｌｌ", "\ufffd kept",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 3.2, 1e-6, 0.99e-6, 1e-7, -1e-7, 1e20, 1e21, -1e21, 1.5e300,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, 1.0 / 3, 123456789.125, 1e-10, 1e100,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	east := time.FixedZone("east", 5*3600+30*60)
	west := time.FixedZone("west", -(9*3600 + 59*60 + 59))
	times := []time.Time{
		{}, time.Unix(1_700_000_000, 0).UTC(), time.Unix(1_700_000_000, 123_456_789).In(east),
		time.Unix(1_700_000_000, 120_000_000).In(west), time.Unix(1_700_000_000, 999).Local(),
		time.Now(), time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Unix(0, 0).In(time.FixedZone("far", 24*3600)), time.Unix(0, 0).In(time.FixedZone("near", -(24*3600 - 1))),
	}

	base := Event{Chain: ChainID{Node: "gnb-001", SN: 42}, Kind: KindWindow, At: times[1]}
	for k := Kind(0); k <= kindCount; k++ {
		ev := base
		ev.Kind = k
		sameAsMarshal(t, ev)
	}
	for _, s := range strs {
		ev := base
		ev.Chain.Node, ev.Model, ev.Label, ev.Action, ev.Target, ev.Note = s, s, s, s, s, s
		sameAsMarshal(t, ev)
	}
	for _, f := range floats {
		ev := base
		ev.Score = f
		sameAsMarshal(t, ev)
		ev.Score, ev.Threshold = 1, f
		sameAsMarshal(t, ev)
	}
	for _, at := range times {
		ev := base
		ev.At = at
		sameAsMarshal(t, ev)
	}

	rng := rand.New(rand.NewSource(18))
	str := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		s := strs[rng.Intn(len(strs))]
		if rng.Intn(4) == 0 { // random bytes: mostly invalid UTF-8 and control characters
			raw := make([]byte, rng.Intn(12))
			rng.Read(raw)
			s += string(raw)
		}
		return s
	}
	u64 := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Intn(1000))
		}
		return rng.Uint64()
	}
	f64 := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return floats[rng.Intn(len(floats)-3)] // finite ones
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return math.Float64frombits(rng.Uint64()) // now and then NaN or Inf
	}
	for i := 0; i < 20000; i++ {
		at := times[1+rng.Intn(5)].Add(time.Duration(rng.Int63n(int64(time.Hour))))
		if rng.Intn(50) == 0 {
			at = times[rng.Intn(len(times))]
		}
		sameAsMarshal(t, Event{
			Chain:     ChainID{Node: str(), SN: u64()},
			Kind:      Kind(rng.Intn(int(kindCount) + 1)),
			At:        at,
			SeqFirst:  u64(),
			SeqLast:   u64(),
			Records:   uint32(u64()),
			Count:     uint32(u64()),
			Digest:    Digest(u64()),
			Model:     str(),
			Score:     f64(),
			Threshold: f64(),
			Flagged:   rng.Intn(2) == 0,
			Label:     str(),
			Action:    str(),
			Target:    str(),
			UEID:      u64(),
			ActionID:  u64(),
			Note:      str(),
		})
	}
}

// TestPersistedChainRoundTrips writes a chain with every optional field in
// use — hostile strings included — through the ledger and reads it back
// from the SDL alone: what ReadChain decodes is what the ledger holds.
func TestPersistedChainRoundTrips(t *testing.T) {
	store := sdl.New()
	l := New(Options{Store: store, Clock: testClock})
	defer l.Close()
	id := ChainID{Node: `gnb-"<001>"`, SN: 7}
	at := time.Unix(1_700_000_000, 123_456_789).In(time.FixedZone("east", 3600))

	l.Record(Event{Chain: id, Kind: KindEmit, At: at, Records: 12, SeqFirst: 1, SeqLast: 12, Digest: 0xabcd})
	l.Record(Event{Chain: id, Kind: KindWindow, Model: "autoencoder", Score: 1e-7, Threshold: 1.1, Count: 3, Digest: 1})
	l.Record(Event{Chain: id, Kind: KindWindow, Model: "autoencoder", Score: 2e-7, Threshold: 1.1, SeqLast: 19}) // folds into the run
	l.Record(Event{Chain: id, Kind: KindWindow, Model: "lstm", Score: 3.2e21, Threshold: 1.1, Flagged: true})
	l.Record(Event{Chain: id, Kind: KindVerdict, Label: "anomalous", Action: "bts-dos", Note: "why: a<b && \"c\"\n\u2028\xff"})
	l.Record(Event{Chain: id, Kind: KindMitigation, ActionID: 3, Action: "release-ue", Label: "issued", Target: "ue/901", UEID: 901})
	l.Flush()

	mem, ok := l.Chain(id)
	if !ok || len(mem.Events) != 5 {
		t.Fatalf("chain in memory: %+v, %v; want five events", mem, ok)
	}
	disk, err := ReadChain(store, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(disk.Events) != len(mem.Events) {
		t.Fatalf("disk %d events, memory %d", len(disk.Events), len(mem.Events))
	}
	for i := range mem.Events {
		want := mem.Events[i]
		// JSON carries the instant and the offset, not the *Location, and
		// replaces the invalid byte in the note as json.Marshal always has.
		if !disk.Events[i].At.Equal(want.At) {
			t.Fatalf("event %d: time %v, want %v", i, disk.Events[i].At, want.At)
		}
		disk.Events[i].At = want.At
		if want.Kind == KindVerdict {
			want.Note = "why: a<b && \"c\"\n\u2028\ufffd"
		}
		if disk.Events[i] != want {
			t.Fatalf("event %d diverges:\n  disk   %+v\n  memory %+v", i, disk.Events[i], want)
		}
	}
}

// TestPersistAllocatesOnlyTheStoredValue: re-persisting an event (what
// every folded benign run does) costs the exact-length copy the SDL keeps
// and nothing else; a new event adds its key.
func TestPersistAllocatesOnlyTheStoredValue(t *testing.T) {
	l := newLedger(Options{Store: sdl.New(), Clock: testClock})
	id := ChainID{Node: "gnb-001", SN: 9}
	ev := Event{Chain: id, Kind: KindWindow, Model: "autoencoder", Score: 0.01, Threshold: 1.5, Digest: 77, SeqFirst: 1, SeqLast: 8}
	l.handle(ev)
	if allocs := testing.AllocsPerRun(1000, func() {
		ev.SeqLast++
		l.handle(ev) // folds into the open run and persists it again
	}); allocs > 1 {
		t.Errorf("re-persisting a folded run allocates %.2f times per event, want at most 1 (the stored value)", allocs)
	}
	if got, err := ReadChain(l.store, id); err != nil || len(got.Events) != 1 || got.Events[0].Count != 1002 {
		t.Errorf("stored chain = %+v, %v; want one run of 1002 windows", got, err)
	}
}

// BenchmarkLedgerPersist times the writer's whole per-event cost on the
// path benign_capacity exercises: the fold into the chain's open run plus
// its render and SDL write.
func BenchmarkLedgerPersist(b *testing.B) {
	l := newLedger(Options{Store: sdl.New(), Clock: testClock})
	ev := Event{Chain: ChainID{Node: "gnb-001", SN: 9}, Kind: KindWindow, At: testClock(),
		Model: "autoencoder", Score: 0.0123, Threshold: 1.5, Digest: 0xfeedface, SeqFirst: 1, SeqLast: 8, Count: 8}
	l.handle(ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.SeqLast++
		l.handle(ev)
	}
}
