package prov

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// sameEvent is == with the floats compared by their bits, so a NaN
// equals itself and -0 does not equal 0.
func sameEvent(a, b Event) bool {
	if math.Float64bits(a.Score) != math.Float64bits(b.Score) ||
		math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) {
		return false
	}
	a.Score, a.Threshold, b.Score, b.Threshold = 0, 0, 0, 0
	return a == b
}

// requireChain checks that the ledger's own read and ReadChain's read of
// the SDL alone both return exactly want.
func requireChain(t *testing.T, l *Ledger, store *sdl.Store, id ChainID, want []Event) {
	t.Helper()
	mem, ok := l.Chain(id)
	if !ok {
		t.Fatalf("chain %s not retained", id)
	}
	disk, err := ReadChain(store, id)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]Event{"Chain": mem.Events, "ReadChain": disk.Events} {
		if len(got) != len(want) {
			t.Fatalf("%s(%s): %d events, want %d", name, id, len(got), len(want))
		}
		for i := range want {
			if !sameEvent(got[i], want[i]) {
				t.Fatalf("%s(%s) event %d:\n  got  %+v\n  want %+v", name, id, i, got[i], want[i])
			}
		}
	}
}

// TestPersistedChainRoundTrips writes a chain with every field in use —
// a folded run, hostile strings, extreme floats, -0 — through the ledger
// and requires both reads to return exactly the events recorded. At is
// an instant and reads back in UTC.
func TestPersistedChainRoundTrips(t *testing.T) {
	store := sdl.New()
	l := New(Options{Store: store, Clock: testClock})
	defer l.Close()
	id := ChainID{Node: `gnb-"<001>"`, SN: 7}

	recorded := []Event{
		{Kind: KindEmit, At: time.Unix(1_700_000_000, 123_456_789).UTC(), Records: 12, SeqFirst: 1, SeqLast: 12, Digest: 0xabcd},
		{Kind: KindWindow, Model: "autoencoder", Score: 1e-7, Threshold: 1.1, Count: 3, SeqFirst: 13, Digest: 1},
		{Kind: KindWindow, Model: "autoencoder", Score: 2e-7, Threshold: 1.1, SeqLast: 19, Digest: 2}, // folds into the run
		{Kind: KindWindow, Model: "lstm", Score: 3.2e21, Threshold: math.Copysign(0, -1), Flagged: true, Digest: 1<<64 - 1},
		{Kind: KindVerdict, Label: "anomalous", Action: "bts-dos", Score: math.SmallestNonzeroFloat64, Note: "why: a<b && \"c\"\n\u2028\xff"},
		{Kind: KindMitigation, ActionID: 3, Action: "release-ue", Label: "issued", Target: "ue/901", UEID: 1<<64 - 1},
	}
	for _, ev := range recorded {
		ev.Chain = id
		l.Record(ev)
	}
	l.Flush()

	want := []Event{recorded[0], recorded[1], recorded[3], recorded[4], recorded[5]}
	for i := range want {
		want[i].Chain = id
		if want[i].At.IsZero() {
			want[i].At = testClock()
		}
		if want[i].Count == 0 {
			want[i].Count = 1
		}
	}
	want[1].Count, want[1].Score, want[1].SeqLast, want[1].Digest = 4, 2e-7, 19, 2
	requireChain(t, l, store, id, want)
}

// TestNonFiniteScoresPersist: a NaN or ±Inf score — what a verdict whose
// model answered "confidence NaN" would carry — is stored like any other
// value, and so is the chain's next event; both read back bit for bit.
func TestNonFiniteScoresPersist(t *testing.T) {
	store := sdl.New()
	l := New(Options{Store: store, Clock: testClock})
	defer l.Close()
	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		id := ChainID{Node: "gnb-001", SN: uint64(i)}
		want := []Event{
			{Chain: id, Kind: KindVerdict, At: testClock(), Count: 1, Label: "anomalous", Score: bad, Threshold: -bad},
			{Chain: id, Kind: KindMitigation, At: testClock(), Count: 1, ActionID: 1, Action: "release-ue", Label: "proposed"},
		}
		for _, ev := range want {
			l.Record(ev)
		}
		l.Flush()
		requireChain(t, l, store, id, want)
	}
}

// TestPersistAllocatesOnlyTheStoredValue: re-persisting an event (what
// every folded benign run does) costs the fresh segment the SDL keeps and
// nothing else; a new segment adds its key.
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

// TestLedgerRetainedBytesPerEvent sizes a full retention of attack-shaped
// chains — emit, transport, indication, benign runs of both models, a
// flagged window and its alert — counting the ledger and the SDL keys and
// values it owns: at most 160 B of live heap per retained event. Holding
// each event twice, as a struct and as JSON, cost ≈ 710 B here, and one
// SDL key per event ≈ 315 B.
func TestLedgerRetainedBytesPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a full ledger")
	}
	l := newLedger(Options{Store: sdl.New(), Clock: testClock})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	seq := uint64(100_000)
	for sn := uint64(0); sn < DefaultMaxChains; sn++ {
		id := ChainID{Node: "gnb-001", SN: 40_000 + sn}
		window := func(model string, flagged bool) Event {
			seq++
			return Event{Chain: id, Kind: KindWindow, SeqFirst: seq - 15, SeqLast: seq, Digest: DigestFloats([]float64{float64(seq)}),
				Model: model, Score: 0.001 * float64(seq%997), Threshold: 0.73, Flagged: flagged}
		}
		l.handle(Event{Chain: id, Kind: KindEmit, Records: 9, SeqFirst: seq + 1, SeqLast: seq + 9, Digest: DigestFloats([]float64{float64(sn)})})
		l.handle(Event{Chain: id, Kind: KindTransport, Label: "sent"})
		l.handle(Event{Chain: id, Kind: KindIndication, Label: "routed"})
		for i := 0; i < 4; i++ {
			l.handle(window("autoencoder", false))
		}
		for i := 0; i < 4; i++ {
			l.handle(window("lstm", false))
		}
		flagged := window("autoencoder", true)
		l.handle(flagged)
		flagged.Kind, flagged.Label = KindAlert, "raised"
		l.handle(flagged)
		for i := 0; i < 4; i++ {
			l.handle(window("autoencoder", false))
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	events := 0
	for _, c := range l.chains {
		events += c.events
	}
	runtime.KeepAlive(l)
	if want := 8 * DefaultMaxChains; events != want {
		t.Fatalf("%d events retained, want %d", events, want)
	}
	perEvent := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(events)
	t.Logf("%.0f B of live heap per retained event, %.1f KB per chain", perEvent, perEvent*8/1024)
	if perEvent > 160 {
		t.Errorf("the ledger retains %.0f B per event, want at most 160", perEvent)
	}
}

// BenchmarkLedgerPersist times the writer's whole per-event cost. fold is
// the path benign_capacity exercises: the fold into the chain's open run
// plus its encode and segment write. chain=N appends N flagged windows to
// each chain, as an alert flood does, with evictions: each op is one
// event, and the 512-event figure stays near the 16-event one because a
// persist copies at most its own segment.
func BenchmarkLedgerPersist(b *testing.B) {
	b.Run("fold", func(b *testing.B) {
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
	})
	for _, n := range []int{segmentEvents, DefaultMaxEventsPerChain} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			l := newLedger(Options{Store: sdl.New(), MaxChains: 64, Clock: testClock})
			ev := Event{Kind: KindWindow, At: testClock(), Model: "autoencoder", Threshold: 1.5, Flagged: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Chain = ChainID{Node: "gnb-001", SN: uint64(i / n)}
				ev.SeqFirst, ev.SeqLast, ev.Score, ev.Digest = uint64(i), uint64(i+15), float64(i), Digest(i)
				l.handle(ev)
			}
		})
	}
}

// FuzzEventTLV holds a stored segment — a run of length-prefixed event
// TLVs — to three properties on arbitrary bytes: decoding never panics; a
// segment that decodes re-encodes to one that decodes to the same events;
// and a length prefix or a TLV length claiming more than the input holds
// is refused without allocating what it claims. The seeds are every value
// the ledger published while recording an end-to-end chain and a verdict
// with non-finite scores.
func FuzzEventTLV(f *testing.F) {
	store := sdl.New()
	published, cancel := store.Watch(Namespace, "ev/", 64)
	l := New(Options{Store: store, Clock: testClock})
	fullChain(l, ChainID{Node: "gnb-001", SN: 1}, 901, testClock())
	l.Record(Event{Chain: ChainID{Node: "gnb-001", SN: 2}, Kind: KindVerdict, Score: math.NaN(), Threshold: math.Inf(-1), Note: "\xff"})
	l.Close()
	cancel()
	for ev := range published {
		f.Add(ev.Value)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if evs, err := appendSegment(nil, ChainID{}, data); err == nil {
			var seg []byte
			for i := range evs {
				tlv := asn1lite.Marshal(&evs[i])
				seg = append(binary.AppendUvarint(seg, uint64(len(tlv))), tlv...)
			}
			back, err := appendSegment(nil, ChainID{}, seg)
			if err != nil || len(back) != len(evs) {
				t.Fatalf("decode∘encode: %d events, %v; want %d", len(back), err, len(evs))
			}
			for i := range evs {
				if !sameEvent(back[i], evs[i]) {
					t.Fatalf("decode∘encode event %d: %+v; want %+v", i, back[i], evs[i])
				}
			}
		}

		if len(data) >= asn1lite.MaxValueLen {
			return
		}
		tlvLie := binary.AppendUvarint(binary.AppendUvarint(nil, tagNote), asn1lite.MaxValueLen)
		tlvLie = append(tlvLie, data...)
		for name, lie := range map[string][]byte{
			"length prefix": append(binary.AppendUvarint(nil, asn1lite.MaxValueLen), data...),
			"TLV length":    append(binary.AppendUvarint(nil, uint64(len(tlvLie))), tlvLie...),
		} {
			allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
			metrics.Read(allocated)
			before := allocated[0].Value.Uint64()
			_, err := appendSegment(nil, ChainID{}, lie)
			metrics.Read(allocated)
			if err == nil {
				t.Fatalf("a %s running past the end of the input decoded", name)
			}
			if n := allocated[0].Value.Uint64() - before; n > 1<<20 {
				t.Fatalf("refusing a %d-byte %s claim on %d bytes allocated %d bytes", asn1lite.MaxValueLen, name, len(data), n)
			}
		}
	})
}
