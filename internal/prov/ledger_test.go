package prov

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/sdl"
)

var testClock = func() time.Time { return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC) }

func TestLedgerCoalescesBenignWindows(t *testing.T) {
	store := sdl.New()
	l := New(Options{Store: store, clock: testClock})
	defer l.Close()

	id := ChainID{Node: "gnb-001", SN: 7}
	for i := 0; i < 5; i++ {
		l.Record(Event{
			Chain:    id,
			Kind:     KindWindow,
			SeqFirst: uint64(i + 1),
			SeqLast:  uint64(i + 4),
			Digest:   NewDigest().floats([]float64{float64(i)}),
			Model:    "autoencoder",
			Score:    0.1 * float64(i%3), // max is 0.2, at i=2
		})
	}
	l.Flush()

	rec, ok := l.Chain(id)
	if !ok {
		t.Fatal("chain missing")
	}
	if len(rec.Events) != 1 {
		t.Fatalf("benign run produced %d events, want 1 coalesced", len(rec.Events))
	}
	ev := rec.Events[0]
	if ev.Count != 5 {
		t.Fatalf("Count = %d, want 5", ev.Count)
	}
	if ev.Score != 0.2 {
		t.Fatalf("Score = %v, want max 0.2", ev.Score)
	}
	if ev.SeqLast != 8 || ev.Digest != NewDigest().floats([]float64{4}) {
		t.Fatalf("coalesced event does not track the latest window: %+v", ev)
	}
	// The SDL holds exactly one key for the chain, and its one segment
	// one event: the coalesced event is overwritten in place, not appended.
	if keys := store.Keys(Namespace, keyPrefix(id)); len(keys) != 1 {
		t.Fatalf("SDL keys = %v, want 1", keys)
	}
	seg, _, _ := store.Get(Namespace, segmentKey(id, 0))
	if evs, err := appendSegment(nil, id, seg); err != nil || len(evs) != 1 {
		t.Fatalf("stored segment holds %d events, err %v; want 1", len(evs), err)
	}
}

func TestLedgerFlaggedBreaksCoalescing(t *testing.T) {
	l := New(Options{clock: testClock})
	defer l.Close()
	id := ChainID{Node: "n", SN: 1}

	l.Record(Event{Chain: id, Kind: KindWindow, Model: "autoencoder", Score: 0.1})
	l.Record(Event{Chain: id, Kind: KindWindow, Model: "autoencoder", Score: 5, Flagged: true})
	l.Record(Event{Chain: id, Kind: KindWindow, Model: "autoencoder", Score: 0.1})
	l.Record(Event{Chain: id, Kind: KindWindow, Model: "lstm", Score: 0.1}) // model switch
	l.Flush()

	rec, _ := l.Chain(id)
	if len(rec.Events) != 4 {
		t.Fatalf("got %d events, want 4 (flagged and model switches never merge): %+v", len(rec.Events), rec.Events)
	}
	if !rec.Events[1].Flagged || rec.Events[1].Score != 5 {
		t.Fatalf("flagged event mangled: %+v", rec.Events[1])
	}
}

func TestLedgerPersistenceParity(t *testing.T) {
	store := sdl.New()
	l := New(Options{Store: store, clock: testClock})
	defer l.Close()
	id := ChainID{Node: "gnb-001", SN: 42}

	l.Record(Event{Chain: id, Kind: KindEmit, Records: 12, SeqFirst: 1, SeqLast: 12, Digest: 0xabcd})
	l.Record(Event{Chain: id, Kind: KindIndication, Label: "routed"})
	l.Record(Event{Chain: id, Kind: KindWindow, Model: "autoencoder", Score: 3.2, Threshold: 1.1, Flagged: true})
	l.Record(Event{Chain: id, Kind: KindVerdict, Label: "anomalous", Action: "bts-dos", Score: 0.9})
	l.Record(Event{Chain: id, Kind: KindMitigation, ActionID: 3, Action: "release-ue", Label: "issued", UEID: 901})
	l.Flush()

	mem, ok := l.Chain(id)
	if !ok {
		t.Fatal("chain missing from memory")
	}
	disk, err := ReadChain(store, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(disk.Events) != len(mem.Events) {
		t.Fatalf("disk %d events, memory %d", len(disk.Events), len(mem.Events))
	}
	for i := range mem.Events {
		if disk.Events[i] != mem.Events[i] {
			t.Fatalf("event %d diverges:\n  disk   %+v\n  memory %+v", i, disk.Events[i], mem.Events[i])
		}
	}
}

func TestLedgerEvictionBoundsRetentionAndCleansSDL(t *testing.T) {
	store := sdl.New()
	l := New(Options{Store: store, maxChains: 2, clock: testClock})
	defer l.Close()

	for sn := uint64(1); sn <= 3; sn++ {
		l.Record(Event{Chain: ChainID{Node: "n", SN: sn}, Kind: KindEmit})
	}
	l.Flush()

	if got := l.ChainCount(); got != 2 {
		t.Fatalf("ChainCount = %d, want 2", got)
	}
	if got := l.evicted.Load(); got != 1 {
		t.Fatalf("Evicted = %d, want 1", got)
	}
	if _, ok := l.Chain(ChainID{Node: "n", SN: 1}); ok {
		t.Fatal("oldest chain still in memory")
	}
	// Eviction deletes the persisted keys too.
	if keys := store.Keys(Namespace, keyPrefix(ChainID{Node: "n", SN: 1})); len(keys) != 0 {
		t.Fatalf("evicted chain keys remain: %v", keys)
	}
	if _, ok := l.Chain(ChainID{Node: "n", SN: 3}); !ok {
		t.Fatal("newest chain lost")
	}
	// The eviction ring still lists what is retained oldest first.
	if cs := l.Chains(); len(cs) != 2 || cs[0].ID.SN != 2 || cs[1].ID.SN != 3 {
		t.Fatalf("Chains() after eviction = %+v, want SN 2 then 3", cs)
	}
}

// TestLedgerEvictionTouchesOnlyItsOwnKeys pins the invariant "the ledger
// deletes exactly what it wrote": evicting a chain removes every segment
// key of that chain — multi-segment, truncated, or re-created after an
// earlier eviction — and nothing else in the namespace.
func TestLedgerEvictionTouchesOnlyItsOwnKeys(t *testing.T) {
	store := sdl.New()
	l := New(Options{Store: store, maxChains: 3, clock: testClock})
	defer l.Close()

	// Keys the ledger did not write: one outside the ev/ layout and one
	// that parses as a segment of the chain about to be evicted.
	victim := ChainID{Node: "n", SN: 1}
	foreign := []string{"audit/marker", keyPrefix(victim) + "9999"}
	for _, k := range foreign {
		store.Set(Namespace, k, []byte("foreign"))
	}
	chainKeys := func(id ChainID) int {
		n := len(store.Keys(Namespace, keyPrefix(id)))
		if id == victim {
			n-- // the foreign key under its prefix
		}
		return n
	}
	flagged := func(id ChainID, n int) {
		for i := 0; i < n; i++ {
			l.Record(Event{Chain: id, Kind: KindWindow, Model: "autoencoder", Score: float64(i), Flagged: true})
		}
	}

	// SNs sharing a decimal prefix, oldest first. The victim overflows
	// DefaultMaxEventsPerChain, so it is truncated at that many persisted
	// events in full segments.
	const victimKeys = DefaultMaxEventsPerChain / segmentEvents
	flagged(victim, DefaultMaxEventsPerChain+segmentEvents)
	flagged(ChainID{Node: "n", SN: 10}, segmentEvents+1)
	flagged(ChainID{Node: "n", SN: 100}, 2)
	l.Flush()
	if rec, _ := l.Chain(victim); !rec.Truncated || len(rec.Events) != DefaultMaxEventsPerChain || chainKeys(victim) != victimKeys {
		t.Fatalf("victim: truncated = %v, %d events in %d keys; want true, %d in %d", rec.Truncated, len(rec.Events), chainKeys(victim), DefaultMaxEventsPerChain, victimKeys)
	}

	flagged(ChainID{Node: "n", SN: 1000}, 1) // evicts SN 1
	l.Flush()
	if n := chainKeys(victim); n != 0 {
		t.Fatalf("evicted truncated chain left %d keys behind", n)
	}
	for sn, want := range map[uint64]int{10: segmentEvents + 1, 100: 2} {
		id := ChainID{Node: "n", SN: sn}
		disk, err := ReadChain(store, id)
		if err != nil || len(disk.Events) != want {
			t.Fatalf("neighbour %s after eviction: %d events, err %v; want %d", id, len(disk.Events), err, want)
		}
	}

	// Re-create the evicted chain across a segment boundary, then push it
	// out again.
	flagged(victim, segmentEvents+2) // evicts SN 10
	l.Flush()
	if n := chainKeys(victim); n != 2 {
		t.Fatalf("re-created chain has %d keys, want 2", n)
	}
	for _, sn := range []uint64{2000, 3000, 4000} { // evicts SN 100, 1000, then 1 again
		flagged(ChainID{Node: "n", SN: sn}, 1)
	}
	l.Flush()
	if n := chainKeys(victim); n != 0 {
		t.Fatalf("re-created chain left %d keys behind on its second eviction", n)
	}
	if got := l.evicted.Load(); got != 5 {
		t.Fatalf("Evicted = %d, want 5", got)
	}
	if got, want := len(store.Keys(Namespace, "ev/")), 3+1; got != want { // three 1-event chains + the foreign ev/ key
		t.Fatalf("%d ev/ keys remain, want %d: %v", got, want, store.Keys(Namespace, "ev/"))
	}
	for _, k := range foreign {
		if v, _, ok := store.Get(Namespace, k); !ok || string(v) != "foreign" {
			t.Fatalf("foreign key %q touched by eviction", k)
		}
	}
}

// TestEventKeyLayout pins the hand-rendered SDL segment keys to the
// documented fmt layout, including widths past the zero padding.
func TestEventKeyLayout(t *testing.T) {
	for _, id := range []ChainID{{"n", 0}, {"gnb-001", 42}, {"a/b", 1<<64 - 1}} {
		if got, want := keyPrefix(id), fmt.Sprintf("ev/%s/%020d/", id.Node, id.SN); got != want {
			t.Errorf("keyPrefix(%v) = %q, want %q", id, got, want)
		}
		for _, seg := range []int{0, 7, 31, 9999, 12345} {
			got, want := segmentKey(id, seg), fmt.Sprintf("ev/%s/%020d/%04d", id.Node, id.SN, seg)
			if got != want {
				t.Errorf("segmentKey(%v, %d) = %q, want %q", id, seg, got, want)
			}
			if pid, pseg, ok := parseSegmentKey(got); !ok || pid != id || pseg != seg {
				t.Errorf("parseSegmentKey(%q) = %v, %d, %v", got, pid, pseg, ok)
			}
		}
	}
}

// keyPrefix is the SDL key prefix holding one chain's events.
func keyPrefix(id ChainID) string {
	return string(appendKeyPrefix(make([]byte, 0, 64), id))
}

// handle applies one event as a batch of its own, on the caller's
// goroutine: what the writer does with it, without a writer.
func (l *Ledger) handle(ev Event) { l.apply([]Event{ev}) }

// recordFlagged drives n flagged windows of chain id through an
// unstarted writer's handle, on the caller's goroutine.
func recordFlagged(l *Ledger, id ChainID, n int) {
	for e := 0; e < n; e++ {
		l.handle(Event{Chain: id, Kind: KindWindow, Model: "autoencoder", Score: float64(e), Flagged: true})
	}
}

// BenchmarkLedgerEvict times evicting one six-event chain while the
// namespace holds 1k or 16k other ledger keys, one segment each. Eviction
// deletes the keys the chain recorded, so ns/op must not grow with the
// resident count and the timed section allocates nothing.
func BenchmarkLedgerEvict(b *testing.B) {
	const eventsPerChain = 6
	for _, resident := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("resident=%dk", resident>>10), func(b *testing.B) {
			l := newLedger(Options{Store: sdl.New(), maxChains: 1 << 30, clock: testClock})
			for c := 0; c < resident; c++ {
				recordFlagged(l, ChainID{Node: "resident", SN: uint64(c)}, eventsPerChain)
			}
			const batch = 256
			victims := make([]ChainID, 0, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += len(victims) {
				b.StopTimer()
				victims = victims[:0]
				for v := 0; v < min(batch, b.N-done); v++ {
					id := ChainID{Node: "victim", SN: uint64(done + v)}
					recordFlagged(l, id, eventsPerChain)
					victims = append(victims, id)
				}
				b.StartTimer()
				for _, id := range victims {
					l.evictLocked(id)
				}
			}
		})
	}
}

// BenchmarkReadChain times reading one six-event chain back from the SDL
// alone while the namespace holds 1k or 16k ledger keys, one segment each.
// ReadChain gets the chain's own keys, so ns/op must not grow with the
// resident count.
func BenchmarkReadChain(b *testing.B) {
	const eventsPerChain = 6
	for _, resident := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("resident=%dk", resident>>10), func(b *testing.B) {
			store := sdl.New()
			l := newLedger(Options{Store: store, maxChains: 1 << 30, clock: testClock})
			for c := 0; c < resident; c++ {
				recordFlagged(l, ChainID{Node: "resident", SN: uint64(c)}, eventsPerChain)
			}
			id := ChainID{Node: "resident", SN: 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec, err := ReadChain(store, id); err != nil || len(rec.Events) != eventsPerChain {
					b.Fatalf("ReadChain = %d events, %v; want %d", len(rec.Events), err, eventsPerChain)
				}
			}
		})
	}
}

func TestLedgerTruncatesLongChains(t *testing.T) {
	l := New(Options{clock: testClock})
	defer l.Close()
	id := ChainID{Node: "n", SN: 1}
	for i := 0; i < DefaultMaxEventsPerChain+3; i++ {
		l.Record(Event{Chain: id, Kind: KindWindow, Model: "autoencoder", Score: float64(i), Flagged: true})
	}
	l.Flush()
	rec, _ := l.Chain(id)
	if len(rec.Events) != DefaultMaxEventsPerChain || !rec.Truncated {
		t.Fatalf("events = %d, truncated = %v; want %d, true", len(rec.Events), rec.Truncated, DefaultMaxEventsPerChain)
	}
}

// TestLedgerDropsWhenFull uses an unstarted writer so the buffer fills
// deterministically.
func TestLedgerDropsWhenFull(t *testing.T) {
	l := newLedger(Options{Buffer: 2})
	for i := 0; i < 5; i++ {
		l.Record(Event{Chain: ChainID{Node: "n", SN: 1}, Kind: KindEmit})
	}
	if got := l.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
}

func TestLedgerRecordAfterCloseDropsWithoutPanic(t *testing.T) {
	l := New(Options{})
	l.Close()
	l.Record(Event{Chain: ChainID{Node: "n", SN: 1}})
	if l.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", l.Dropped())
	}
	l.Flush() // must not hang after Close
	l.Close() // idempotent
}

// TestLedgerRecordNoAllocs is the hot-path contract: recording a benign
// window — the overwhelmingly common case on the scoring path — performs
// zero allocations, like the obs fast paths.
func TestLedgerRecordNoAllocs(t *testing.T) {
	l := New(Options{})
	defer l.Close()
	w := []float64{0.25, 0.5, 0.75, 1}
	ev := Event{
		Chain:     ChainID{Node: "gnb-001", SN: 9},
		Kind:      KindWindow,
		Model:     "autoencoder",
		Score:     0.01,
		Threshold: 1.5,
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ev.Digest = NewDigest().floats(w)
		l.Record(ev)
	})
	if allocs != 0 {
		t.Fatalf("benign Record allocates %.1f per op, want 0", allocs)
	}
}

func TestLedgerConcurrentRecordAndQuery(t *testing.T) {
	store := sdl.New()
	l := New(Options{Store: store, maxChains: 16})
	defer l.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Record(Event{
					Chain: ChainID{Node: fmt.Sprintf("gnb-%03d", g), SN: uint64(i % 8)},
					Kind:  Kind(i % int(kindCount)),
					Model: "autoencoder",
					Score: float64(i),
				})
			}
		}(g)
	}
	wg.Add(1)
	go func() { // concurrent in-memory queries
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, c := range l.Select(Query{Label: "routed"}) {
				_ = c.Has(KindWindow)
			}
			l.ChainCount()
		}
	}()
	wg.Add(1)
	go func() { // concurrent SDL scans, as a live /prov reader would
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, id := range StoredChains(store) {
				_, _ = ReadChain(store, id)
			}
		}
	}()

	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	l.Flush()
	if l.ChainCount() == 0 {
		t.Fatal("no chains retained after concurrent load")
	}
	if l.ChainCount() > 16 {
		t.Fatalf("ChainCount = %d exceeds maxChains", l.ChainCount())
	}
}

// TestQueueGaugesFollowActiveLedger checks the saturation gauges read the
// active ledger's recording buffer: an unstarted writer holds what was
// recorded, so depth is exact.
func TestQueueGaugesFollowActiveLedger(t *testing.T) {
	l := newLedger(Options{Buffer: 8})
	defer SetActive(SetActive(l)) // swap now, restore on return
	for i := 0; i < 3; i++ {
		Record(Event{Chain: ChainID{Node: "n", SN: 1}, Kind: KindEmit})
	}
	want := map[string]float64{"xsec_prov_queue_depth": 3, "xsec_prov_queue_capacity": 8}
	for _, s := range obs.Default.Snapshot() {
		if v, ok := want[s.Name]; ok {
			if s.Value != v {
				t.Errorf("%s = %v, want %v", s.Name, s.Value, v)
			}
			delete(want, s.Name)
		}
	}
	for name := range want {
		t.Errorf("%s is not exported", name)
	}
}

func TestActiveLedgerSwap(t *testing.T) {
	repl := New(Options{})
	old := SetActive(repl)
	defer func() { SetActive(old).Close() }()

	Record(Event{Chain: ChainID{Node: "n", SN: 5}, Kind: KindEmit})
	repl.Flush()
	if _, ok := repl.Chain(ChainID{Node: "n", SN: 5}); !ok {
		t.Fatal("package Record did not reach the active ledger")
	}
}

// TestLedgerPublishesEachChainOncePerBatch: one writer pass over a batch
// sets each segment it changed once, the segment that rolled over before
// the one after it, and what it set is what the chain holds.
func TestLedgerPublishesEachChainOncePerBatch(t *testing.T) {
	store := sdl.New()
	sets, cancel := store.Watch(Namespace, "", 64)
	l := newLedger(Options{Store: store, clock: testClock})
	short, long := ChainID{Node: "gnb-001", SN: 7}, ChainID{Node: "gnb-001", SN: 8}
	indication := func(id ChainID) {
		l.Record(Event{Chain: id, Kind: KindEmit, Records: 9, SeqFirst: 1, SeqLast: 9, Digest: 0xabc})
		l.Record(Event{Chain: id, Kind: KindTransport, Label: "sent"})
		l.Record(Event{Chain: id, Kind: KindIndication, Label: "routed"})
		for i := 0; i < 3; i++ { // folds into one benign run
			l.Record(Event{Chain: id, Kind: KindWindow, Model: "autoencoder", SeqFirst: uint64(i + 1), SeqLast: uint64(i + 8), Score: 0.1})
		}
	}
	indication(short)
	indication(long)
	for i := 0; i < segmentEvents; i++ { // long rolls over into a second segment
		l.Record(Event{Chain: long, Kind: KindWindow, Model: "lstm", Score: float64(i), Flagged: true})
	}
	l.drain()
	cancel()

	var keys []string
	for ev := range sets {
		keys = append(keys, ev.Key)
	}
	want := []string{segmentKey(long, 0), segmentKey(short, 0), segmentKey(long, 1)}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("one writer pass set %v, want %v: each changed segment once, a closing one first", keys, want)
	}
	for id, n := range map[ChainID]int{short: 4, long: 4 + segmentEvents} {
		disk, err := ReadChain(store, id)
		mem, _ := l.Chain(id)
		if err != nil || len(disk.Events) != n || len(mem.Events) != n {
			t.Fatalf("chain %s: %d events stored (%v), %d read through the ledger; want %d", id, len(disk.Events), err, len(mem.Events), n)
		}
		if run := disk.Events[3]; run.Count != 3 || run.SeqFirst != 1 || run.SeqLast != 10 {
			t.Fatalf("chain %s: benign run = %+v, want 3 windows from seq 1 to 10", id, run)
		}
	}

	// A chain the same batch admits and evicts is never published.
	store = sdl.New()
	sets, cancel = store.Watch(Namespace, "", 64)
	l = newLedger(Options{Store: store, maxChains: 2, clock: testClock})
	for sn := uint64(1); sn <= 3; sn++ {
		l.Record(Event{Chain: ChainID{Node: "n", SN: sn}, Kind: KindEmit})
	}
	l.drain()
	cancel()
	keys = keys[:0]
	for ev := range sets {
		keys = append(keys, ev.Key)
	}
	want = []string{segmentKey(ChainID{Node: "n", SN: 2}, 0), segmentKey(ChainID{Node: "n", SN: 3}, 0)}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("a batch that evicted the chain it admitted first set %v, want %v", keys, want)
	}
}

// TestLedgerRecordDuringSwapAndFlush races producers against the writer's
// batch swap and against Flush: every event is applied or counted as
// dropped, each chain keeps its producer's order, and what a producer
// recorded before its Flush is readable when the Flush returns.
func TestLedgerRecordDuringSwapAndFlush(t *testing.T) {
	const producers, perProducer, perChain = 4, 600, 6
	l := New(Options{Buffer: 64, maxChains: producers * perProducer / perChain, clock: testClock})
	defer l.Close()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			node := fmt.Sprintf("gnb-%d", p)
			var before uint64 // drops when the chain's first event was recorded
			for i := 0; i < perProducer; i++ {
				id := ChainID{Node: node, SN: uint64(i / perChain)}
				if i%perChain == 0 {
					before = l.Dropped()
				}
				l.Record(Event{Chain: id, Kind: KindWindow, Model: "autoencoder", SeqFirst: uint64(i), Flagged: true})
				if i%(4*perChain) != perChain-1 {
					continue
				}
				l.Flush()
				// Unless some producer lost an event meanwhile, all of the
				// chain is in.
				if rec, ok := l.Chain(id); l.Dropped() == before && (!ok || len(rec.Events) != perChain) {
					t.Errorf("chain %s after Flush: %d events (retained %v), want %d", id, len(rec.Events), ok, perChain)
				}
			}
		}(p)
	}
	wg.Wait()
	l.Flush()

	applied := 0
	for _, rec := range l.Chains() {
		applied += len(rec.Events)
		for i := 1; i < len(rec.Events); i++ {
			if rec.Events[i].SeqFirst <= rec.Events[i-1].SeqFirst {
				t.Fatalf("chain %s out of order: %d after %d", rec.ID, rec.Events[i].SeqFirst, rec.Events[i-1].SeqFirst)
			}
		}
	}
	if got := uint64(applied) + l.Dropped(); got != producers*perProducer {
		t.Fatalf("%d applied + %d dropped = %d, want %d recorded", applied, l.Dropped(), got, producers*perProducer)
	}
}
