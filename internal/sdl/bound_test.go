package sdl

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/6g-xsec/xsec/internal/obs"
)

// TestBoundHoldsUnderConcurrentWriters runs eight writers of distinct keys
// against one bounded namespace while the test samples it: the namespace
// is never charged more than its bound, and once the writers are done
// every insert is either live or counted as evicted — by the store and by
// the three series. A second, unbounded namespace written alongside keeps
// everything.
func TestBoundHoldsUnderConcurrentWriters(t *testing.T) {
	const (
		ns      = "bound-test/concurrent" // private label values: the series are process-wide
		fit     = 512                     // entries the bound holds: 32 per stripe
		writers = 8
		each    = 4000
	)
	per := charge("w0/000000", []byte("w0/000000")) // every key and value is this long
	maxBytes := int(per) * fit
	s := New()
	s.Bound(ns, maxBytes)
	// The series are process-wide and outlive a store, so under -count
	// they carry earlier runs: compare what this run added.
	evicted0, keys0, bytes0 := obsEvicted.With(ns).Value(), obsKeys.With(ns).Value(), obsBytes.With(ns).Value()

	var wg sync.WaitGroup
	var running atomic.Int32
	running.Store(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer running.Add(-1)
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d/%06d", w, i)
				s.Set(ns, key, []byte(key))
				if i%8 == 0 {
					s.Set("unbounded", key, []byte(key))
				}
			}
		}(w)
	}
	samples := 0
	for running.Load() > 0 {
		if n := s.Bytes(ns); n > int64(maxBytes) {
			t.Fatalf("sample %d: %d bytes charged to a namespace bounded to %d", samples, n, maxBytes)
		}
		samples++
	}
	wg.Wait()

	live, evicted, bytes := s.Len(ns), s.Evicted(ns), s.Bytes(ns)
	if live != fit || bytes != int64(live)*per {
		t.Errorf("%d keys live, charged %d B, after %d inserts; want %d keys, the bound's %d B", live, bytes, writers*each, fit, maxBytes)
	}
	if uint64(live)+evicted != writers*each {
		t.Errorf("inserted %d ≠ live %d + evicted %d", writers*each, live, evicted)
	}
	if got := s.Len("unbounded"); got != writers*each/8 || s.Evicted("unbounded") != 0 || s.Bytes("unbounded") != 0 {
		t.Errorf("unbounded namespace on the same store holds %d of %d keys (%d evicted, %d B charged)",
			got, writers*each/8, s.Evicted("unbounded"), s.Bytes("unbounded"))
	}

	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("xsec_sdl_evicted_total{namespace=%q} %d\n", ns, evicted0+evicted),
		fmt.Sprintf("xsec_sdl_keys{namespace=%q} %d\n", ns, int(keys0)+live),
		fmt.Sprintf("xsec_sdl_bytes{namespace=%q} %d\n", ns, int64(bytes0)+bytes),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(sb.String(), `namespace="unbounded"`) {
		t.Error("an unbounded namespace has an xsec_sdl series")
	}
}

// small is the charge of a one-byte key holding a one-byte value, the unit
// the single-stripe tests bound their namespaces in.
var small = charge("a", []byte("1"))

// oneStripe is a store whose bounded namespace is a single ring of n small
// entries' worth, so a test can say which key is the oldest.
func oneStripe(ns string, n int) *Store {
	s := newStore(1)
	s.Bound(ns, n*int(small))
	return s
}

func has(s *Store, ns, key string) bool {
	_, _, ok := s.Get(ns, key)
	return ok
}

// TestBoundOverwriteKeepsSlot: rewriting a key neither takes a second place
// in the ring nor makes the key any younger.
func TestBoundOverwriteKeepsSlot(t *testing.T) {
	s := oneStripe("ns", 4)
	for _, k := range []string{"a", "b", "c", "d"} {
		s.Set("ns", k, []byte("1"))
	}
	for i := 0; i < 100; i++ {
		s.Set("ns", "a", []byte{byte(i)})
	}
	if s.Len("ns") != 4 || s.Evicted("ns") != 0 || s.Bytes("ns") != 4*small {
		t.Fatalf("after 100 overwrites: %d keys, %d evicted, %d B; want 4, 0, %d", s.Len("ns"), s.Evicted("ns"), s.Bytes("ns"), 4*small)
	}
	s.Set("ns", "e", []byte("1"))
	if has(s, "ns", "a") || !has(s, "ns", "b") || !has(s, "ns", "e") {
		t.Errorf("keys after the fifth insert = %v, want a (the oldest insert) gone", s.Keys("ns", ""))
	}
}

// TestBoundOverwriteResizes: an overwrite releases the old value's charge
// and takes the new one's. A larger value evicts the oldest other keys, a
// smaller one leaves room, and one larger than the whole share is kept
// alone — the key being written is never evicted to make room for itself,
// even when it is the oldest.
func TestBoundOverwriteResizes(t *testing.T) {
	s := oneStripe("ns", 4)
	for _, k := range []string{"a", "b", "c", "d"} {
		s.Set("ns", k, []byte("1"))
	}
	grown := make([]byte, 1+small) // one small entry more
	s.Set("ns", "c", grown)
	if got := strings.Join(s.Keys("ns", ""), ""); got != "bcd" || s.Evicted("ns") != 1 || s.Bytes("ns") != 3*small+int64(len(grown)-1) {
		t.Errorf("after c grew by one entry: keys %q, %d evicted, %d B; want bcd, 1 (a), %d", got, s.Evicted("ns"), s.Bytes("ns"), 3*small+int64(len(grown)-1))
	}
	s.Set("ns", "c", []byte("1"))
	s.Set("ns", "e", []byte("1"))
	if got := strings.Join(s.Keys("ns", ""), ""); got != "bcde" || s.Evicted("ns") != 1 || s.Bytes("ns") != 4*small {
		t.Errorf("after c shrank back and e was inserted: keys %q, %d evicted, %d B; want bcde, 1, %d", got, s.Evicted("ns"), s.Bytes("ns"), 4*small)
	}
	huge := make([]byte, 10*small)
	s.Set("ns", "b", huge) // b is the oldest
	if got := strings.Join(s.Keys("ns", ""), ""); got != "b" || s.Evicted("ns") != 4 || s.Bytes("ns") != charge("b", huge) {
		t.Errorf("after b outgrew the share: keys %q, %d evicted, %d B; want b alone, 4, %d", got, s.Evicted("ns"), s.Bytes("ns"), charge("b", huge))
	}
	s.Set("ns", "f", []byte("1"))
	if got := strings.Join(s.Keys("ns", ""), ""); got != "f" || s.Evicted("ns") != 5 || s.Bytes("ns") != small {
		t.Errorf("the write after: keys %q, %d evicted, %d B; want f, 5, %d", got, s.Evicted("ns"), s.Bytes("ns"), small)
	}
}

// TestBoundOversizedEntryIsKeptAlone: an entry larger than its stripe's
// share is neither refused nor chased round the ring: it evicts everything
// older, is kept, and is the next insert's to evict.
func TestBoundOversizedEntryIsKeptAlone(t *testing.T) {
	s := oneStripe("ns", 4)
	for _, k := range []string{"a", "b", "c"} {
		s.Set("ns", k, []byte("1"))
	}
	big := make([]byte, 5*small)
	s.Set("ns", "x", big)
	if got := strings.Join(s.Keys("ns", ""), ""); got != "x" || s.Evicted("ns") != 3 || s.Bytes("ns") != charge("x", big) {
		t.Errorf("after an oversized insert: keys %q, %d evicted, %d B; want x alone, 3, %d", got, s.Evicted("ns"), s.Bytes("ns"), charge("x", big))
	}
	s.Set("ns", "y", big)
	if got := strings.Join(s.Keys("ns", ""), ""); got != "y" || s.Evicted("ns") != 4 {
		t.Errorf("after a second one: keys %q, %d evicted; want y alone, 4", got, s.Evicted("ns"))
	}
	s.Set("ns", "d", []byte("1"))
	s.Set("ns", "e", []byte("1"))
	if got := strings.Join(s.Keys("ns", ""), ""); got != "de" || s.Evicted("ns") != 5 || s.Bytes("ns") != 2*small {
		t.Errorf("small inserts after: keys %q, %d evicted, %d B; want de, 5, %d", got, s.Evicted("ns"), s.Bytes("ns"), 2*small)
	}
}

// TestBoundStaleSlotSparesReinsert deletes a key and inserts it again
// under a later claim: Delete gives its bytes back at once, and when the
// ring comes round to the claim the first insert left behind, the key must
// survive it.
func TestBoundStaleSlotSparesReinsert(t *testing.T) {
	s := oneStripe("ns", 4)
	for _, k := range []string{"a", "b", "c", "d"} {
		s.Set("ns", k, []byte("1"))
	}
	s.Delete("ns", "c") // the claim after b still names c
	if s.Bytes("ns") != 3*small {
		t.Errorf("Delete left %d B charged, want %d", s.Bytes("ns"), 3*small)
	}
	s.Set("ns", "e", []byte("1")) // fits in what c gave back
	s.Set("ns", "c", []byte("1")) // evicts a
	if got := strings.Join(s.Keys("ns", ""), ""); got != "bcde" || s.Evicted("ns") != 1 || s.Bytes("ns") != 4*small {
		t.Errorf("keys = %q, %d evicted, %d B; want bcde, 1 (a), %d", got, s.Evicted("ns"), s.Bytes("ns"), 4*small)
	}
	s.Set("ns", "f", []byte("1")) // evicts b
	s.Set("ns", "g", []byte("1")) // c's first claim: c lives under its second now, so d goes
	if got := strings.Join(s.Keys("ns", ""), ""); got != "cefg" || s.Evicted("ns") != 3 {
		t.Errorf("keys = %q, %d evicted; want cefg and 3 (a, b, d)", got, s.Evicted("ns"))
	}
	s.Set("ns", "h", []byte("1")) // e
	s.Set("ns", "i", []byte("1")) // c, for real this time
	if has(s, "ns", "c") || s.Len("ns") != 4 || s.Evicted("ns") != 5 || s.Bytes("ns") != 4*small {
		t.Errorf("after a full turn: keys %v, %d evicted, %d B; want fghi, 5, %d", s.Keys("ns", ""), s.Evicted("ns"), s.Bytes("ns"), 4*small)
	}
}

// TestBoundDeletesDoNotQueueClaims: a namespace that deletes what it writes
// never reaches its bound, so nothing is evicted, but the claims its
// deleted keys leave behind are dropped rather than queued per write —
// while every live key keeps its own, so that once writes outrun the bound
// the oldest are the first to go.
func TestBoundDeletesDoNotQueueClaims(t *testing.T) {
	s := oneStripe("ns", 1000)
	r, m := s.shards[0].rings["ns"], func() map[string]entry { return s.shards[0].ns["ns"] }
	for i := 0; i < 10; i++ {
		s.Set("ns", fmt.Sprintf("old/%d", i), []byte("1"))
	}
	for i := 0; i < 100_000; i++ {
		k := strconv.Itoa(i)
		s.Set("ns", k, []byte("1"))
		held := 0
		for _, cl := range r.claims[r.head:] {
			if r.holds(m(), cl) {
				held++
			}
		}
		if held != r.live || r.live != len(m()) || len(r.claims)-r.head > 2*r.live+33 {
			t.Fatalf("write %d: %d live entries, %d charged, %d of them claimed, %d claims queued", i, len(m()), r.live, held, len(r.claims)-r.head)
		}
		s.Delete("ns", k)
	}
	if s.Len("ns") != 10 || s.Evicted("ns") != 0 {
		t.Errorf("%d keys, %d evicted; want the 10 old ones and 0", s.Len("ns"), s.Evicted("ns"))
	}
	for i := 0; i < 2000; i++ {
		s.Set("ns", fmt.Sprintf("new/%d", i), []byte("1"))
	}
	for _, k := range s.Keys("ns", "old/") {
		t.Errorf("key %s outlived 2000 newer writes into a bound of 1000", k)
	}
	if s.Bytes("ns") > 1000*small || uint64(s.Len("ns"))+s.Evicted("ns") != 2010 {
		t.Errorf("%d B charged, %d keys + %d evicted; want at most %d B and 2010 keys in all", s.Bytes("ns"), s.Len("ns"), s.Evicted("ns"), 1000*small)
	}
}

// TestBoundEvictionReachesWatchersAndReaders fills a bounded namespace
// three times over. A watcher gets one Deleted event per eviction, before
// the Set that displaced it and in version order (one stripe orders all
// events; sixteen order them per stripe, which shows as per key), and no
// reader returns an evicted key.
func TestBoundEvictionReachesWatchersAndReaders(t *testing.T) {
	for _, shards := range []int{1, 16} {
		const maxKeys = 64
		s := newStore(shards)
		s.Bound("ns", maxKeys*int(charge("k/0000", []byte("v"))))
		events, cancel := s.Watch("ns", "", 8*maxKeys)
		for i := 0; i < 3*maxKeys; i++ {
			s.Set("ns", fmt.Sprintf("k/%04d", i), []byte("v"))
		}
		cancel()

		gone := map[string]bool{}
		lastOfKey := map[string]uint64{}
		var last uint64
		for ev := range events {
			if shards == 1 && ev.Version <= last {
				t.Fatalf("shards=1: event version %d after %d", ev.Version, last)
			}
			if ev.Version <= lastOfKey[ev.Key] {
				t.Fatalf("shards=%d: key %s saw version %d after %d", shards, ev.Key, ev.Version, lastOfKey[ev.Key])
			}
			last, lastOfKey[ev.Key] = ev.Version, ev.Version
			if !ev.Deleted {
				continue
			}
			if gone[ev.Key] || ev.Value != nil {
				t.Fatalf("shards=%d: eviction event %+v repeats or carries a value", shards, ev)
			}
			gone[ev.Key] = true
		}
		if uint64(len(gone)) != s.Evicted("ns") || len(gone) < 2*maxKeys {
			t.Errorf("shards=%d: %d Deleted events, %d evictions counted, at least %d expected",
				shards, len(gone), s.Evicted("ns"), 2*maxKeys)
		}

		keys, all := s.Keys("ns", "k/"), s.GetAll("ns", "k/")
		if len(keys) != s.Len("ns") || len(all) != len(keys) || len(keys) > maxKeys {
			t.Errorf("shards=%d: Keys %d, GetAll %d, Len %d, bound %d", shards, len(keys), len(all), s.Len("ns"), maxKeys)
		}
		for _, k := range keys {
			if gone[k] {
				t.Errorf("shards=%d: Keys returns evicted key %s", shards, k)
			}
			if _, ok := all[k]; !ok || !has(s, "ns", k) {
				t.Errorf("shards=%d: key %s listed but not readable", shards, k)
			}
		}
		if newest := fmt.Sprintf("k/%04d", 3*maxKeys-1); !has(s, "ns", newest) {
			t.Errorf("shards=%d: newest key %s is not readable", shards, newest)
		}
	}
}

// TestBoundDeclaration: repeating a declaration is a no-op; changing it,
// making it late, or making it smaller than one empty entry per stripe is
// refused.
func TestBoundDeclaration(t *testing.T) {
	s := New()
	s.Bound("ns", 1<<16)
	s.Set("ns", "k", []byte("v"))
	s.Bound("ns", 1<<16) // a second colocated writer
	if !has(s, "ns", "k") {
		t.Error("repeating Bound disturbed the namespace")
	}
	s.Set("late", "k", []byte("v"))
	for name, declare := range map[string]func(){
		"a different bound":                func() { s.Bound("ns", 1<<17) },
		"a bound after first write":        func() { s.Bound("late", 1<<16) },
		"under one empty entry per stripe": func() { s.Bound("small", len(s.shards)*entryOverhead-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bound accepted %s", name)
				}
			}()
			declare()
		}()
	}
	// A refused declaration leaves the store usable.
	s.Set("ns", "k2", []byte("v"))
	if s.Len("ns") != 2 || s.Bytes("ns") != charge("k", []byte("v"))+charge("k2", []byte("v")) {
		t.Errorf("Len = %d, %d B after refused declarations, want 2 keys", s.Len("ns"), s.Bytes("ns"))
	}
	if s.Bytes("late") != 0 {
		t.Error("a refused declaration charged its namespace")
	}
}

// TestEntryOverheadIsMeasured holds entryOverhead to the live heap a
// bounded namespace's entries actually cost beyond their key and value
// bytes, averaged over namespace sizes that catch the map at different
// loads: a charge far from the heap would make the byte bound a fiction.
// Map layout is the runtime's, so the figures are the toolchain's that
// go.mod pins (go1.24.0, swiss tables: ≈ 141, 159 and 142 B on amd64);
// a toolchain change re-measures the constant.
func TestEntryOverheadIsMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("measures the live heap")
	}
	val := make([]byte, 700) // a nine-record telemetry batch
	var sum float64
	sizes := []int{3000, 20_000, 45_000}
	for _, n := range sizes {
		s := newStore(16)
		s.Bound("ns", 1<<40)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		key := []byte("gnb-001/")
		for i := 0; i < n; i++ {
			s.Set("ns", string(strconv.AppendUint(key[:8], 1e19+uint64(i), 10)), val)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(n) - float64(len(key)+20+len(val))
		t.Logf("%6d entries: %.0f B of live heap per entry beyond key and value (%s)", n, per, runtime.Version())
		sum += per
		runtime.KeepAlive(s)
	}
	if mean := sum / float64(len(sizes)); mean < 0.7*entryOverhead || mean > 1.3*entryOverhead {
		t.Errorf("entries cost %.0f B beyond key and value, the bound charges %d", mean, entryOverhead)
	}
}

// BenchmarkBoundedSet is a bounded namespace's steady state, the
// telemetry persist's: every write admits a key the namespace has not
// seen and evicts the oldest to make room. The value is stored as it is
// (SetOwned), so what is timed and counted is the admission: the claim
// queue, one lookup per claim, and the eviction's delete.
func BenchmarkBoundedSet(b *testing.B) {
	const ns = "bound-bench/evict"
	s := New()
	s.Bound(ns, 1<<20)
	value := make([]byte, 256)
	keys := make([]string, 1<<16) // ≈ 27 × the ≈ 2 400 entries the bound holds
	for i := range keys {
		keys[i] = fmt.Sprintf("gnb-bench/%020d", i)
	}
	i := 0
	for ; i < len(keys)/2; i++ { // every stripe full and evicting
		s.SetOwned(ns, keys[i], value)
	}
	before := s.Evicted(ns)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.SetOwned(ns, keys[(i+n)%len(keys)], value)
	}
	b.StopTimer()
	if evicted := s.Evicted(ns) - before; evicted < uint64(b.N) {
		b.Fatalf("%d writes evicted %d keys, want one each at least", b.N, evicted)
	}
}
