package sdl

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/6g-xsec/xsec/internal/obs"
)

// TestBoundHoldsUnderConcurrentWriters runs eight writers of distinct keys
// against one bounded namespace while the test samples it: the namespace
// never holds more than its bound, and once the writers are done every
// insert is either live or counted as evicted — by the store and by the
// two series. A second, unbounded namespace written alongside keeps
// everything.
func TestBoundHoldsUnderConcurrentWriters(t *testing.T) {
	const (
		ns      = "bound-test/concurrent" // private label values: the series are process-wide
		maxKeys = 512
		writers = 8
		each    = 4000
	)
	s := New()
	s.Bound(ns, maxKeys)
	// The series are process-wide and outlive a store, so under -count
	// they carry earlier runs: compare what this run added.
	evicted0, keys0 := obsEvicted.With(ns).Value(), obsKeys.With(ns).Value()

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
		if n := s.Len(ns); n > maxKeys {
			t.Fatalf("sample %d: %d keys in a namespace bounded to %d", samples, n, maxKeys)
		}
		samples++
	}
	wg.Wait()

	live, evicted := s.Len(ns), s.Evicted(ns)
	if live != maxKeys {
		t.Errorf("%d keys live after %d inserts, want the bound %d", live, writers*each, maxKeys)
	}
	if uint64(live)+evicted != writers*each {
		t.Errorf("inserted %d ≠ live %d + evicted %d", writers*each, live, evicted)
	}
	if got := s.Len("unbounded"); got != writers*each/8 || s.Evicted("unbounded") != 0 {
		t.Errorf("unbounded namespace on the same store holds %d of %d keys (%d evicted)",
			got, writers*each/8, s.Evicted("unbounded"))
	}

	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("xsec_sdl_evicted_total{namespace=%q} %d\n", ns, evicted0+evicted),
		fmt.Sprintf("xsec_sdl_keys{namespace=%q} %d\n", ns, int(keys0)+live),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(sb.String(), `namespace="unbounded"`) {
		t.Error("an unbounded namespace has an xsec_sdl series")
	}
}

// oneStripe is a store whose bounded namespace is a single ring of max
// slots, so a test can say which key is the oldest.
func oneStripe(ns string, max int) *Store {
	s := NewWithOptions(Options{Shards: 1})
	s.Bound(ns, max)
	return s
}

func has(s *Store, ns, key string) bool {
	_, _, ok := s.Get(ns, key)
	return ok
}

// TestBoundOverwriteKeepsSlot: rewriting a key neither takes a second slot
// nor makes the key any younger.
func TestBoundOverwriteKeepsSlot(t *testing.T) {
	s := oneStripe("ns", 4)
	for _, k := range []string{"a", "b", "c", "d"} {
		s.Set("ns", k, []byte("1"))
	}
	for i := 0; i < 100; i++ {
		s.Set("ns", "a", []byte{byte(i)})
	}
	if s.Len("ns") != 4 || s.Evicted("ns") != 0 {
		t.Fatalf("after 100 overwrites: %d keys, %d evicted; want 4 and 0", s.Len("ns"), s.Evicted("ns"))
	}
	s.Set("ns", "e", []byte("1"))
	if has(s, "ns", "a") || !has(s, "ns", "b") || !has(s, "ns", "e") {
		t.Errorf("keys after the fifth insert = %v, want a (the oldest insert) gone", s.Keys("ns", ""))
	}
}

// TestBoundStaleSlotSparesReinsert deletes a key and inserts it again
// under a later slot: when the ring comes round to the slot the first
// insert left behind, the key must survive it.
func TestBoundStaleSlotSparesReinsert(t *testing.T) {
	s := oneStripe("ns", 4)
	for _, k := range []string{"a", "b", "c", "d"} {
		s.Set("ns", k, []byte("1"))
	}
	s.Delete("ns", "c")        // slot 2 still names c
	s.Set("ns", "e", []byte{}) // takes slot 0 from a
	s.Set("ns", "c", []byte{}) // takes slot 1 from b
	s.Set("ns", "f", []byte{}) // slot 2: names c, but c lives in slot 1 now
	if got := strings.Join(s.Keys("ns", ""), ""); got != "cdef" {
		t.Errorf("keys = %q, want cdef", got)
	}
	if s.Evicted("ns") != 2 {
		t.Errorf("evicted = %d, want 2 (a and b)", s.Evicted("ns"))
	}
	s.Set("ns", "g", []byte{}) // slot 3: d
	s.Set("ns", "h", []byte{}) // slot 0: e
	s.Set("ns", "i", []byte{}) // slot 1: c, for real this time
	if has(s, "ns", "c") || s.Len("ns") != 4 || s.Evicted("ns") != 5 {
		t.Errorf("after a full turn: keys %v, %d evicted; want fghi and 5", s.Keys("ns", ""), s.Evicted("ns"))
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
		s := NewWithOptions(Options{Shards: shards})
		s.Bound("ns", maxKeys)
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
// making it late, or making it smaller than the stripes is refused.
func TestBoundDeclaration(t *testing.T) {
	s := New()
	s.Bound("ns", 64)
	s.Set("ns", "k", []byte("v"))
	s.Bound("ns", 64) // a second colocated writer
	if !has(s, "ns", "k") {
		t.Error("repeating Bound disturbed the namespace")
	}
	s.Set("late", "k", []byte("v"))
	for name, declare := range map[string]func(){
		"a different bound":         func() { s.Bound("ns", 128) },
		"a bound after first write": func() { s.Bound("late", 64) },
		"under one key per stripe":  func() { s.Bound("small", s.ShardCount()-1) },
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
	if s.Len("ns") != 2 {
		t.Errorf("Len = %d after refused declarations, want 2", s.Len("ns"))
	}
}
