package sdl

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetDelete(t *testing.T) {
	s := New()
	v1 := s.Set("ns", "k", []byte("one"))
	got, ver, ok := s.Get("ns", "k")
	if !ok || string(got) != "one" || ver != v1 {
		t.Fatalf("Get = %q v%d ok=%v", got, ver, ok)
	}
	v2 := s.Set("ns", "k", []byte("two"))
	if v2 <= v1 {
		t.Errorf("version did not advance: %d -> %d", v1, v2)
	}
	if !s.Delete("ns", "k") {
		t.Error("Delete returned false for existing key")
	}
	if _, _, ok := s.Get("ns", "k"); ok {
		t.Error("key present after delete")
	}
	if s.Delete("ns", "k") {
		t.Error("Delete returned true for absent key")
	}
}

func TestNamespaceIsolation(t *testing.T) {
	s := New()
	s.Set("a", "k", []byte("va"))
	s.Set("b", "k", []byte("vb"))
	got, _, _ := s.Get("a", "k")
	if string(got) != "va" {
		t.Errorf("namespace a = %q", got)
	}
	if s.Len("a") != 1 || s.Len("b") != 1 {
		t.Error("Len per namespace wrong")
	}
}

func TestValueIsCopied(t *testing.T) {
	s := New()
	buf := []byte("mutable")
	s.Set("ns", "k", buf)
	buf[0] = 'X'
	got, _, _ := s.Get("ns", "k")
	if string(got) != "mutable" {
		t.Errorf("stored value aliased caller buffer: %q", got)
	}
}

func TestKeysAndGetAll(t *testing.T) {
	s := New()
	s.Set("ns", "ue/1", []byte("a"))
	s.Set("ns", "ue/2", []byte("b"))
	s.Set("ns", "model/ae", []byte("m"))
	keys := s.Keys("ns", "ue/")
	if !reflect.DeepEqual(keys, []string{"ue/1", "ue/2"}) {
		t.Errorf("Keys = %v", keys)
	}
	all := s.GetAll("ns", "ue/")
	if len(all) != 2 || string(all["ue/1"]) != "a" {
		t.Errorf("GetAll = %v", all)
	}
}

// TestWatchDeliversMatchingEvents: a watcher sees the writes under its
// own namespace and prefix, and only those, while a watcher on a sibling
// prefix and unrelated keys written from other goroutines (the -race
// build checks the locking as much as the counts) share the namespace.
func TestWatchDeliversMatchingEvents(t *testing.T) {
	s := New()
	events, cancel := s.Watch("ns", "ue/", 10)
	defer cancel()
	sibling, cancelSibling := s.Watch("ns", "uf/", 10)
	defer cancelSibling()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Set("ns", fmt.Sprintf("unrelated/%d/%d", g, i), []byte("u"))
			}
		}(g)
	}
	s.Set("ns", "ue/1", []byte("x"))
	s.Set("ns", "other", []byte("y"))   // prefix mismatch
	s.Set("other", "ue/1", []byte("z")) // namespace mismatch
	s.Delete("ns", "ue/1")
	s.Set("ns", "uf/1", []byte("w")) // the sibling's
	wg.Wait()

	ev1 := <-events
	if ev1.Key != "ue/1" || ev1.Deleted || string(ev1.Value) != "x" {
		t.Errorf("event 1 = %+v", ev1)
	}
	ev2 := <-events
	if !ev2.Deleted || ev2.Key != "ue/1" {
		t.Errorf("event 2 = %+v", ev2)
	}
	select {
	case ev := <-events:
		t.Errorf("unexpected extra event %+v", ev)
	default:
	}
	if ev := <-sibling; ev.Key != "uf/1" || ev.Deleted || string(ev.Value) != "w" {
		t.Errorf("sibling event = %+v", ev)
	}
	select {
	case ev := <-sibling:
		t.Errorf("sibling watcher woke for %+v", ev)
	default:
	}
}

func TestWatchCancelClosesChannel(t *testing.T) {
	s := New()
	events, cancel := s.Watch("ns", "", 1)
	cancel()
	if _, open := <-events; open {
		t.Error("channel open after cancel")
	}
	cancel() // idempotent
	s.Set("ns", "k", nil)
}

func TestWatchOverflowDrops(t *testing.T) {
	s := New()
	events, cancel := s.Watch("ns", "", 1)
	defer cancel()
	s.Set("ns", "a", []byte("1"))
	s.Set("ns", "b", []byte("2")) // dropped: buffer full
	ev := <-events
	if ev.Key != "a" {
		t.Errorf("got %q", ev.Key)
	}
	select {
	case ev := <-events:
		t.Errorf("overflow event delivered: %+v", ev)
	default:
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", i%10)
				s.Set("ns", key, []byte{byte(g)})
				s.Get("ns", key)
				s.Keys("ns", "k")
			}
		}(g)
	}
	wg.Wait()
	if s.Len("ns") != 10 {
		t.Errorf("Len = %d, want 10", s.Len("ns"))
	}
}

// Property: a Set followed by Get returns the stored value with a
// monotonically increasing version.
func TestQuickSetGet(t *testing.T) {
	s := New()
	var lastVer uint64
	f := func(key string, value []byte) bool {
		v := s.Set("ns", key, value)
		got, ver, ok := s.Get("ns", key)
		if !ok || ver != v || v <= lastVer {
			return false
		}
		lastVer = v
		return bytes.Equal(got, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	s := New()
	val := bytes.Repeat([]byte{1}, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set("ns", "key", val)
	}
}

func BenchmarkGet(b *testing.B) {
	s := New()
	s.Set("ns", "key", bytes.Repeat([]byte{1}, 128))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get("ns", "key")
	}
}

// TestConcurrentProvenanceNamespace mirrors the provenance ledger's
// access pattern on its SDL namespace: writers appending and overwriting
// zero-padded event keys plus deleting whole chains (retention), racing
// readers doing the prefix scans /prov and xsec-audit issue.
func TestConcurrentProvenanceNamespace(t *testing.T) {
	const ns = "prov/ledger"
	s := New()
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for sn := 0; sn < 20; sn++ {
				prefix := fmt.Sprintf("ev/gnb-%03d/%020d/", g, sn)
				for idx := 0; idx < 4; idx++ {
					s.Set(ns, fmt.Sprintf("%s%04d", prefix, idx), []byte(`{"kind":"window"}`))
				}
				s.Set(ns, prefix+"0000", []byte(`{"kind":"window","count":2}`)) // coalesce overwrite
				if sn%10 == 9 {
					// Retention: evict the chain persisted 10 rounds ago.
					for _, k := range s.Keys(ns, fmt.Sprintf("ev/gnb-%03d/%020d/", g, sn-9)) {
						s.Delete(ns, k)
					}
				}
			}
		}(g)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k, v := range s.GetAll(ns, "ev/") {
					if len(v) == 0 {
						t.Errorf("empty value at %s", k)
						return
					}
				}
				s.Len(ns)
			}
		}()
	}

	writers.Wait()
	close(stop)
	readers.Wait()

	// Each writer persisted 20 chains of 4 events and evicted 2 (sn 0
	// and 10, deleted when sn 9 and 19 landed).
	want := 4 * 18 * 4
	if got := s.Len(ns); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
}
