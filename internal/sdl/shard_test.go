package sdl

import (
	"fmt"
	"sync"
	"testing"
)

func TestShardsRoundUpToPowerOfTwo(t *testing.T) {
	if got := len(New().shards); got != DefaultShards {
		t.Errorf("New() has %d shards, want %d", got, DefaultShards)
	}
	for _, tc := range []struct{ ask, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		s := newStore(tc.ask)
		if got := len(s.shards); got != tc.want {
			t.Errorf("shards=%d -> %d shards, want %d", tc.ask, got, tc.want)
		}
	}
}

// TestUnshardedOptionBehaves proves the one-stripe layout is
// semantically identical to the striped store.
func TestUnshardedOptionBehaves(t *testing.T) {
	s := newStore(1)
	events, cancel := s.Watch("ns", "", 4)
	defer cancel()
	v1 := s.Set("ns", "a", []byte("1"))
	v2 := s.Set("ns", "b", []byte("2"))
	if v2 <= v1 {
		t.Errorf("versions not monotonic: %d then %d", v1, v2)
	}
	if ev := <-events; ev.Key != "a" || ev.Version != v1 {
		t.Errorf("event 1 = %+v", ev)
	}
	if ev := <-events; ev.Key != "b" || ev.Version != v2 {
		t.Errorf("event 2 = %+v", ev)
	}
}

// TestWatchOrderingAcrossShards spreads keys of one namespace over every
// shard, mutates them from concurrent writers, and asserts the delivered
// events are (a) complete per key, (b) version-ordered per key — the
// per-shard delivery guarantee — and (c) carry globally unique versions.
func TestWatchOrderingAcrossShards(t *testing.T) {
	s := newStore(8)
	const keys, writes = 32, 50
	events, cancel := s.Watch("ns", "", keys*writes+16)
	defer cancel()

	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			key := fmt.Sprintf("key/%03d", k)
			for i := 0; i < writes; i++ {
				s.Set("ns", key, []byte{byte(i)})
			}
		}(k)
	}
	wg.Wait()

	lastPerKey := make(map[string]uint64)
	seen := make(map[uint64]bool)
	count := 0
drain:
	for {
		select {
		case ev := <-events:
			count++
			if seen[ev.Version] {
				t.Fatalf("version %d delivered twice", ev.Version)
			}
			seen[ev.Version] = true
			if ev.Version <= lastPerKey[ev.Key] {
				t.Fatalf("key %s: version %d after %d", ev.Key, ev.Version, lastPerKey[ev.Key])
			}
			lastPerKey[ev.Key] = ev.Version
		default:
			break drain
		}
	}
	if count != keys*writes {
		t.Fatalf("delivered %d events, want %d (buffer was large enough)", count, keys*writes)
	}
	if len(lastPerKey) != keys {
		t.Fatalf("saw %d distinct keys, want %d", len(lastPerKey), keys)
	}
}

// TestWatchCancelRacesMutations drives cancel concurrently with writers:
// no send-on-closed-channel panic, no deadlock (the per-shard
// deregistration must fully exclude in-flight deliveries).
func TestWatchCancelRacesMutations(t *testing.T) {
	s := newStore(4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Set("ns", fmt.Sprintf("k%d", i%64), []byte("v"))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		events, cancel := s.Watch("ns", "", 1)
		go func() { // concurrent consumer, may or may not keep up
			for range events {
			}
		}()
		cancel()
	}
	close(stop)
	wg.Wait()
}

func TestSetOwnedDoesNotCopy(t *testing.T) {
	s := New()
	buf := []byte("owned")
	s.SetOwned("ns", "k", buf)
	got, _, ok := s.Get("ns", "k")
	if !ok || &got[0] != &buf[0] {
		t.Error("SetOwned copied the value (or lost it)")
	}
}

// TestCrossShardContention hammers distinct namespaces from parallel
// writers; with striping they proceed mostly independently, and the test
// (under -race) proves the per-shard state carries no hidden sharing.
func TestCrossShardContention(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ns := fmt.Sprintf("ns-%d", g)
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%03d", i%25)
				s.Set(ns, key, []byte{byte(i)})
				s.Get(ns, key)
				if i%50 == 49 {
					s.Keys(ns, "k")
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if got := s.Len(fmt.Sprintf("ns-%d", g)); got != 25 {
			t.Errorf("ns-%d Len = %d, want 25", g, got)
		}
	}
}

func BenchmarkSetParallelSharded(b *testing.B) {
	benchSetParallel(b, DefaultShards)
}

func BenchmarkSetParallelUnsharded(b *testing.B) {
	benchSetParallel(b, 1)
}

func benchSetParallel(b *testing.B, shards int) {
	s := newStore(shards)
	val := make([]byte, 128)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Set("ns", fmt.Sprintf("k%04d", i%512), val)
			i++
		}
	})
}
