package sdl

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestOwnershipTransferWatchSemantics is the regression guard for the
// federation rebalancing protocol: when a UE key migrates between
// instances, the new owner's prefix watch must see exactly one event for
// it and the old owner's watch none. The protocol relies on two store
// semantics pinned here: (1) writing under the new owner's prefix
// notifies only watchers of that prefix, and (2) TTL expiry of the old
// owner's key is silent — expired entries vanish from reads without a
// watch event, so the old instance is never re-woken for state it
// handed off.
func TestOwnershipTransferWatchSemantics(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	s := newStore(DefaultShards, clock)
	const ns = "fed/ue"

	oldEvents, cancelOld := s.Watch(ns, "owner/inst-a/", 64)
	defer cancelOld()
	newEvents, cancelNew := s.Watch(ns, "owner/inst-b/", 64)
	defer cancelNew()

	// The old instance owns the UE, with a TTL lease it refreshes while
	// the UE is local.
	s.SetOwnedTTL(ns, "owner/inst-a/ue/42", []byte("inst-a"), time.Second)
	drain := func(c <-chan Event) []Event {
		var out []Event
		for {
			select {
			case ev := <-c:
				out = append(out, ev)
			default:
				return out
			}
		}
	}
	if got := drain(oldEvents); len(got) != 1 {
		t.Fatalf("old-owner lease write: %d events, want 1", len(got))
	}
	if got := drain(newEvents); len(got) != 0 {
		t.Fatalf("new-owner watch saw the old owner's lease: %v", got)
	}

	// Migration: the new owner claims the UE under its own prefix while
	// unrelated keys churn on both prefixes' namespace from other
	// goroutines (the -race build checks the locking as much as the
	// counts do).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Set(ns, fmt.Sprintf("unrelated/%d/%d", g, i), []byte("x"))
			}
		}(g)
	}
	s.SetOwnedTTL(ns, "owner/inst-b/ue/42", []byte("inst-b"), time.Second)
	wg.Wait()

	newGot := drain(newEvents)
	if len(newGot) != 1 || newGot[0].Key != "owner/inst-b/ue/42" {
		t.Fatalf("new-owner watch = %v, want exactly the claim event", newGot)
	}

	// The old owner's lease lapses (it stopped refreshing on ownership
	// loss). Expiry is silent: reads stop returning the key, but no
	// watch event fires on the old prefix.
	advance(2 * time.Second)
	if _, _, ok := s.Get(ns, "owner/inst-a/ue/42"); ok {
		t.Fatal("old owner's lease still readable after expiry")
	}
	if _, _, ok := s.Get(ns, "owner/inst-b/ue/42"); ok {
		t.Fatal("new owner's lease should also have lapsed without refresh")
	}
	// Even an explicit cleanup delete of the expired key must stay
	// silent — the entry was already dead.
	s.Delete(ns, "owner/inst-a/ue/42")
	if got := drain(oldEvents); len(got) != 0 {
		t.Fatalf("old-owner watch woke after handoff: %v", got)
	}

	// The new owner refreshes its claim: one more event on its watch,
	// still nothing on the old one.
	s.SetOwnedTTL(ns, "owner/inst-b/ue/42", []byte("inst-b"), time.Second)
	if got := drain(newEvents); len(got) != 1 {
		t.Fatalf("new-owner refresh: %d events, want 1", len(got))
	}
	if got := drain(oldEvents); len(got) != 0 {
		t.Fatalf("old-owner watch saw the new owner's refresh: %v", got)
	}
}
