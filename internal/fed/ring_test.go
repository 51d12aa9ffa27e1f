package fed

import (
	"math"
	"testing"

	"github.com/6g-xsec/xsec/internal/sdl"
)

func TestRingOwnershipPartition(t *testing.T) {
	r := NewRing(1, []string{"ric-0", "ric-1", "ric-2", "ric-3"})

	// Every UE has exactly one owner, deterministically.
	counts := map[string]int{}
	for ue := uint64(1); ue <= 4000; ue++ {
		owner := r.Owner(ue)
		if !r.Contains(owner) {
			t.Fatalf("UE %d owned by unknown instance %q", ue, owner)
		}
		if again := r.Owner(ue); again != owner {
			t.Fatalf("UE %d owner not deterministic: %q then %q", ue, owner, again)
		}
		counts[owner]++
	}
	// With 64 vnodes the split should be roughly even; allow a wide
	// tolerance so the test pins balance, not exact hash placement.
	for inst, n := range counts {
		share := float64(n) / 4000
		if share < 0.10 || share > 0.45 {
			t.Errorf("instance %s owns %.1f%% of UEs, outside sane balance", inst, 100*share)
		}
	}

	// Owned fractions cover the circle.
	var total float64
	for _, inst := range r.Instances {
		f := r.OwnedFraction(inst)
		if f <= 0 || f >= 1 {
			t.Errorf("OwnedFraction(%s) = %v", inst, f)
		}
		total += f
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("fractions sum to %v, want 1", total)
	}
}

func TestRingRebalanceIsIncremental(t *testing.T) {
	r3 := NewRing(1, []string{"ric-0", "ric-1", "ric-2"})
	r4 := r3.WithJoined("ric-3")
	if r4.Epoch != 2 || !r4.Contains("ric-3") {
		t.Fatalf("WithJoined: epoch %d instances %v", r4.Epoch, r4.Instances)
	}

	// Consistent hashing: a join may only move UEs *to* the joiner;
	// ownership between surviving instances is undisturbed.
	moved := 0
	for ue := uint64(1); ue <= 2000; ue++ {
		before, after := r3.Owner(ue), r4.Owner(ue)
		if before != after {
			moved++
			if after != "ric-3" {
				t.Fatalf("UE %d moved %s→%s on join of ric-3", ue, before, after)
			}
		}
	}
	if moved == 0 {
		t.Error("join moved no UEs to the new instance")
	}
	if moved > 1000 {
		t.Errorf("join moved %d/2000 UEs, want roughly 1/4", moved)
	}

	// And a leave only moves the leaver's UEs.
	r4b := r4.WithLeft("ric-3")
	for ue := uint64(1); ue <= 2000; ue++ {
		if r4.Owner(ue) != "ric-3" && r4b.Owner(ue) != r4.Owner(ue) {
			t.Fatalf("UE %d moved between survivors on leave", ue)
		}
	}
}

// TestRingPublishRoundtrip reads back the ring a coordinator stores in
// its SDL when it publishes an epoch.
func TestRingPublishRoundtrip(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	store := sdl.New()
	r, err := NewCoordinator(store, b).SetInstances([]string{"ric-a", "ric-b"})
	if err != nil {
		t.Fatal(err)
	}
	raw, _, ok := store.Get(RingNamespace, RingKey)
	if !ok {
		t.Fatal("the coordinator stored no ring")
	}
	got, err := ParseRing(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 1 || len(got.Instances) != 2 || len(got.tokens) != 2*DefaultVnodes {
		t.Fatalf("roundtrip = %+v", got)
	}
	for ue := uint64(1); ue <= 100; ue++ {
		if got.Owner(ue) != r.Owner(ue) {
			t.Fatalf("UE %d owner differs after roundtrip", ue)
		}
	}
	if _, err := ParseRing([]byte("not json")); err == nil {
		t.Error("ParseRing accepted garbage")
	}
}

// TestParseRingIgnoresPeerVnodes pins that a published ring cannot choose
// how many tokens every instance builds: any bus client may publish on
// the ring topic, and this 47-byte payload once cost a second and a
// million tokens per instance.
func TestParseRingIgnoresPeerVnodes(t *testing.T) {
	r, err := ParseRing([]byte(`{"epoch":0,"vnodes":1048576,"instances":["x"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.tokens) != DefaultVnodes {
		t.Fatalf("one-instance ring built %d tokens, want %d", len(r.tokens), DefaultVnodes)
	}
}

// FuzzParseRing feeds ParseRing arbitrary payloads: it must not panic,
// and a ring it accepts has DefaultVnodes tokens per listed instance and
// an owner for every UE when it lists any.
func FuzzParseRing(f *testing.F) {
	for _, r := range []*Ring{NewRing(3, []string{"ric-0", "ric-1"}), NewRing(0, nil)} {
		data, err := r.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"epoch":0,"vnodes":1048576,"instances":["x"]}`))
	f.Add([]byte(`{"epoch":-1,"instances":["x","x",""]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseRing(data)
		if err != nil {
			return
		}
		if len(r.tokens) != DefaultVnodes*len(r.Instances) {
			t.Fatalf("%d tokens over %d instances, want %d each", len(r.tokens), len(r.Instances), DefaultVnodes)
		}
		if len(r.Instances) > 0 && !r.Contains(r.Owner(42)) {
			t.Fatalf("UE 42 owned by %q, not a member of %q", r.Owner(42), r.Instances)
		}
	})
}
