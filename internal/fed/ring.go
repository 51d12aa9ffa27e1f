package fed

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// SDL layout. The ring is published under RingNamespace/RingKey by the
// coordinator; per-UE ownership leases live under OwnerNamespace with
// keys "owner/<instance>/<ue>", so an instance watches its own prefix
// and TTL expiry silently retires the previous owner's lease (see
// internal/sdl's ownership-transfer semantics).
const (
	RingNamespace  = "fed/ring"
	RingKey        = "current"
	OwnerNamespace = "fed/ue"

	// DefaultVnodes is the virtual-node count of every instance. 64
	// tokens per instance keeps the owned fractions within a few percent
	// of even for small federations. It is not part of the published
	// ring: a payload from the bus cannot choose how many tokens every
	// instance builds.
	DefaultVnodes = 64
)

// Ring is one epoch of the consistent-hash ownership map: every UE ID
// hashes to a point on a 64-bit circle, and the instance owning the
// first virtual-node token at or after that point owns the UE. Epochs
// are totally ordered; instances ignore any ring older than the one
// they already applied.
type Ring struct {
	Epoch     int      `json:"epoch"`
	Instances []string `json:"instances"`

	tokens []ringToken
}

type ringToken struct {
	point    uint64
	instance string
}

// NewRing builds a ring over instances (order-insensitive; the token
// positions depend only on instance IDs).
func NewRing(epoch int, instances []string) *Ring {
	r := &Ring{Epoch: epoch, Instances: append([]string(nil), instances...)}
	sort.Strings(r.Instances)
	r.build()
	return r
}

func (r *Ring) build() {
	r.tokens = r.tokens[:0]
	for _, inst := range r.Instances {
		for v := 0; v < DefaultVnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", inst, v)
			// Finalize through the avalanche mixer: FNV sums of strings
			// differing only in the vnode suffix are themselves adjacent,
			// which would cluster an instance's tokens on one arc.
			r.tokens = append(r.tokens, ringToken{point: mix64(h.Sum64()), instance: inst})
		}
	}
	sort.Slice(r.tokens, func(i, j int) bool {
		if r.tokens[i].point != r.tokens[j].point {
			return r.tokens[i].point < r.tokens[j].point
		}
		return r.tokens[i].instance < r.tokens[j].instance
	})
}

// mix64 is the splitmix64 finalizer: full avalanche, so adjacent inputs
// land on unrelated circle points.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashUE places a UE ID on the circle. Testbed UE IDs are small
// sequential integers, so they need the mixer's avalanche to spread
// across the token space.
func hashUE(ue uint64) uint64 {
	return mix64(ue + 0x9e3779b97f4a7c15)
}

// Owner returns the instance owning ue, or "" for an empty ring.
func (r *Ring) Owner(ue uint64) string {
	if len(r.tokens) == 0 {
		return ""
	}
	p := hashUE(ue)
	i := sort.Search(len(r.tokens), func(i int) bool { return r.tokens[i].point >= p })
	if i == len(r.tokens) {
		i = 0 // wrap past the highest token to the lowest
	}
	return r.tokens[i].instance
}

// Contains reports whether instance participates in this epoch.
func (r *Ring) Contains(instance string) bool { return slices.Contains(r.Instances, instance) }

// OwnedFraction returns the share of the hash circle owned by instance,
// the xsec_fed_owned_fraction gauge. Each token owns the arc from its
// predecessor (exclusive) to itself (inclusive).
func (r *Ring) OwnedFraction(instance string) float64 {
	if len(r.tokens) == 0 {
		return 0
	}
	var owned uint64
	prev := r.tokens[len(r.tokens)-1].point
	for _, t := range r.tokens {
		arc := t.point - prev // wraps correctly in uint64 arithmetic
		if t.instance == instance {
			owned += arc
		}
		prev = t.point
	}
	const circle = float64(1 << 63)
	return float64(owned) / (2 * circle)
}

// WithJoined returns the next epoch with instance added (a no-op clone
// with a bumped epoch if it is already a member).
func (r *Ring) WithJoined(instance string) *Ring {
	ids := append([]string(nil), r.Instances...)
	if !r.Contains(instance) {
		ids = append(ids, instance)
	}
	return NewRing(r.Epoch+1, ids)
}

// WithLeft returns the next epoch with instance removed.
func (r *Ring) WithLeft(instance string) *Ring {
	ids := make([]string, 0, len(r.Instances))
	for _, id := range r.Instances {
		if id != instance {
			ids = append(ids, id)
		}
	}
	return NewRing(r.Epoch+1, ids)
}

// Encode renders the ring for the SDL and the bus.
func (r *Ring) Encode() ([]byte, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("fed: encoding ring: %w", err)
	}
	return data, nil
}

// ParseRing decodes a published ring and rebuilds its token table.
func ParseRing(data []byte) (*Ring, error) {
	var r Ring
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("fed: decoding ring: %w", err)
	}
	sort.Strings(r.Instances)
	r.build()
	return &r, nil
}
