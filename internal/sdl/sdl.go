// Package sdl implements the Shared Data Layer of the near-RT RIC: a
// namespaced, versioned, concurrent key-value store that xApps and
// platform services use to share state (§3.1 of the paper: "the xApp
// stores [telemetry] in the Shared Data Layer (SDL) which is a centralized
// database that can be accessed by other nRT-RIC services and xApps").
//
// The OSC reference implementation backs its SDL with Redis; this package
// provides an in-process equivalent with the operations the framework
// needs: get/set/delete with versions, prefix listing, watch subscriptions,
// and two retention classes beside "keep for ever": per-key TTL and a
// per-namespace key bound.
//
// # Retention
//
// SetTTL hides an entry from readers once its time is up; the bytes stay
// until Purge (a scan of the whole store) or an overwrite. Use it for
// state that must stop being *believed* after a while — an ownership
// record whose writer may have died. Bound makes a namespace a counted
// FIFO: the insert that would exceed the bound deletes the oldest key,
// O(1), inside that same write. Use it for append-only data whose rate
// the writer does not control (telemetry, a review queue): a time bound
// is not a memory bound when the rate is an attacker's.
//
// # Sharding
//
// The store is lock-striped into a power-of-two number of shards; every
// (namespace, key) pair hashes (FNV-1a) to exactly one shard, which owns
// the entry and the watch delivery for mutations of it. Versions come
// from a single atomic counter, so they remain globally unique and
// monotonic across shards: a reader comparing versions observes the
// store-wide mutation order regardless of which shard served it.
//
// Watch events for keys on the same shard are delivered in version order
// because delivery happens under the shard lock; events from different
// shards may interleave on the channel, but their Version fields still
// order them globally. Delivery is always non-blocking (a full watcher
// buffer drops), and a watcher only appears on the shards its namespace
// has entries on, so one slow watcher cannot stall writers of unrelated
// namespaces.
package sdl

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/obs"
)

// Bounded namespaces are the only ones whose size is worth a series: an
// unbounded one is bounded by its writer (prov/ledger by MaxChains) or
// not at all.
var (
	obsEvicted = obs.NewCounterVec("xsec_sdl_evicted_total",
		"Keys deleted from a bounded namespace to admit a newer one.", "namespace")
	obsKeys = obs.NewGaugeVec("xsec_sdl_keys",
		"Keys held in a bounded namespace.", "namespace")
)

// DefaultShards is the lock-stripe count used by New. Sixteen stripes
// keep per-shard contention negligible for the framework's writer mix
// (telemetry persist, prov ledger, mitigation journal, A1 policies)
// without measurable per-shard overhead.
const DefaultShards = 16

// Event describes one mutation delivered to watchers.
type Event struct {
	Namespace string
	Key       string
	Value     []byte // nil for deletions
	Version   uint64
	Deleted   bool
}

// Options configures a Store.
type Options struct {
	// Shards is the lock-stripe count, rounded up to a power of two
	// (default DefaultShards). Shards == 1 yields the unsharded
	// single-lock layout.
	Shards int
	// Clock is injectable for TTL tests (default time.Now).
	Clock func() time.Time
}

// Store is the shared data layer. The zero value is not usable; call New.
type Store struct {
	clock   func() time.Time
	version atomic.Uint64
	nextWID atomic.Uint64
	mask    uint32
	shards  []shard

	boundMu sync.Mutex
	bounds  map[string]*bound
}

type shard struct {
	mu sync.RWMutex
	ns map[string]map[string]entry
	// watchers indexes this shard's registered watchers by namespace, so
	// a mutation touches only the watchers that could match it.
	watchers map[string]map[uint64]*watcher
	// rings holds this stripe's share of every bounded namespace.
	rings map[string]*ring
}

type entry struct {
	value     []byte
	version   uint64
	expiresAt int64 // Unix nanoseconds; zero = no TTL
	slot      int   // index in the namespace's ring, when it is bounded
}

// bound is one namespace's retention declaration, shared by its rings.
type bound struct {
	maxKeys    int
	evicted    atomic.Uint64
	obsEvicted *obs.Counter
	obsKeys    *obs.Gauge
}

// ring is the keys one stripe inserted into a bounded namespace, in
// insertion order: slots grows to max, after which head indexes the oldest
// and a new key takes its slot. A slot is only a claim — the key it names
// may have been deleted, or deleted and inserted again under a later slot
// — so eviction checks the entry's own slot before it believes one.
type ring struct {
	b     *bound
	slots []string
	max   int
	head  int
}

type watcher struct {
	namespace string
	prefix    string
	ch        chan Event
}

// New returns an empty store using the real clock and DefaultShards.
func New() *Store { return NewWithOptions(Options{}) }

// NewWithClock returns a store with an injectable clock for TTL tests.
func NewWithClock(clock func() time.Time) *Store {
	return NewWithOptions(Options{Clock: clock})
}

// NewWithOptions returns a store with explicit shard count and clock.
func NewWithOptions(o Options) *Store {
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	n := 1
	for n < o.Shards {
		n <<= 1
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	s := &Store{clock: o.Clock, mask: uint32(n - 1), shards: make([]shard, n), bounds: make(map[string]*bound)}
	for i := range s.shards {
		s.shards[i].ns = make(map[string]map[string]entry)
		s.shards[i].watchers = make(map[string]map[uint64]*watcher)
		s.shards[i].rings = make(map[string]*ring)
	}
	return s
}

// Bound makes namespace a counted FIFO of at most maxKeys keys: every
// stripe keeps the keys it inserted in a ring of maxKeys/ShardCount()
// slots, and the Set that needs a slot of a full ring first deletes the
// key holding the oldest one — under the stripe lock that write already
// holds, delivered to watchers as a Delete is, and counted (Evicted).
// Overwriting a key keeps its slot; Delete frees the key but not the
// slot, which is skipped when its turn comes. Eviction is oldest-first
// per stripe, so across the namespace only approximately: a stripe the
// hash favours starts evicting while another still has room, and the
// namespace levels off at or just under maxKeys.
//
// The namespace's writer declares the bound before its first write.
// Repeating a declaration is a no-op (colocated instances share a
// store); changing one, bounding a namespace that already has keys, or a
// bound below one key per stripe is a bug in the caller and panics.
func (s *Store) Bound(namespace string, maxKeys int) {
	per := maxKeys / len(s.shards)
	if per < 1 {
		panic(fmt.Sprintf("sdl: Bound(%q, %d) is under one key per stripe (%d stripes)", namespace, maxKeys, len(s.shards)))
	}
	s.boundMu.Lock()
	defer s.boundMu.Unlock()
	if b := s.bounds[namespace]; b != nil {
		if b.maxKeys != maxKeys {
			panic(fmt.Sprintf("sdl: Bound(%q, %d) after Bound(%q, %d)", namespace, maxKeys, namespace, b.maxKeys))
		}
		return
	}
	if s.Len(namespace) > 0 {
		panic(fmt.Sprintf("sdl: Bound(%q) after the namespace's first write", namespace))
	}
	b := &bound{maxKeys: maxKeys, obsEvicted: obsEvicted.With(namespace), obsKeys: obsKeys.With(namespace)}
	s.bounds[namespace] = b
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.rings[namespace] = &ring{b: b, max: per}
		sh.mu.Unlock()
	}
}

// Evicted reports how many keys a bounded namespace has aged out (0 for
// an unbounded one).
func (s *Store) Evicted(namespace string) uint64 {
	s.boundMu.Lock()
	b := s.bounds[namespace]
	s.boundMu.Unlock()
	if b == nil {
		return 0
	}
	return b.evicted.Load()
}

// ShardCount reports the number of lock stripes.
func (s *Store) ShardCount() int { return len(s.shards) }

// shardFor hashes (namespace, key) with FNV-1a onto a stripe.
func (s *Store) shardFor(namespace, key string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(namespace); i++ {
		h = (h ^ uint64(namespace[i])) * prime64
	}
	h = (h ^ 0xff) * prime64 // separator: ("a","bc") ≠ ("ab","c")
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	return &s.shards[uint32(h^(h>>32))&s.mask]
}

// Set stores value under (namespace, key) and returns the new version.
// The value is copied, so the caller may reuse its buffer.
func (s *Store) Set(namespace, key string, value []byte) uint64 {
	return s.set(namespace, key, value, 0, true)
}

// SetTTL stores value with a time-to-live; ttl <= 0 means no expiry.
// The value is copied.
func (s *Store) SetTTL(namespace, key string, value []byte, ttl time.Duration) uint64 {
	return s.set(namespace, key, value, ttl, true)
}

// SetOwned stores value under (namespace, key) WITHOUT copying: the store
// takes ownership of the slice and the caller must not read or mutate it
// afterwards. It exists for single-use buffers on hot write paths (the
// mitigation journal marshals a fresh buffer per entry and discards it),
// where the defensive copy of Set is pure waste.
func (s *Store) SetOwned(namespace, key string, value []byte) uint64 {
	return s.set(namespace, key, value, 0, false)
}

// SetOwnedTTL is SetOwned with a time-to-live; ttl <= 0 means no expiry.
func (s *Store) SetOwnedTTL(namespace, key string, value []byte, ttl time.Duration) uint64 {
	return s.set(namespace, key, value, ttl, false)
}

func (s *Store) set(namespace, key string, value []byte, ttl time.Duration, copyValue bool) uint64 {
	if copyValue {
		value = append([]byte(nil), value...)
	}
	sh := s.shardFor(namespace, key)
	sh.mu.Lock()
	m, ok := sh.ns[namespace]
	if !ok {
		m = make(map[string]entry)
		sh.ns[namespace] = m
	}
	var slot int
	if r := sh.rings[namespace]; r != nil {
		if old, ok := m[key]; ok {
			slot = old.slot
		} else {
			slot = s.admitLocked(sh, r, m, namespace, key)
		}
	}
	v := s.version.Add(1)
	e := entry{value: value, version: v, slot: slot}
	if ttl > 0 {
		e.expiresAt = s.clock().Add(ttl).UnixNano()
	}
	m[key] = e
	sh.notifyLocked(Event{Namespace: namespace, Key: key, Value: e.value, Version: v})
	sh.mu.Unlock()
	return v
}

// admitLocked gives a key new to a bounded namespace its ring slot,
// evicting the key that holds the oldest slot once the ring is full.
func (s *Store) admitLocked(sh *shard, r *ring, m map[string]entry, namespace, key string) (slot int) {
	if slot = len(r.slots); slot < r.max {
		r.slots = append(r.slots, key)
	} else {
		slot = r.head
		oldest := r.slots[slot]
		if e, ok := m[oldest]; ok && e.slot == slot {
			s.removeLocked(sh, m, namespace, oldest, e)
			r.b.evicted.Add(1)
			r.b.obsEvicted.Inc()
		}
		r.slots[slot] = key
		r.head = (slot + 1) % r.max
	}
	r.b.obsKeys.Add(1)
	return slot
}

// removeLocked deletes a present key and tells the namespace's watchers,
// unless the entry had already expired out of their sight.
func (s *Store) removeLocked(sh *shard, m map[string]entry, namespace, key string, e entry) {
	delete(m, key)
	if r := sh.rings[namespace]; r != nil {
		r.b.obsKeys.Add(-1)
	}
	v := s.version.Add(1)
	if !s.expired(e) {
		sh.notifyLocked(Event{Namespace: namespace, Key: key, Version: v, Deleted: true})
	}
}

// Get returns the value and version for (namespace, key). ok is false if
// the key is absent or expired. The returned slice must not be mutated.
func (s *Store) Get(namespace, key string) (value []byte, version uint64, ok bool) {
	sh := s.shardFor(namespace, key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.ns[namespace][key]
	if !ok || s.expired(e) {
		return nil, 0, false
	}
	return e.value, e.version, true
}

// Delete removes a key; it reports whether the key existed.
func (s *Store) Delete(namespace, key string) bool {
	sh := s.shardFor(namespace, key)
	sh.mu.Lock()
	m := sh.ns[namespace]
	e, ok := m[key]
	if ok {
		s.removeLocked(sh, m, namespace, key, e)
	}
	sh.mu.Unlock()
	return ok
}

// Keys lists the live keys in a namespace with the given prefix, sorted.
func (s *Store) Keys(namespace, prefix string) []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.ns[namespace] {
			if strings.HasPrefix(k, prefix) && !s.expired(e) {
				out = append(out, k)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// GetAll returns all live (key, value) pairs under a prefix; values are
// copies.
func (s *Store) GetAll(namespace, prefix string) map[string][]byte {
	out := make(map[string][]byte)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.ns[namespace] {
			if strings.HasPrefix(k, prefix) && !s.expired(e) {
				out[k] = append([]byte(nil), e.value...)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

func (s *Store) expired(e entry) bool {
	return e.expiresAt != 0 && s.clock().UnixNano() > e.expiresAt
}

// Watch subscribes to mutations in a namespace under a key prefix. The
// returned channel has the given buffer; events overflowing a full buffer
// are dropped (watchers must keep up, as with the OSC notification
// service). Events originating on one shard arrive in version order;
// events from different shards may interleave, but Version always orders
// them globally. cancel stops delivery and closes the channel.
func (s *Store) Watch(namespace, prefix string, buffer int) (events <-chan Event, cancel func()) {
	id := s.nextWID.Add(1)
	w := &watcher{namespace: namespace, prefix: prefix, ch: make(chan Event, buffer)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		m := sh.watchers[namespace]
		if m == nil {
			m = make(map[uint64]*watcher)
			sh.watchers[namespace] = m
		}
		m[id] = w
		sh.mu.Unlock()
	}
	var once sync.Once
	return w.ch, func() {
		once.Do(func() {
			// Deregister from every shard first; delivery happens under
			// the shard lock, so after this loop no send can race the
			// close below.
			for i := range s.shards {
				sh := &s.shards[i]
				sh.mu.Lock()
				if m := sh.watchers[namespace]; m != nil {
					delete(m, id)
					if len(m) == 0 {
						delete(sh.watchers, namespace)
					}
				}
				sh.mu.Unlock()
			}
			close(w.ch)
		})
	}
}

// notifyLocked delivers an event to this shard's watchers of the event's
// namespace. Caller holds the shard lock, which is what serializes
// deliveries into version order per shard; sends never block.
func (sh *shard) notifyLocked(ev Event) {
	if len(sh.watchers) == 0 {
		return
	}
	for _, w := range sh.watchers[ev.Namespace] {
		if !strings.HasPrefix(ev.Key, w.prefix) {
			continue
		}
		select {
		case w.ch <- ev:
		default: // drop on overflow
		}
	}
}

// Purge removes expired entries and returns how many were dropped.
func (s *Store) Purge() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for namespace, m := range sh.ns {
			for k, e := range m {
				if s.expired(e) {
					s.removeLocked(sh, m, namespace, k, e)
					n++
				}
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Len reports the number of live keys in a namespace.
func (s *Store) Len(namespace string) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.ns[namespace] {
			if !s.expired(e) {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}
