// Package sdl implements the Shared Data Layer of the near-RT RIC: a
// namespaced, versioned, concurrent key-value store that xApps and
// platform services use to share state (§3.1 of the paper: "the xApp
// stores [telemetry] in the Shared Data Layer (SDL) which is a centralized
// database that can be accessed by other nRT-RIC services and xApps").
//
// The OSC reference implementation backs its SDL with Redis; this package
// provides an in-process equivalent with the operations the framework
// needs: get/set/delete with versions, prefix listing, watch subscriptions,
// and one retention class beside "keep for ever": a per-namespace byte
// bound.
//
// # Retention
//
// Bound makes a namespace a FIFO of at most so many bytes: the write that
// would exceed the bound deletes the oldest keys inside that same write.
// Use it for append-only data whose rate the writer does not control
// (telemetry, a review queue): a time bound is not a memory bound when the
// rate is an attacker's.
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

	"github.com/6g-xsec/xsec/internal/obs"
)

// Bounded namespaces are the only ones whose size is worth a series: an
// unbounded one is bounded by its writer (prov/ledger by DefaultMaxChains) or
// not at all.
var (
	obsEvicted = obs.NewCounterVec("xsec_sdl_evicted_total",
		"Keys deleted from a bounded namespace to admit a newer one.", "namespace")
	obsKeys = obs.NewGaugeVec("xsec_sdl_keys",
		"Keys held in a bounded namespace.", "namespace")
	obsBytes = obs.NewGaugeVec("xsec_sdl_bytes",
		"Bytes a bounded namespace is charged for: key, value and a fixed per-entry overhead of each entry it holds.", "namespace")
)

// entryOverhead is what a bounded namespace charges an entry beyond its
// key and value bytes: its map slot (key header and entry struct) at the
// table's load factor, its ring claim, and the allocator's rounding of
// the two buffers — 125 to 195 B of live heap on amd64 as the namespace
// grows from 3 000 to 70 000 entries, measured with go1.24.0's swiss-table
// maps, the toolchain go.mod pins; TestEntryOverheadIsMeasured holds it to
// that.
const entryOverhead = 160

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

// Store is the shared data layer. The zero value is not usable; call New.
type Store struct {
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
	value   []byte
	version uint64
	tick    uint64 // admission number in a bounded namespace's ring; zero = never charged
}

// bound is one namespace's retention declaration, shared by its rings.
type bound struct {
	maxBytes   int
	evicted    atomic.Uint64
	obsEvicted *obs.Counter
	obsKeys    *obs.Gauge
	obsBytes   *obs.Gauge
}

// ring is one stripe's share of a bounded namespace: the keys it admitted,
// oldest first from head, and the bytes they are charged. A claim is only
// a claim — the key it names may have been deleted, or deleted and
// admitted again under a later tick — so eviction believes one only if
// the entry still carries the claim's tick.
type ring struct {
	b      *bound
	claims []claim
	head   int
	max    int64  // this stripe's share of the bound
	used   int64  // bytes charged to the entries this stripe holds
	live   int    // entries charged
	ticker uint64 // last tick handed out
}

type claim struct {
	key  string
	tick uint64
}

// charge is what a bounded namespace accounts for one entry.
func charge(key string, value []byte) int64 {
	return int64(len(key) + len(value) + entryOverhead)
}

type watcher struct {
	namespace string
	prefix    string
	ch        chan Event
}

// New returns an empty store of DefaultShards lock stripes.
func New() *Store { return newStore(DefaultShards) }

// newStore returns a store of shards lock stripes, rounded up to a power
// of two; 1 is the unsharded single-lock layout.
func newStore(shards int) *Store {
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Store{mask: uint32(n - 1), shards: make([]shard, n), bounds: make(map[string]*bound)}
	for i := range s.shards {
		s.shards[i].ns = make(map[string]map[string]entry)
		s.shards[i].watchers = make(map[string]map[uint64]*watcher)
		s.shards[i].rings = make(map[string]*ring)
	}
	return s
}

// Bound makes namespace a FIFO of at most maxBytes bytes, where an entry
// costs len(key) + len(value) plus a fixed per-entry overhead: every
// stripe admits its keys into a ring holding an equal share of maxBytes,
// and the Set that would take a ring past its share first deletes the
// keys holding its oldest claims — under the stripe lock that write
// already holds, delivered to watchers as a Delete is, and counted
// (Evicted). An entry is charged when it is admitted; Delete, an
// overwrite and eviction release exactly that charge. Overwriting a key
// keeps its place in the ring, and a larger value evicts other keys,
// never the key itself; Delete frees the bytes at once and the claim when
// its turn comes. An entry larger than a stripe's share is kept alone,
// until the next write evicts it. Eviction is oldest-first per stripe,
// so across the namespace only approximately: a stripe the hash favours
// starts evicting while another still has room, and the namespace levels
// off at or just under maxBytes.
//
// The namespace's writer declares the bound before its first write.
// Repeating a declaration is a no-op; changing one, bounding a namespace
// that already holds entries (their bytes were never charged), or a bound
// below one empty entry per stripe is a bug in the caller and panics.
func (s *Store) Bound(namespace string, maxBytes int) {
	per := maxBytes / len(s.shards)
	if per < entryOverhead {
		panic(fmt.Sprintf("sdl: Bound(%q, %d) is under one entry per stripe (%d stripes)", namespace, maxBytes, len(s.shards)))
	}
	s.boundMu.Lock()
	defer s.boundMu.Unlock()
	if b := s.bounds[namespace]; b != nil {
		if b.maxBytes != maxBytes {
			panic(fmt.Sprintf("sdl: Bound(%q, %d) after Bound(%q, %d)", namespace, maxBytes, namespace, b.maxBytes))
		}
		return
	}
	b := &bound{maxBytes: maxBytes, obsEvicted: obsEvicted.With(namespace),
		obsKeys: obsKeys.With(namespace), obsBytes: obsBytes.With(namespace)}
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
	for i := range s.shards {
		if len(s.shards[i].ns[namespace]) > 0 {
			panic(fmt.Sprintf("sdl: Bound(%q) after the namespace's first write", namespace))
		}
	}
	s.bounds[namespace] = b
	for i := range s.shards {
		s.shards[i].rings[namespace] = &ring{b: b, max: int64(per)}
	}
}

// Bytes reports the bytes a bounded namespace is charged for (0 for an
// unbounded one).
func (s *Store) Bytes(namespace string) int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		if r := sh.rings[namespace]; r != nil {
			n += r.used
		}
		sh.mu.RUnlock()
	}
	return n
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
	return s.set(namespace, key, value, true)
}

// SetOwned stores value under (namespace, key) WITHOUT copying: the store
// takes ownership of the slice and the caller must not read or mutate it
// afterwards. It exists for single-use buffers on hot write paths (the
// mitigation journal marshals a fresh buffer per entry and discards it),
// where the defensive copy of Set is pure waste.
func (s *Store) SetOwned(namespace, key string, value []byte) uint64 {
	return s.set(namespace, key, value, false)
}

func (s *Store) set(namespace, key string, value []byte, copyValue bool) uint64 {
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
	var tick uint64
	if r := sh.rings[namespace]; r != nil {
		tick = s.admitLocked(sh, r, m, namespace, key, value)
	}
	v := s.version.Add(1)
	m[key] = entry{value: value, version: v, tick: tick}
	sh.notifyLocked(Event{Namespace: namespace, Key: key, Value: value, Version: v})
	sh.mu.Unlock()
	return v
}

// admitLocked charges value to a bounded namespace's ring and returns the
// tick the entry carries: an overwrite keeps its own, and so its place,
// after the old value's charge is released; a key new to the ring gets the
// next one. Other entries are evicted oldest-first until the charge fits
// in the stripe's share or none is left.
func (s *Store) admitLocked(sh *shard, r *ring, m map[string]entry, namespace, key string, value []byte) (tick uint64) {
	if old, ok := m[key]; ok && old.tick != 0 {
		tick = old.tick
		r.release(key, old.value)
	}
	c := charge(key, value)
	// Pop the claims from the head that name no live entry, and evict the
	// live ones while the charge does not fit: one lookup a claim. The
	// key's own claim is never evicted; if it is the head and room is
	// still short, the live claims behind it are evicted and left queued.
	for r.head < len(r.claims) {
		cl := r.claims[r.head]
		if e, ok := m[cl.key]; ok && e.tick == cl.tick {
			if r.used+c <= r.max {
				break
			}
			if cl.tick == tick {
				s.evictBehindLocked(sh, r, m, namespace, c)
				break
			}
			s.evictLocked(sh, r, m, namespace, cl.key, e)
		}
		r.pop()
	}
	if tick == 0 {
		if len(r.claims)-r.head > 2*r.live+32 {
			r.compact(m) // before the new claim, whose entry m does not hold yet
		}
		r.ticker++
		tick = r.ticker
		r.claims = append(r.claims, claim{key: key, tick: tick})
	}
	r.used += c
	r.live++
	r.b.obsKeys.Add(1)
	r.b.obsBytes.Add(float64(c))
	return tick
}

// evictBehindLocked evicts, oldest first, the live entries whose claims
// queue behind the head until a charge of c fits, leaving their claims
// for the head to pop.
func (s *Store) evictBehindLocked(sh *shard, r *ring, m map[string]entry, namespace string, c int64) {
	for i := r.head + 1; r.used+c > r.max && i < len(r.claims); i++ {
		cl := r.claims[i]
		if e, ok := m[cl.key]; ok && e.tick == cl.tick {
			s.evictLocked(sh, r, m, namespace, cl.key, e)
		}
	}
}

// evictLocked deletes a live entry of a bounded namespace to make room,
// and counts it.
func (s *Store) evictLocked(sh *shard, r *ring, m map[string]entry, namespace, key string, e entry) {
	s.removeLocked(sh, m, namespace, key, e)
	r.b.evicted.Add(1)
	r.b.obsEvicted.Inc()
}

// holds reports whether cl still names a live entry: one deleted since,
// or deleted and admitted again under a later tick, is only a claim.
func (r *ring) holds(m map[string]entry, cl claim) bool {
	e, ok := m[cl.key]
	return ok && e.tick == cl.tick
}

// release returns a charged entry's bytes to its ring.
func (r *ring) release(key string, value []byte) {
	c := charge(key, value)
	r.used -= c
	r.live--
	r.b.obsKeys.Add(-1)
	r.b.obsBytes.Add(-float64(c))
}

// pop drops the oldest claim, sliding the queue down once half of it is
// spent so the backing array stays within twice what is queued.
func (r *ring) pop() {
	r.claims[r.head] = claim{}
	r.head++
	if r.head >= 32 && r.head*2 >= len(r.claims) {
		n := copy(r.claims, r.claims[r.head:])
		clear(r.claims[n:])
		r.claims, r.head = r.claims[:n], 0
	}
}

// compact drops the claims whose entries were deleted, once they
// outnumber the live ones: a namespace that deletes as fast as it writes
// would otherwise queue a claim per write until the bound came round.
func (r *ring) compact(m map[string]entry) {
	kept := r.claims[:0]
	for _, cl := range r.claims[r.head:] {
		if r.holds(m, cl) {
			kept = append(kept, cl)
		}
	}
	clear(r.claims[len(kept):])
	r.claims, r.head = kept, 0
}

// removeLocked deletes a present key, releases its charge and tells the
// namespace's watchers.
func (s *Store) removeLocked(sh *shard, m map[string]entry, namespace, key string, e entry) {
	delete(m, key)
	if r := sh.rings[namespace]; r != nil && e.tick != 0 {
		r.release(key, e.value)
	}
	v := s.version.Add(1)
	sh.notifyLocked(Event{Namespace: namespace, Key: key, Version: v, Deleted: true})
}

// Get returns the value and version for (namespace, key). ok is false if
// the key is absent. The returned slice must not be mutated.
func (s *Store) Get(namespace, key string) (value []byte, version uint64, ok bool) {
	sh := s.shardFor(namespace, key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.ns[namespace][key]
	if !ok {
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

// Keys lists the keys in a namespace with the given prefix, sorted.
func (s *Store) Keys(namespace, prefix string) []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.ns[namespace] {
			if strings.HasPrefix(k, prefix) {
				out = append(out, k)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// GetAll returns all (key, value) pairs under a prefix; values are
// copies.
func (s *Store) GetAll(namespace, prefix string) map[string][]byte {
	out := make(map[string][]byte)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.ns[namespace] {
			if strings.HasPrefix(k, prefix) {
				out[k] = append([]byte(nil), e.value...)
			}
		}
		sh.mu.RUnlock()
	}
	return out
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

// Len reports the number of keys in a namespace.
func (s *Store) Len(namespace string) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.ns[namespace])
		sh.mu.RUnlock()
	}
	return n
}
