// Package sdl implements the Shared Data Layer of the near-RT RIC: a
// namespaced, versioned, concurrent key-value store that xApps and
// platform services use to share state (§3.1 of the paper: "the xApp
// stores [telemetry] in the Shared Data Layer (SDL) which is a centralized
// database that can be accessed by other nRT-RIC services and xApps").
//
// The OSC reference implementation backs its SDL with Redis; this package
// provides an in-process equivalent with the operations the framework
// needs: get/set/delete with versions, prefix listing, watch subscriptions,
// and per-key TTL.
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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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
}

type shard struct {
	mu sync.RWMutex
	ns map[string]map[string]entry
	// watchers indexes this shard's registered watchers by namespace, so
	// a mutation touches only the watchers that could match it.
	watchers map[string]map[uint64]*watcher
}

type entry struct {
	value     []byte
	version   uint64
	expiresAt time.Time // zero = no TTL
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
	s := &Store{clock: o.Clock, mask: uint32(n - 1), shards: make([]shard, n)}
	for i := range s.shards {
		s.shards[i].ns = make(map[string]map[string]entry)
		s.shards[i].watchers = make(map[string]map[uint64]*watcher)
	}
	return s
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
// provenance ledger and mitigation journal marshal a fresh buffer per
// event and discard it), where the defensive copy of Set is pure waste.
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
	v := s.version.Add(1)
	e := entry{value: value, version: v}
	if ttl > 0 {
		e.expiresAt = s.clock().Add(ttl)
	}
	m[key] = e
	sh.notifyLocked(Event{Namespace: namespace, Key: key, Value: e.value, Version: v})
	sh.mu.Unlock()
	return v
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
		delete(m, key)
		v := s.version.Add(1)
		if !s.expired(e) {
			sh.notifyLocked(Event{Namespace: namespace, Key: key, Version: v, Deleted: true})
		}
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
	return !e.expiresAt.IsZero() && s.clock().After(e.expiresAt)
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
		for _, m := range sh.ns {
			for k, e := range m {
				if s.expired(e) {
					delete(m, k)
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
