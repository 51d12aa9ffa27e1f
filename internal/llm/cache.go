package llm

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
)

// Verdict-cache observability. The entries gauge is serving.go's
// obsCacheEntries.
var (
	obsCacheHits = obs.NewCounter("xsec_llm_cache_hits_total",
		"Analyses served from the verdict cache without an upstream round trip. A hit is per canonical traffic pattern (model, RAG setting, DATA lines of the prompt), not per UE.")
	obsCacheMisses = obs.NewCounter("xsec_llm_cache_misses_total",
		"Analyses that missed the verdict cache.")
	obsCacheEvictions = obs.NewCounterVec("xsec_llm_cache_evictions_total",
		"Evictions from the verdict cache and its table of parsed answers, by reason.", "reason")
	obsCacheEvictLRU = obsCacheEvictions.With("lru")
	obsCacheEvictTTL = obsCacheEvictions.With("ttl")
)

// cacheKey identifies one logical expert question, or one answer text,
// to the maps that act on equality: the first 16 bytes of a SHA-256 keyed
// with the Service's secret. Everything hashed is UE-originated or comes
// from a remote endpoint, and a hit serves one UE's verdict for another's
// traffic, so equality of keys has to mean equality of what was hashed
// even against someone choosing the input: 128 bits nobody outside the
// process can compute.
type cacheKey [16]byte

// keySecretLen is the secret's length and where the hashed text starts in
// a buffer handed to sum.
const keySecretLen = 32

// sum keys buf, which starts with the secret.
func sum(buf []byte) (k cacheKey) {
	h := sha256.Sum256(buf)
	copy(k[:], h[:])
	return k
}

// windowKey is the verdict-cache and single-flight key of a window: the
// model asked (per Table 3 one prompt legitimately gets different
// verdicts per model), whether the prompt is RAG-augmented (the
// retrieved passages are a function of the DATA lines and the client's
// knowledge base, so the marker stands for them), and the canonical DATA
// lines, the only part of the prompt that depends on the window. A
// 16-record window is keyed out of a stack buffer.
func (s *Service) windowKey(window mobiflow.Trace) cacheKey {
	var stack [keySecretLen + 64 + windowIDs*promptRecordLen]byte
	buf := append(stack[:0], s.secret[:]...)
	buf = append(append(buf, s.client.Model...), 0)
	if s.client.RAG {
		buf = append(buf, 'R')
	} else {
		buf = append(buf, 'Z')
	}
	return sum(appendData(buf, window))
}

// textKey is the key of a response text in the Service's table of parsed
// answers.
func (s *Service) textKey(text string) cacheKey {
	return sum(append(append(make([]byte, 0, keySecretLen+len(text)), s.secret[:]...), text...))
}

// cacheEntry is one cached verdict.
type cacheEntry struct {
	key      cacheKey
	analysis *Analysis
	expires  time.Time
}

// verdictCache is a bounded LRU with per-entry TTL. Windows showing the
// same traffic pattern render byte-identical canonical prompts, whichever
// UE they came from, so their keys are equal on purpose and the REST
// round trip is skipped. What it holds is shared with every caller it is
// served to and never written again.
type verdictCache struct {
	mu    sync.Mutex
	max   int
	ttl   time.Duration
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
	clock func() time.Time
}

func newVerdictCache(max int, ttl time.Duration, clock func() time.Time) *verdictCache {
	return &verdictCache{
		max: max, ttl: ttl, clock: clock,
		ll: list.New(), items: make(map[cacheKey]*list.Element),
	}
}

// get returns the cached analysis, expiring it instead when its TTL
// lapsed. A hit allocates nothing: the pointer is the cache's own.
func (vc *verdictCache) get(key cacheKey) (*Analysis, bool) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	el, ok := vc.items[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if vc.clock().After(ent.expires) {
		vc.ll.Remove(el)
		delete(vc.items, key)
		obsCacheEvictTTL.Inc()
		return nil, false
	}
	vc.ll.MoveToFront(el)
	return ent.analysis, true
}

// put stores a, which nobody writes afterwards, evicting the least
// recently used entry when the bound is exceeded.
func (vc *verdictCache) put(key cacheKey, a *Analysis) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	ent := &cacheEntry{key: key, analysis: a, expires: vc.clock().Add(vc.ttl)}
	if el, ok := vc.items[key]; ok {
		el.Value = ent
		vc.ll.MoveToFront(el)
		return
	}
	vc.items[key] = vc.ll.PushFront(ent)
	for vc.ll.Len() > vc.max {
		back := vc.ll.Back()
		vc.ll.Remove(back)
		delete(vc.items, back.Value.(*cacheEntry).key)
		obsCacheEvictLRU.Inc()
	}
}

// len reports the live entry count.
func (vc *verdictCache) len() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.ll.Len()
}
