package prov

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// Namespace is the dedicated SDL namespace chains persist to, one value
// per segment of up to segmentEvents events under "ev/<node>/<sn>/<seg>",
// zero-padded so lexicographic SDL prefix scans return causal order.
const Namespace = "prov/ledger"

// segmentEvents bounds what a persist copies, so a chain at
// DefaultMaxEventsPerChain costs the writer no more per event than a short one.
const segmentEvents = 16

// Options configures a Ledger. The zero value gives a ledger over a
// private SDL store with the defaults below.
type Options struct {
	// Store is the SDL chains persist into; nil gives the ledger a
	// private one. Either way the store holds the only copy of an event.
	Store *sdl.Store
	// Buffer is the recording channel depth; events beyond it are
	// dropped (and counted) rather than blocking the pipeline.
	Buffer int

	// maxChains bounds retention (default DefaultMaxChains): beyond it
	// the oldest chain is evicted and its SDL keys deleted. Only this
	// package's tests set it, and clock.
	maxChains int
	clock     func() time.Time
}

// Defaults for Options fields left zero.
const (
	DefaultBuffer    = 4096
	DefaultMaxChains = 1024
)

// DefaultMaxEventsPerChain caps one chain's event list; further events
// are dropped and the chain marked truncated.
const DefaultMaxEventsPerChain = 512

// Ledger is an append-only provenance store. Record is safe for
// concurrent use, never blocks, and allocates nothing; a single writer
// goroutine owns all mutation, coalescing runs of benign window
// observations (whatever a producer has not already folded) and
// enforcing the retention bounds.
type Ledger struct {
	store *sdl.Store
	clock func() time.Time

	maxChains int

	ch       chan Event
	flushReq chan chan struct{}
	stop     chan struct{}
	done     chan struct{}

	closed  atomic.Bool
	dropped atomic.Uint64
	evicted atomic.Uint64

	mu     sync.RWMutex
	chains map[ChainID]*chain
	// order is the FIFO eviction ring: it grows to maxChains, after which
	// head indexes the oldest chain and a new chain takes the evicted
	// one's slot.
	order []ChainID
	head  int
	// enc is persistLocked's encode buffer, reused from event to event.
	enc []byte
}

// chain is what the ledger holds of a chain besides the SDL: the events
// themselves live only in the store.
type chain struct {
	// seg is the open segment as published under key: the store holds
	// this very slice, so it is never written again.
	seg []byte
	key string
	// lastAt is where last's length prefix starts in seg; event i is in
	// segment i/segmentEvents.
	lastAt, events int
	// last is the latest stored event, the open benign run a window
	// folds into without reading it back.
	last      Event
	truncated bool
}

var (
	obsEvents  = obs.NewCounter("xsec_prov_events_total", "Provenance events accepted by the ledger writer.")
	obsDropped = obs.NewCounter("xsec_prov_dropped_total", "Provenance events dropped because the ledger buffer was full or closed.")
	obsEvicted = obs.NewCounter("xsec_prov_chains_evicted_total", "Provenance chains evicted to enforce bounded retention.")
)

// New starts a ledger and its writer goroutine. Call Close to stop it.
func New(o Options) *Ledger {
	l := newLedger(o)
	go l.run()
	return l
}

// newLedger builds a ledger without starting the writer; tests use it
// to exercise the full-buffer drop path deterministically.
func newLedger(o Options) *Ledger {
	if o.Buffer <= 0 {
		o.Buffer = DefaultBuffer
	}
	if o.maxChains <= 0 {
		o.maxChains = DefaultMaxChains
	}
	if o.clock == nil {
		o.clock = time.Now
	}
	if o.Store == nil {
		o.Store = sdl.New()
	}
	return &Ledger{
		store:     o.Store,
		clock:     o.clock,
		maxChains: o.maxChains,
		ch:        make(chan Event, o.Buffer),
		flushReq:  make(chan chan struct{}),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		chains:    make(map[ChainID]*chain),
	}
}

// Record offers one event to the ledger. It never blocks: when the
// buffer is full (or the ledger closed) the event is dropped and
// counted. The fast path is a closed-flag load and a channel send of a
// fixed-size struct — no allocation.
func (l *Ledger) Record(ev Event) {
	if l.closed.Load() {
		l.dropped.Add(1)
		obsDropped.Inc()
		return
	}
	select {
	case l.ch <- ev:
	default:
		l.dropped.Add(1)
		obsDropped.Inc()
	}
}

// run is the writer goroutine: the only mutator of chain state.
func (l *Ledger) run() {
	for {
		select {
		case ev := <-l.ch:
			l.handle(ev)
		case ack := <-l.flushReq:
			l.drain()
			close(ack)
		case <-l.stop:
			l.drain()
			close(l.done)
			return
		}
	}
}

func (l *Ledger) drain() {
	for {
		select {
		case ev := <-l.ch:
			l.handle(ev)
		default:
			return
		}
	}
}

func (l *Ledger) handle(ev Event) {
	if ev.At.IsZero() {
		ev.At = l.clock()
	}
	if ev.Count == 0 {
		ev.Count = 1
	}
	obsEvents.Inc()

	l.mu.Lock()
	c := l.chains[ev.Chain]
	if c == nil {
		c = &chain{}
		l.admitLocked(ev.Chain)
		l.chains[ev.Chain] = c
	}

	// Runs of benign window observations for the same model coalesce
	// into one event: Count accumulates, Score keeps the worst seen,
	// and the sequence range / digest track the latest window. This
	// bounds chain growth in the steady state (the overwhelmingly
	// common case is "window scored, nothing fired").
	if last := &c.last; c.events > 0 && ev.Kind == KindWindow && !ev.Flagged &&
		last.Kind == KindWindow && !last.Flagged && last.Model == ev.Model {
		last.Count += ev.Count
		last.At = ev.At
		last.SeqLast = ev.SeqLast
		last.Digest = ev.Digest
		if ev.Score > last.Score {
			last.Score = ev.Score
		}
		l.persistLocked(c)
		l.mu.Unlock()
		return
	}

	if c.events >= DefaultMaxEventsPerChain {
		c.truncated = true
		l.mu.Unlock()
		return
	}
	if c.events%segmentEvents == 0 {
		c.seg, c.key = nil, segmentKey(ev.Chain, c.events/segmentEvents)
	}
	c.last, c.lastAt = ev, len(c.seg)
	c.events++
	l.persistLocked(c)
	l.mu.Unlock()
}

// admitLocked enters a new chain into the FIFO ring, evicting the oldest
// chain once maxChains are retained.
func (l *Ledger) admitLocked(id ChainID) {
	if len(l.order) < l.maxChains {
		l.order = append(l.order, id)
		return
	}
	l.evictLocked(l.order[l.head])
	l.order[l.head] = id
	l.head = (l.head + 1) % len(l.order)
}

// evictLocked forgets a chain and deletes its SDL keys. The cost is the
// chain's own segment count: no scan of the namespace, so neighbours and
// foreign keys are never touched.
func (l *Ledger) evictLocked(id ChainID) {
	c := l.chains[id]
	for s := 0; s < (c.events-1)/segmentEvents; s++ {
		l.store.Delete(Namespace, segmentKey(id, s))
	}
	l.store.Delete(Namespace, c.key)
	delete(l.chains, id)
	l.evicted.Add(1)
	obsEvicted.Inc()
}

// persistLocked publishes a fresh copy of the open segment with c.last,
// the chain's latest event, as its tail (appended, or in place of the run
// it folded into): the persist's one allocation, handed to the store
// without a copy, since the one it replaces may be in a reader's hands.
func (l *Ledger) persistLocked(c *chain) {
	e := asn1lite.NewEncoder(l.enc[:0])
	c.last.MarshalTLV(&e)
	l.enc = e.Bytes()
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(len(l.enc)))
	seg := make([]byte, 0, c.lastAt+n+len(l.enc))
	c.seg = append(append(append(seg, c.seg[:c.lastAt]...), prefix[:n]...), l.enc...)
	l.store.SetOwned(Namespace, c.key, c.seg)
}

// appendKeyPrefix renders "ev/<node>/<sn>/" with the sequence number
// zero-padded to 20 digits.
func appendKeyPrefix(buf []byte, id ChainID) []byte {
	buf = append(buf, "ev/"...)
	buf = append(buf, id.Node...)
	buf = append(buf, '/')
	buf = appendPadded(buf, id.SN, 20)
	return append(buf, '/')
}

// appendPadded renders v in decimal, zero-padded to at least width digits.
func appendPadded(buf []byte, v uint64, width int) []byte {
	var digits [20]byte
	i := len(digits)
	for ; v > 0 || len(digits)-i < width; v /= 10 {
		i--
		digits[i] = byte('0' + v%10)
	}
	return append(buf, digits[i:]...)
}

// segmentKey is the SDL key of one segment of a chain; the index is
// zero-padded to four digits.
func segmentKey(id ChainID, seg int) string {
	return string(appendPadded(appendKeyPrefix(make([]byte, 0, 64), id), uint64(seg), 4))
}

// Flush blocks until every event recorded before the call has been
// applied to chain state and the SDL.
func (l *Ledger) Flush() {
	ack := make(chan struct{})
	select {
	case l.flushReq <- ack:
		select {
		case <-ack:
		case <-l.done:
		}
	case <-l.done:
	}
}

// Close drains outstanding events and stops the writer. Records issued
// after Close are dropped (and counted); the event channel is never
// closed, so late recorders cannot panic.
func (l *Ledger) Close() {
	if l.closed.CompareAndSwap(false, true) {
		close(l.stop)
	}
	<-l.done
}

// Dropped reports how many events were lost to backpressure or
// post-Close recording.
func (l *Ledger) Dropped() uint64 { return l.dropped.Load() }

// ChainCount reports how many chains the ledger retains.
func (l *Ledger) ChainCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.chains)
}

// active is the process-wide ledger pipeline packages record into. It
// starts over a private store so instrumentation is always safe to call;
// core swaps in one over the framework's SDL at framework start.
var active atomic.Pointer[Ledger]

func init() {
	active.Store(New(Options{}))
	obs.NewGaugeFunc("xsec_prov_chains", "Provenance chains retained in memory.", func() float64 {
		return float64(Active().ChainCount())
	})
	// Saturation is visible here before xsec_prov_dropped_total moves.
	obs.NewGaugeFunc("xsec_prov_queue_depth", "Events waiting in the active ledger's recording buffer.", func() float64 {
		return float64(len(Active().ch))
	})
	obs.NewGaugeFunc("xsec_prov_queue_capacity", "Capacity of the active ledger's recording buffer.", func() float64 {
		return float64(cap(Active().ch))
	})
}

// Active returns the process-wide ledger.
func Active() *Ledger { return active.Load() }

// SetActive installs l as the process-wide ledger and returns the
// previous one (which the caller should Close once quiescent).
func SetActive(l *Ledger) *Ledger { return active.Swap(l) }

// Record offers an event to the process-wide ledger.
func Record(ev Event) { active.Load().Record(ev) }
