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
	// Buffer is how many recorded events one batch holds while the
	// writer works on the previous one; events beyond it are dropped
	// (and counted) rather than blocking the pipeline.
	Buffer int

	// maxChains bounds retention (default DefaultMaxChains): beyond it
	// the oldest chain is evicted and its SDL keys deleted. Only this
	// package's tests set it, and clock.
	maxChains int
	clock     func() time.Time
}

// Defaults for Options fields left zero. A batch of DefaultBuffer events
// is how long the writer may stall before events drop: ≈ 27 ms at the
// ≈ 300 k events/s of benign_capacity on 2 CPUs.
const (
	DefaultBuffer    = 8192
	DefaultMaxChains = 1024
)

// DefaultMaxEventsPerChain caps one chain's event list; further events
// are dropped and the chain marked truncated.
const DefaultMaxEventsPerChain = 512

// Ledger is an append-only provenance store. Record is safe for
// concurrent use, never blocks, and allocates nothing; a single writer
// goroutine owns all mutation, a batch of recorded events at a time,
// coalescing runs of benign window observations (whatever a producer has
// not already folded) and enforcing the retention bounds.
type Ledger struct {
	store *sdl.Store
	clock func() time.Time

	maxChains int

	// qmu guards the open batch Record appends to and the closed flag.
	// The writer swaps the open batch for spare, its own, which it has
	// emptied; a batch holds at most buffer events.
	qmu    sync.Mutex
	open   []Event
	closed bool
	spare  []Event
	buffer int
	// wake holds a token whenever the open batch may be non-empty: Record
	// offers one when it appends to an empty batch.
	wake     chan struct{}
	flushReq chan chan struct{}
	stop     chan struct{}
	done     chan struct{}

	dropped atomic.Uint64
	evicted atomic.Uint64

	mu     sync.RWMutex
	chains map[ChainID]*chain
	// order is the FIFO eviction ring: it grows to maxChains, after which
	// head indexes the oldest chain and a new chain takes the evicted
	// one's slot.
	order []ChainID
	head  int
	// staged lists the chains a batch has changed, each with its open
	// segment's bytes before its last event; the slots and their buffers
	// are reused from batch to batch. enc is appendLast's encode buffer.
	staged []stagedChain
	enc    []byte
}

// chain is what the ledger holds of a chain besides the SDL: the events
// themselves live only in the store.
type chain struct {
	// seg is the open segment as published under key: the store holds
	// this very slice, so it is never written again.
	seg []byte
	key string
	// lastAt is where last's length prefix starts in the open segment
	// (seg, or the staged bytes while a batch changes the chain); event i
	// is in segment i/segmentEvents.
	lastAt, events int
	// last is the latest stored event, the open benign run a window
	// folds into without reading it back.
	last      Event
	truncated bool
	// slot is the chain's index in Ledger.staged plus one while the batch
	// being applied has changed it, else 0.
	slot int
}

// stagedChain is a chain the batch being applied has changed: its open
// segment's bytes up to c.lastAt, not yet published. c is nil once the
// chain is evicted.
type stagedChain struct {
	c     *chain
	bytes []byte
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
		open:      make([]Event, 0, o.Buffer),
		spare:     make([]Event, 0, o.Buffer),
		buffer:    o.Buffer,
		wake:      make(chan struct{}, 1),
		flushReq:  make(chan chan struct{}),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		chains:    make(map[ChainID]*chain),
	}
}

// Record offers one event to the ledger. It never blocks on the writer:
// when the open batch is full (or the ledger closed) the event is
// dropped and counted. The fast path is a short mutex hold around a copy
// of a fixed-size struct into preallocated room, plus a wake-up when the
// batch was empty — no allocation.
func (l *Ledger) Record(ev Event) {
	l.qmu.Lock()
	if l.closed || len(l.open) == l.buffer {
		l.qmu.Unlock()
		l.dropped.Add(1)
		obsDropped.Inc()
		return
	}
	l.open = append(l.open, ev)
	first := len(l.open) == 1
	l.qmu.Unlock()
	if first {
		select {
		case l.wake <- struct{}{}:
		default: // a token is already waiting; the writer will swap
		}
	}
}

// run is the writer goroutine: the only mutator of chain state.
func (l *Ledger) run() {
	for {
		select {
		case <-l.wake:
			l.drain()
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

// drain takes the open batch, leaving the spare one empty in its place,
// and applies it. Everything recorded before the swap is in the batch.
func (l *Ledger) drain() {
	l.qmu.Lock()
	batch := l.open
	l.open = l.spare
	l.qmu.Unlock()
	l.apply(batch)
	clear(batch) // no event's strings outlive the batch
	l.spare = batch[:0]
}

// apply folds, appends and admits the batch's events in order under one
// hold of l.mu, then publishes each chain they changed once. A segment
// that rolls over is published as it closes, so every published segment
// holds its chain's events in order; a chain evicted mid-batch is not
// published at all.
func (l *Ledger) apply(batch []Event) {
	if len(batch) == 0 {
		return
	}
	obsEvents.Add(uint64(len(batch)))
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range batch {
		ev := &batch[i]
		if ev.At.IsZero() {
			ev.At = l.clock()
		}
		if ev.Count == 0 {
			ev.Count = 1
		}
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
			l.stageLocked(c)
			last.Count += ev.Count
			last.At = ev.At
			last.SeqLast = ev.SeqLast
			last.Digest = ev.Digest
			if ev.Score > last.Score {
				last.Score = ev.Score
			}
			continue
		}

		if c.events >= DefaultMaxEventsPerChain {
			c.truncated = true
			continue
		}
		if c.events%segmentEvents == 0 {
			if c.slot > 0 {
				l.publishLocked(c) // the closing segment, before any of the next
			}
			c.seg, c.key, c.lastAt = nil, segmentKey(ev.Chain, c.events/segmentEvents), 0
			st := l.stageLocked(c)
			st.bytes = st.bytes[:0]
		} else {
			st := l.stageLocked(c)
			st.bytes = l.appendLast(st.bytes, c)
			c.lastAt = len(st.bytes)
		}
		c.last = *ev
		c.events++
	}
	for i := range l.staged {
		if c := l.staged[i].c; c != nil {
			l.publishLocked(c)
			c.slot = 0
			l.staged[i].c = nil
		}
	}
	l.staged = l.staged[:0]
}

// stageLocked returns c's staged slot, taking one for it, with the open
// segment's bytes before its last event, if the batch has not changed it
// yet.
func (l *Ledger) stageLocked(c *chain) *stagedChain {
	if c.slot > 0 {
		return &l.staged[c.slot-1]
	}
	if len(l.staged) < cap(l.staged) {
		l.staged = l.staged[:len(l.staged)+1]
	} else {
		l.staged = append(l.staged, stagedChain{})
	}
	st := &l.staged[len(l.staged)-1]
	st.c = c
	st.bytes = append(st.bytes[:0], c.seg[:c.lastAt]...)
	c.slot = len(l.staged)
	return st
}

// appendLast appends c.last to a segment as a length-prefixed TLV.
func (l *Ledger) appendLast(seg []byte, c *chain) []byte {
	e := asn1lite.NewEncoder(l.enc[:0])
	c.last.MarshalTLV(&e)
	l.enc = e.Bytes()
	return append(binary.AppendUvarint(seg, uint64(len(l.enc))), l.enc...)
}

// publishLocked publishes c's open segment — its staged bytes with
// c.last, the chain's latest event, as the tail — as a fresh exact-size
// copy: the one allocation, handed to the store without a copy, since
// the one it replaces may be in a reader's hands. c stays staged.
func (l *Ledger) publishLocked(c *chain) {
	st := &l.staged[c.slot-1]
	st.bytes = l.appendLast(st.bytes[:c.lastAt], c)
	c.seg = append(make([]byte, 0, len(st.bytes)), st.bytes...)
	st.bytes = st.bytes[:c.lastAt]
	l.store.SetOwned(Namespace, c.key, c.seg)
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
	if c.slot > 0 {
		l.staged[c.slot-1].c = nil // nothing of it is published from here
	}
	for s := 0; s < (c.events-1)/segmentEvents; s++ {
		l.store.Delete(Namespace, segmentKey(id, s))
	}
	l.store.Delete(Namespace, c.key)
	delete(l.chains, id)
	l.evicted.Add(1)
	obsEvicted.Inc()
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

// Close applies outstanding events and stops the writer. Records issued
// after Close are dropped (and counted), so late recorders cannot panic
// and nothing is left in a batch no writer will take.
func (l *Ledger) Close() {
	l.qmu.Lock()
	first := !l.closed
	l.closed = true
	l.qmu.Unlock()
	if first {
		close(l.stop)
	}
	<-l.done
}

// queued reports how many events wait in the open batch.
func (l *Ledger) queued() int {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	return len(l.open)
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
	obs.NewGaugeFunc("xsec_prov_queue_depth", "Events waiting in the active ledger's open batch.", func() float64 {
		return float64(Active().queued())
	})
	obs.NewGaugeFunc("xsec_prov_queue_capacity", "How many events the active ledger's open batch holds.", func() float64 {
		return float64(Active().buffer)
	})
}

// Active returns the process-wide ledger.
func Active() *Ledger { return active.Load() }

// SetActive installs l as the process-wide ledger and returns the
// previous one (which the caller should Close once quiescent).
func SetActive(l *Ledger) *Ledger { return active.Swap(l) }

// Record offers an event to the process-wide ledger.
func Record(ev Event) { active.Load().Record(ev) }
