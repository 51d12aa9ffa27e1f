package prov

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// Namespace is the dedicated SDL namespace chains persist to. Keys are
// "ev/<node>/<sn>/<idx>" with the sequence number and event index
// zero-padded so lexicographic SDL prefix scans return causal order.
const Namespace = "prov/ledger"

// Options configures a Ledger. The zero value gives a memory-only
// ledger with the defaults below.
type Options struct {
	// Store is the SDL to persist chains into; nil keeps the ledger
	// memory-only (events remain queryable until eviction).
	Store *sdl.Store
	// Buffer is the recording channel depth; events beyond it are
	// dropped (and counted) rather than blocking the pipeline.
	Buffer int
	// MaxChains bounds retention: beyond it the oldest chain is evicted
	// from memory and its SDL keys deleted.
	MaxChains int
	// MaxEventsPerChain caps one chain's event list; further events are
	// dropped and the chain marked truncated.
	MaxEventsPerChain int
	// Clock is injectable for tests.
	Clock func() time.Time
}

// Defaults for Options fields left zero.
const (
	DefaultBuffer            = 4096
	DefaultMaxChains         = 1024
	DefaultMaxEventsPerChain = 512

	// chainEventsHint is the capacity a new chain's event and key lists
	// start with — what a benign indication's chain reaches (emit,
	// transport, indication, a handful of window runs) — so the common
	// chain is allocated once instead of doubling its way up from one.
	chainEventsHint = 10
)

// Ledger is an append-only provenance store. Record is safe for
// concurrent use, never blocks, and allocates nothing; a single writer
// goroutine owns all mutation, coalescing runs of benign window
// observations (whatever a producer has not already folded) and
// enforcing the retention bounds.
type Ledger struct {
	store *sdl.Store
	clock func() time.Time

	maxChains int
	maxEvents int

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
	// enc is persistLocked's render buffer, reused from event to event.
	enc []byte
}

type chain struct {
	events []Event
	// keys[i] is the SDL key events[i] is persisted under (empty for a
	// memory-only ledger): the ledger deletes exactly what it wrote.
	keys      []string
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
	if o.MaxChains <= 0 {
		o.MaxChains = DefaultMaxChains
	}
	if o.MaxEventsPerChain <= 0 {
		o.MaxEventsPerChain = DefaultMaxEventsPerChain
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return &Ledger{
		store:     o.Store,
		clock:     o.Clock,
		maxChains: o.MaxChains,
		maxEvents: o.MaxEventsPerChain,
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
		c = &chain{events: make([]Event, 0, chainEventsHint)}
		if l.store != nil {
			c.keys = make([]string, 0, chainEventsHint)
		}
		l.admitLocked(ev.Chain)
		l.chains[ev.Chain] = c
	}

	// Runs of benign window observations for the same model coalesce
	// into one event: Count accumulates, Score keeps the worst seen,
	// and the sequence range / digest track the latest window. This
	// bounds chain growth in the steady state (the overwhelmingly
	// common case is "window scored, nothing fired").
	if n := len(c.events); n > 0 && ev.Kind == KindWindow && !ev.Flagged {
		last := &c.events[n-1]
		if last.Kind == KindWindow && !last.Flagged && last.Model == ev.Model {
			last.Count += ev.Count
			last.At = ev.At
			last.SeqLast = ev.SeqLast
			last.Digest = ev.Digest
			if ev.Score > last.Score {
				last.Score = ev.Score
			}
			l.persistLocked(ev.Chain, c, n-1)
			l.mu.Unlock()
			return
		}
	}

	if len(c.events) >= l.maxEvents {
		c.truncated = true
		l.mu.Unlock()
		return
	}
	c.events = append(c.events, ev)
	l.persistLocked(ev.Chain, c, len(c.events)-1)
	l.mu.Unlock()
}

// admitLocked enters a new chain into the FIFO ring, evicting the oldest
// chain once MaxChains are retained.
func (l *Ledger) admitLocked(id ChainID) {
	if len(l.order) < l.maxChains {
		l.order = append(l.order, id)
		return
	}
	l.evictLocked(l.order[l.head])
	l.order[l.head] = id
	l.head = (l.head + 1) % len(l.order)
}

// evictLocked drops a chain from memory and deletes its persisted keys.
// The cost is the chain's own event count: no scan of the namespace, so
// neighbours and foreign keys are never touched.
func (l *Ledger) evictLocked(id ChainID) {
	for _, k := range l.chains[id].keys {
		l.store.Delete(Namespace, k)
	}
	delete(l.chains, id)
	l.evicted.Add(1)
	obsEvicted.Inc()
}

// persistLocked writes c.events[idx] through to the SDL, under the key
// rendered when the event was first appended.
func (l *Ledger) persistLocked(id ChainID, c *chain, idx int) {
	if l.store == nil {
		return
	}
	data, ok := c.events[idx].appendJSON(l.enc[:0])
	l.enc = data
	if !ok {
		return // a non-finite score or an out-of-range time: json.Marshal refuses these too
	}
	if idx == len(c.keys) {
		c.keys = append(c.keys, eventKey(id, idx))
	}
	// The store keeps an exact-length copy, the event's one allocation;
	// the render buffer stays with the ledger.
	l.store.Set(Namespace, c.keys[idx], data)
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

// keyPrefix is the SDL key prefix holding one chain's events.
func keyPrefix(id ChainID) string {
	return string(appendKeyPrefix(make([]byte, 0, 64), id))
}

// eventKey is the SDL key for one event of a chain; the index is
// zero-padded to four digits.
func eventKey(id ChainID, idx int) string {
	return string(appendPadded(appendKeyPrefix(make([]byte, 0, 64), id), uint64(idx), 4))
}

// Flush blocks until every event recorded before the call has been
// applied to chain state (and the SDL, when persisting).
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

// Evicted reports how many chains retention has discarded.
func (l *Ledger) Evicted() uint64 { return l.evicted.Load() }

// ChainCount reports how many chains are held in memory.
func (l *Ledger) ChainCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.chains)
}

// active is the process-wide ledger pipeline packages record into. It
// starts memory-only so instrumentation is always safe to call; core
// swaps in an SDL-backed ledger at framework start.
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
