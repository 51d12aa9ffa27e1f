package main

import (
	"strconv"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/core"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/ue"
)

// Closed-loop sizing. The window stays below mobiwatch's ShardBuffer ×
// the gNB's per-indication batch, so a full window never overflows a
// queue and nothing is dropped.
const (
	chunkRecords  = 256  // records per InjectTelemetry call
	windowRecords = 2048 // outstanding: sent − WatchStats.RecordsSeen
	// ueStride separates the UE IDs of successive replay loops.
	ueStride = 100000
	// loopGap is the virtual time between two replay loops: the pause
	// CollectBenign leaves between sessions.
	loopGap = 300 * time.Millisecond
	// pollEvery is how often a full window is re-checked. The gNB drains
	// on a 10 ms ticker, so polling faster buys nothing.
	pollEvery = 500 * time.Microsecond
)

// replayer restamps a held-out benign trace so it can be replayed in a
// loop without the framework seeing the same record twice. Only Seq,
// UEID and Timestamp change: Seq is positional (strictly increasing,
// which core's dedup requires), the UE IDs of loop n are offset by
// n·ueStride, and Timestamp is shifted by n·span, which preserves every
// inter-arrival inside the trace. Timestamp is a model feature; it is
// never set to wall time. Wall-clock due times live in chunkAt.
type replayer struct {
	trace    mobiflow.Trace
	firstSeq uint64
	span     time.Duration
	pos      uint64 // records handed out so far
}

func newReplayer(tr mobiflow.Trace) *replayer {
	return &replayer{
		trace:    tr,
		firstSeq: 1,
		span:     tr[len(tr)-1].Timestamp.Sub(tr[0].Timestamp) + loopGap,
	}
}

// next overwrites dst with the next n restamped records.
func (r *replayer) next(dst mobiflow.Trace, n int) mobiflow.Trace {
	dst = dst[:0]
	size := uint64(len(r.trace))
	for i := 0; i < n; i++ {
		loop, idx := r.pos/size, r.pos%size
		rec := r.trace[idx]
		rec.Seq = r.firstSeq + r.pos
		rec.UEID += loop * ueStride
		rec.Timestamp = rec.Timestamp.Add(time.Duration(loop) * r.span)
		dst = append(dst, rec)
		r.pos++
	}
	return dst
}

// closedGen is the benign_capacity generator: it keeps windowRecords
// outstanding and injects the next chunk as soon as there is room.
type closedGen struct {
	fw   *core.Framework
	rep  *replayer
	tr   *tracer
	sent atomic.Uint64
	// chunkAt[k] is the wall time chunk k was injected: the due time of
	// its records. Written by run, read once run has returned.
	chunkAt []time.Time
}

func (g *closedGen) run(stop <-chan struct{}) {
	seen := &g.fw.WatchStats().RecordsSeen
	buf := make(mobiflow.Trace, 0, chunkRecords)
	for {
		select {
		case <-stop:
			return
		default:
		}
		if g.sent.Load()-seen.Load() > windowRecords-chunkRecords {
			time.Sleep(pollEvery)
			continue
		}
		buf = g.rep.next(buf, chunkRecords)
		start := time.Now()
		g.fw.GNB.InjectTelemetry(buf)
		end := time.Now()
		g.chunkAt = append(g.chunkAt, start)
		g.sent.Add(chunkRecords)
		g.tr.record("gnb.inject", 0, "chunk/"+strconv.Itoa(len(g.chunkAt)-1), start, end)
	}
}

// dueOf returns when the record with the given Seq was injected.
func (g *closedGen) dueOf(seq uint64) (time.Time, bool) {
	k := int((seq - g.rep.firstSeq) / chunkRecords)
	if seq < g.rep.firstSeq || k >= len(g.chunkAt) {
		return time.Time{}, false
	}
	return g.chunkAt[k], true
}

// Attack-episode parameters, as cmd/xsec-testbed launches them.
const (
	btsConnections = 8
	blindAttempts  = 6
	burstPace      = 500 * time.Microsecond // virtual time per DoS uplink
	sessionGap     = 300 * time.Millisecond // virtual time between sessions, as CollectBenign
	// lingerFor is the attacker contexts' inactivity timer: long enough
	// for a verdict to act on a live context, short enough that abandoned
	// contexts do not pile up and trip the flood feature on benign traffic.
	lingerFor = 50 * time.Millisecond
)

// attackKinds is the cycle the open-loop generator walks.
var attackKinds = []ue.AttackKind{
	ue.AttackBTSDoS, ue.AttackBlindDoS, ue.AttackUplinkIDExtraction,
	ue.AttackDownlinkIDExtraction, ue.AttackNullCipher,
}

// op is one executed generator operation.
type op struct {
	Kind     opKind
	Attack   ue.AttackKind
	Due      time.Time
	Start    time.Time
	End      time.Time
	UEIDs    []uint64
	Err      error
	Measured bool // due inside the measured interval
	// ReleaseDue is when an attack episode's contexts are due for release.
	ReleaseDue time.Time

	// Filled in by attribution after the run (attack episodes only).
	DetectAt  time.Time // Alert.At of the first agreeing case
	VerdictAt time.Time // when that case was received
}

// openGen is the attack_mix / alert_storm generator: one goroutine
// walking a due-ordered schedule against the real UE, gNB and AMF
// simulators, so mitigations hit real contexts.
type openGen struct {
	fw       *core.Framework
	tr       *tracer
	fleet    []*ue.UE
	attacker *ue.UE
	victim   ue.SessionResult
	late     lateness

	ops     []op
	pending []release // attacker contexts awaiting release, by time
	nAttack int
}

type release struct {
	at    time.Time
	ueids []uint64
}

func newOpenGen(fw *core.Framework, tr *tracer) (*openGen, error) {
	g := &openGen{fw: fw, tr: tr, fleet: fw.ProvisionFleet(10)}
	victim := fw.NewUE(ue.Pixel5, 900)
	vres, err := victim.RunSession(fw.GNB)
	if err != nil {
		return nil, err
	}
	g.victim = vres
	g.attacker = fw.NewUE(ue.OAIUE, 901)
	return g, nil
}

// run executes the schedule; measured marks the interval whose
// operations count.
func (g *openGen) run(start time.Time, sched []arrival, measuredFrom, measuredTo time.Duration) {
	g.ops = make([]op, 0, len(sched))
	for _, a := range sched {
		due := start.Add(a.Due)
		g.releaseUntil(due)
		sleepUntil(due)
		o := op{Kind: a.Kind, Due: due, Measured: a.Due >= measuredFrom && a.Due < measuredTo}
		o.Start = time.Now()
		g.late.observe(o.Start.Sub(due))
		if a.Kind == opSession {
			g.session(&o)
		} else {
			g.attack(&o)
		}
		g.ops = append(g.ops, o)
	}
	g.releaseUntil(time.Now().Add(lingerFor))
}

func (g *openGen) session(o *op) {
	u := g.fleet[len(g.ops)%len(g.fleet)]
	res, err := u.RunSession(g.fw.GNB)
	if !u.Profile.Deregisters {
		g.releaseUE(res.UEID)
	}
	g.fw.Clock().Advance(sessionGap)
	o.End = time.Now()
	o.UEIDs, o.Err = []uint64{res.UEID}, err
	g.tr.record("ue.session", 0, "ue/"+strconv.FormatUint(res.UEID, 10), o.Start, o.End)
}

func (g *openGen) attack(o *op) {
	o.Attack = attackKinds[g.nAttack%len(attackKinds)]
	g.nAttack++
	clock := g.fw.Clock()
	pace := 10 * time.Millisecond // core.NewUE's default
	if o.Attack == ue.AttackBTSDoS || o.Attack == ue.AttackBlindDoS {
		pace = burstPace
	}
	g.attacker.Pace = func() { clock.Advance(pace) }

	var res ue.AttackResult
	switch o.Attack {
	case ue.AttackBTSDoS:
		res, o.Err = g.attacker.RunBTSDoS(g.fw.GNB, btsConnections)
	case ue.AttackBlindDoS:
		res, o.Err = g.attacker.RunBlindDoS(g.fw.GNB, g.victim.GUTI.TMSI, blindAttempts)
	case ue.AttackUplinkIDExtraction:
		res, o.Err = g.attacker.RunUplinkIDExtraction(g.fw.GNB)
	case ue.AttackDownlinkIDExtraction:
		res, o.Err = g.attacker.RunDownlinkIDExtraction(g.fw.GNB)
	case ue.AttackNullCipher:
		res, o.Err = g.attacker.RunNullCipher(g.fw.GNB)
	}
	o.End = time.Now()
	o.UEIDs = res.UEIDs
	o.ReleaseDue = o.End.Add(lingerFor)
	g.pending = append(g.pending, release{at: o.ReleaseDue, ueids: res.UEIDs})
	g.tr.record("ue.attack", 0, "episode/"+strconv.Itoa(g.nAttack-1), o.Start, o.End)
}

// releaseUntil releases every lingering attacker context due by t.
func (g *openGen) releaseUntil(t time.Time) {
	for len(g.pending) > 0 && !g.pending[0].at.After(t) {
		sleepUntil(g.pending[0].at)
		for _, id := range g.pending[0].ueids {
			g.releaseUE(id)
		}
		g.pending = g.pending[1:]
	}
}

// releaseUE drops a context on both sides. A context the mitigation
// engine already released is not an error.
func (g *openGen) releaseUE(id uint64) {
	_ = g.fw.GNB.ReleaseUE(id)
	g.fw.AMF.ReleaseUE(id)
}
