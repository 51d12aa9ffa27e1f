package mobiwatch

import (
	"fmt"
	"sort"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/prov"
)

// This file is the xApp's UE-state migration surface: checkpointing one
// UE's sliding-window history out of a running worker and restoring it
// into another instance's worker, so a UE handing over between RICs
// keeps its detection continuity (an attacker must not be able to
// launder anomaly-window history by forcing handovers). The federation
// layer (internal/fed) drives these; the worker's scoring goroutine
// itself executes every operation through its control channel, so no
// scoring state is ever touched concurrently. An operation sees the UE as
// of the last batch scored: batches intake has decoded but the scorer has
// not taken yet are in the same position as indications still queued at
// the RIC — not in a checkpoint taken now, scored here afterwards.

// UESnapshot is one UE's portable detection state: the telemetry records
// the owning worker still holds for it, plus the provenance chain of the
// last indication scored for the UE (Node/LastSN) so the new owner can
// join its chain to the old one with a migration link.
type UESnapshot struct {
	// UE is the CU-local UE context ID.
	UE uint64
	// Node and LastSN name the provenance chain of the UE's last scored
	// indication on the old owner — the chain the migration "out" event
	// lives on. For a UE that was itself restored and never scored
	// again, these forward the original source chain, so multi-hop
	// migrations stay joined to where the history actually lives.
	Node   string
	LastSN uint64
	// Records is the UE's trailing telemetry (window + context history).
	Records mobiflow.Trace
}

// Snapshot TLV tags.
const (
	snapTagUE      = 1
	snapTagNode    = 2
	snapTagLastSN  = 3
	snapTagRecords = 4
)

// MarshalTLV implements asn1lite.Marshaler.
func (s *UESnapshot) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(snapTagUE, s.UE)
	e.PutString(snapTagNode, s.Node)
	e.PutUint(snapTagLastSN, s.LastSN)
	e.PutBytes(snapTagRecords, mobiflow.EncodeTrace(s.Records))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (s *UESnapshot) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		var err error
		switch d.Tag() {
		case snapTagUE:
			s.UE, err = d.Uint()
		case snapTagNode:
			s.Node, err = d.String()
		case snapTagLastSN:
			s.LastSN, err = d.Uint()
		case snapTagRecords:
			var raw []byte
			raw, err = d.Bytes()
			if err == nil {
				s.Records, err = mobiflow.DecodeTrace(raw)
			}
		}
		if err != nil {
			return fmt.Errorf("mobiwatch: snapshot tag %d: %w", d.Tag(), err)
		}
	}
	return d.Err()
}

// EncodeSnapshot serializes a snapshot for bus transport.
func EncodeSnapshot(s *UESnapshot) []byte { return asn1lite.Marshal(s) }

// DecodeSnapshot parses a snapshot from its wire form.
func DecodeSnapshot(data []byte) (*UESnapshot, error) {
	var s UESnapshot
	if err := asn1lite.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// chainMark remembers which provenance chain last scored a UE, so a
// checkpoint can name the chain its migration "out" event belongs on.
type chainMark struct {
	node string
	sn   uint64
}

// ueIdleHorizon is how long a UE context may stay silent, once its records
// have left the worker's history, before its bookkeeping is forgotten: a
// worker's ueMarks holds between one and two horizons' worth of UEs (≈ 50 B
// each) instead of every UE ever seen. A gNB releases an inactive context
// within seconds and a handover drill completes in less, so half a minute
// is generous; a UE idle for longer has no history left to migrate.
const ueIdleHorizon = 30 * time.Second

// ueMarks is a worker's chainMark per UE, in two generations so that
// forgetting is a map swap rather than a scan: a UE seen moves to cur, and
// each horizon old is dropped, cur becomes old and a new cur starts.
type ueMarks struct {
	cur, old map[uint64]chainMark
	turned   time.Time // arrival time of the indication that began cur
}

func (u *ueMarks) get(ue uint64) (chainMark, bool) {
	if m, ok := u.cur[ue]; ok {
		return m, true
	}
	m, ok := u.old[ue]
	return m, ok
}

func (u *ueMarks) put(ue uint64, m chainMark) {
	u.cur[ue] = m
	delete(u.old, ue)
}

func (u *ueMarks) forget(ue uint64) {
	delete(u.cur, ue)
	delete(u.old, ue)
}

func (u *ueMarks) len() int { return len(u.cur) + len(u.old) }

// forgetIdle turns the generations once per ueIdleHorizon of RIC arrival
// time, from the ingest path. What the old generation still held is
// forgotten as ctrlForget would, except UEs whose state is still live:
// records in the history, or a restored snapshot waiting for its join.
// Replays without arrival times (now is zero) forget nothing.
func (w *worker) forgetIdle(now time.Time) {
	u := &w.ues
	if now.IsZero() || now.Sub(u.turned) < ueIdleHorizon {
		return
	}
	keep := func(ue uint64) {
		if m, ok := u.old[ue]; ok {
			u.put(ue, m)
		}
	}
	for i := range w.recent {
		keep(w.recent[i].UEID)
	}
	for ue := range w.joins {
		keep(ue)
	}
	u.old, u.cur, u.turned = u.cur, make(map[uint64]chainMark), now
}

// joinInfo is a pending migration join: state restored for a UE whose
// first post-restore indication has not arrived yet. When it does, the
// worker records the migration "in" event on that indication's chain.
type joinInfo struct {
	src      prov.ChainID
	seqFirst uint64
	seqLast  uint64
}

// ctrl operations, executed by the owning worker's scoring goroutine.
type ctrlKind uint8

const (
	ctrlCheckpoint ctrlKind = iota
	ctrlRestore
	ctrlForget
	ctrlList
)

type ctrlOp struct {
	kind  ctrlKind
	ue    uint64
	snap  *UESnapshot
	reply chan ctrlReply
}

type ctrlReply struct {
	snap *UESnapshot
	ues  []uint64
	ok   bool
}

// handleCtrl executes one migration operation on the worker's own state.
func (w *worker) handleCtrl(op ctrlOp) {
	var r ctrlReply
	switch op.kind {
	case ctrlCheckpoint:
		r.snap, r.ok = w.checkpoint(op.ue)
	case ctrlRestore:
		w.restore(op.snap)
		r.ok = true
	case ctrlForget:
		w.ues.forget(op.ue)
		delete(w.joins, op.ue)
		r.ok = true
	case ctrlList:
		r.ues = make([]uint64, 0, w.ues.len())
		for _, gen := range []map[uint64]chainMark{w.ues.cur, w.ues.old} {
			for ue := range gen {
				r.ues = append(r.ues, ue)
			}
		}
		r.ok = true
	}
	op.reply <- r
}

// checkpoint copies the UE's detection state out of the worker. The
// records stay in the worker's history (they age out on their own);
// ForgetUE drops the ownership bookkeeping once the snapshot has safely
// reached the new owner — checkpoint → publish → forget, so a failed
// handoff loses nothing.
func (w *worker) checkpoint(ue uint64) (*UESnapshot, bool) {
	mark, ok := w.ues.get(ue)
	if !ok {
		return nil, false
	}
	return &UESnapshot{
		UE:      ue,
		Node:    mark.node,
		LastSN:  mark.sn,
		Records: w.recent.FilterUE(ue), // FilterUE copies
	}, true
}

// restore replays a snapshot's records through the worker's feature
// encoder, rebuilding the sliding-window history (and the encoder's
// identity state for the UE) without enqueueing or scoring any window —
// the first window scored for the UE is the one its first post-restore
// indication completes, and it sees the pre-migration history.
func (w *worker) restore(snap *UESnapshot) {
	for _, rec := range snap.Records {
		w.recent = append(w.recent, rec)
		w.rows.Push(w.encoder, rec)
		w.trimHistory()
	}
	// The restored-but-not-yet-scored UE stays attributed to its source
	// chain: a further checkpoint before any new indication forwards the
	// original chain, keeping multi-hop migrations joined.
	w.ues.put(snap.UE, chainMark{node: snap.Node, sn: snap.LastSN})
	w.joins[snap.UE] = joinInfo{
		src:      prov.ChainID{Node: snap.Node, SN: snap.LastSN},
		seqFirst: snap.Records.FirstSeq(),
		seqLast:  snap.Records.LastSeq(),
	}
}

// exec routes one control operation to the worker owning the UE's shard
// (the same "ue mod shards" partition the dispatch layer uses) and waits
// for the worker to execute it. Fails once the runtime has stopped.
func (rt *Runtime) exec(op ctrlOp) (ctrlReply, error) {
	w := rt.workers[op.ue%uint64(len(rt.workers))]
	select {
	case w.ctrl <- op:
	case <-rt.done:
		return ctrlReply{}, fmt.Errorf("mobiwatch: runtime stopped")
	}
	select {
	case r := <-op.reply:
		return r, nil
	case <-rt.done:
		return ctrlReply{}, fmt.Errorf("mobiwatch: runtime stopped")
	}
}

// CheckpointUE serializes one UE's detection state for migration. The
// state remains live on this instance until ForgetUE.
func (rt *Runtime) CheckpointUE(ue uint64) (*UESnapshot, error) {
	r, err := rt.exec(ctrlOp{kind: ctrlCheckpoint, ue: ue, reply: make(chan ctrlReply, 1)})
	if err != nil {
		return nil, err
	}
	if !r.ok {
		return nil, fmt.Errorf("mobiwatch: no state for UE %d", ue)
	}
	return r.snap, nil
}

// RestoreUE installs a migrated UE's detection state before its first
// indication arrives on this instance.
func (rt *Runtime) RestoreUE(snap *UESnapshot) error {
	_, err := rt.exec(ctrlOp{kind: ctrlRestore, ue: snap.UE, snap: snap, reply: make(chan ctrlReply, 1)})
	return err
}

// ForgetUE drops the ownership bookkeeping for a UE whose state has
// been handed to another instance. Residual records age out of the
// window history on their own.
func (rt *Runtime) ForgetUE(ue uint64) error {
	_, err := rt.exec(ctrlOp{kind: ctrlForget, ue: ue, reply: make(chan ctrlReply, 1)})
	return err
}

// UEs lists every UE context this instance holds detection state for,
// sorted.
func (rt *Runtime) UEs() []uint64 {
	var out []uint64
	for i := range rt.workers {
		r, err := rt.exec(ctrlOp{kind: ctrlList, ue: uint64(i), reply: make(chan ctrlReply, 1)})
		if err != nil {
			break
		}
		out = append(out, r.ues...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
