package fleet

import (
	"sort"
	"time"

	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// Trace stitching: a UE that migrates mid-attack leaves spans on two
// (or more) instances under different chain keys — "gnb-a/17" on the
// source, "gnb-b/3" on the destination. The provenance ledger already
// links those chains (the migration "in" event's Note names the source
// chain), so the stitcher walks the link graph from AuditMigrations,
// orders the chains source→destination, and attaches each instance's
// reported spans to its segment. The result is one distributed trace
// for the UE's whole journey, queryable from the SMO without touching
// any instance.

// TraceSegment is one chain's worth of a stitched trace: the spans one
// instance recorded under one chain key.
type TraceSegment struct {
	// Chain is the trace key ("node/sn") of this segment.
	Chain string `json:"chain"`
	// Instance and Node identify who recorded the segment (resolved from
	// heartbeat metadata; empty when the node never heartbeated).
	Instance string `json:"instance,omitempty"`
	Node     string `json:"node,omitempty"`
	// Migrated is true when this segment ends in a migration out (i.e. a
	// later segment continues the trace elsewhere).
	Migrated bool       `json:"migrated,omitempty"`
	Spans    []obs.Span `json:"spans"`
}

// StitchedTrace is one UE's cross-instance distributed trace.
type StitchedTrace struct {
	UEID uint64 `json:"ue_id"`
	// Segments in causal order: source chain(s) first, final owner last.
	Segments []TraceSegment `json:"segments"`
	// Start/End bound the whole trace across all segments' spans (zero
	// when no spans were reported for any segment).
	Start time.Time `json:"start,omitempty"`
	End   time.Time `json:"end,omitempty"`
	// Complete is true when every migration hop in the chain was
	// provenance-audited as joined (the ledger saw both sides).
	Complete bool `json:"complete"`
}

// spanIndex groups reported spans by trace key across all instances.
type spanIndex map[string][]obs.Span

func buildSpanIndex(reports map[string]Report) spanIndex {
	idx := make(spanIndex)
	for _, rep := range reports {
		for _, sp := range rep.Spans {
			idx[sp.Key] = append(idx[sp.Key], sp)
		}
	}
	for key := range idx {
		spans := idx[key]
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
		idx[key] = spans
	}
	return idx
}

// nodeOwner maps a chain's node prefix ("gnb-ric-0") to the instance
// that owns it, from heartbeat metadata.
func nodeOwner(health map[string]*InstanceHealth, node string) string {
	for id, h := range health {
		if h.Node == node {
			return id
		}
	}
	return ""
}

// Stitch assembles cross-instance traces for every audited migration in
// the store. Chains that migrated more than once are followed
// transitively (a→b→c collapses into one three-segment trace).
func Stitch(store *sdl.Store, spans spanIndex, health map[string]*InstanceHealth) []StitchedTrace {
	audits := prov.AuditMigrations(store)
	if len(audits) == 0 {
		return nil
	}

	// Link graph: source chain → audit. A chain that appears as some
	// audit's From is not a trace head; heads are the earliest chains.
	byFrom := make(map[prov.ChainID]prov.MigrationAudit, len(audits))
	isDest := make(map[prov.ChainID]bool, len(audits))
	for _, a := range audits {
		if a.From != (prov.ChainID{}) {
			byFrom[a.From] = a
		}
		isDest[a.To] = true
	}

	var out []StitchedTrace
	for _, a := range audits {
		head := a.From
		if head == (prov.ChainID{}) || isDest[head] {
			continue // unparseable source, or a middle hop of a longer trace
		}
		tr := StitchedTrace{UEID: a.UEID, Complete: true}
		// Walk head → … → final owner, guarding against ledger cycles.
		cur, hops := head, 0
		for hops < 64 {
			hops++
			next, ok := byFrom[cur]
			seg := TraceSegment{
				Chain:    cur.String(),
				Node:     cur.Node,
				Instance: nodeOwner(health, cur.Node),
				Migrated: ok,
				Spans:    spans[cur.String()],
			}
			tr.Segments = append(tr.Segments, seg)
			if !ok {
				break
			}
			if !next.Joined {
				tr.Complete = false
			}
			cur = next.To
		}
		for _, seg := range tr.Segments {
			for _, sp := range seg.Spans {
				if tr.Start.IsZero() || sp.Start.Before(tr.Start) {
					tr.Start = sp.Start
				}
				if sp.End.After(tr.End) {
					tr.End = sp.End
				}
			}
		}
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].UEID != out[j].UEID {
			return out[i].UEID < out[j].UEID
		}
		return out[i].Segments[0].Chain < out[j].Segments[0].Chain
	})
	return out
}
