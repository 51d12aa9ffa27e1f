package prov

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// ChainRecord is one reconstructed evidence chain, events in causal
// (ledger) order.
type ChainRecord struct {
	ID        ChainID `json:"id"`
	Key       string  `json:"key"` // the "node/sn" spelling, = trace key
	Events    []Event `json:"events"`
	Truncated bool    `json:"truncated,omitempty"`
}

// Has reports whether the chain contains at least one event of kind k.
func (c ChainRecord) Has(k Kind) bool {
	for i := range c.Events {
		if c.Events[i].Kind == k {
			return true
		}
	}
	return false
}

// MissingStages lists, for a chain that reached a mitigation, the
// causal stages an auditor expects but the ledger lacks. An empty
// result means the evidence chain is complete end to end.
func (c ChainRecord) MissingStages() []Kind {
	var missing []Kind
	for _, k := range []Kind{KindEmit, KindIndication, KindWindow, KindAlert, KindVerdict, KindMitigation} {
		if !c.Has(k) {
			missing = append(missing, k)
		}
	}
	return missing
}

// Query selects chains from a ledger.
type Query struct {
	// Chain, when its Node is non-empty, selects exactly one chain.
	Chain ChainID
	// UE, when non-nil, requires an event targeting that UE context.
	UE *uint64
	// Label, when non-empty, requires an event whose Label or Action
	// contains it (case-insensitive) — e.g. an attack class like
	// "bts-dos" or a lifecycle state like "issued".
	Label string
	// Since/Until bound the event time range (zero = unbounded).
	Since, Until time.Time
}

func (q Query) matches(c ChainRecord) bool {
	if q.Chain.Node != "" && c.ID != q.Chain {
		return false
	}
	if q.UE != nil {
		ok := false
		for i := range c.Events {
			if c.Events[i].UEID == *q.UE && c.Events[i].UEID != 0 {
				ok = true
				break
			}
		}
		if !ok && *q.UE != 0 {
			return false
		}
	}
	if q.Label != "" {
		want := strings.ToLower(q.Label)
		ok := false
		for i := range c.Events {
			if strings.Contains(strings.ToLower(c.Events[i].Label), want) ||
				strings.Contains(strings.ToLower(c.Events[i].Action), want) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if !q.Since.IsZero() || !q.Until.IsZero() {
		ok := false
		for i := range c.Events {
			at := c.Events[i].At
			if !q.Since.IsZero() && at.Before(q.Since) {
				continue
			}
			if !q.Until.IsZero() && at.After(q.Until) {
				continue
			}
			ok = true
			break
		}
		if !ok {
			return false
		}
	}
	return true
}

// Chain returns one retained chain; ok is false if unknown (it may still
// exist in the SDL — see ReadChain).
func (l *Ledger) Chain(id ChainID) (ChainRecord, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	c, ok := l.chains[id]
	if !ok {
		return ChainRecord{}, false
	}
	return l.readLocked(id, c), true
}

// Chains returns every retained chain, oldest first.
func (l *Ledger) Chains() []ChainRecord {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]ChainRecord, 0, len(l.order))
	for i := range l.order {
		id := l.order[(l.head+i)%len(l.order)]
		out = append(out, l.readLocked(id, l.chains[id]))
	}
	return out
}

// Select returns the retained chains matching q, oldest first.
func (l *Ledger) Select(q Query) []ChainRecord {
	var out []ChainRecord
	for _, c := range l.Chains() {
		if q.matches(c) {
			out = append(out, c)
		}
	}
	return out
}

// readLocked decodes a retained chain's events from the store, the only
// copy there is, so what a query returns is what an auditor reads back.
// A segment some other writer deleted or overwrote with what is not a
// segment is skipped: the ledger answers only for what it wrote.
func (l *Ledger) readLocked(id ChainID, c *chain) ChainRecord {
	rec := ChainRecord{ID: id, Key: id.String(), Events: make([]Event, 0, c.events), Truncated: c.truncated}
	for s := 0; s <= (c.events-1)/segmentEvents; s++ {
		if data, _, ok := l.store.Get(Namespace, segmentKey(id, s)); ok {
			if evs, err := appendSegment(rec.Events, id, data); err == nil {
				rec.Events = evs
			}
		}
	}
	return rec
}

// ReadChain reconstructs one chain from the SDL, for auditing after
// the ledger (or the process that owned it) is gone. The ledger writes a
// chain's segments contiguously from 0, so this gets them by key until
// the first miss: the cost is the chain's, not the namespace's.
func ReadChain(store *sdl.Store, id ChainID) (ChainRecord, error) {
	rec := ChainRecord{ID: id, Key: id.String()}
	for s := 0; ; s++ {
		data, _, ok := store.Get(Namespace, segmentKey(id, s))
		if !ok {
			break
		}
		var err error
		if rec.Events, err = appendSegment(rec.Events, id, data); err != nil {
			return ChainRecord{}, fmt.Errorf("prov: chain %s segment %d: %w", id, s, err)
		}
	}
	if len(rec.Events) == 0 {
		return ChainRecord{}, fmt.Errorf("prov: no persisted chain %s", id)
	}
	return rec, nil
}

// StoredChains lists the chain IDs persisted in the SDL — those with a
// segment 0, where ReadChain starts — ordered by node then sequence number.
func StoredChains(store *sdl.Store) []ChainID {
	var out []ChainID
	for _, k := range store.Keys(Namespace, "ev/") {
		if id, seg, ok := parseSegmentKey(k); ok && seg == 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].SN < out[j].SN
	})
	return out
}

// parseSegmentKey inverts segmentKey: "ev/<node>/<sn>/<seg>". The node
// may contain slashes; sn and seg are the fixed-width trailing parts.
func parseSegmentKey(key string) (ChainID, int, bool) {
	rest, ok := strings.CutPrefix(key, "ev/")
	if !ok {
		return ChainID{}, 0, false
	}
	j := strings.LastIndexByte(rest, '/')
	if j < 0 {
		return ChainID{}, 0, false
	}
	seg, err := strconv.Atoi(rest[j+1:])
	if err != nil {
		return ChainID{}, 0, false
	}
	rest = rest[:j]
	i := strings.LastIndexByte(rest, '/')
	if i <= 0 {
		return ChainID{}, 0, false
	}
	sn, err := strconv.ParseUint(rest[i+1:], 10, 64)
	if err != nil {
		return ChainID{}, 0, false
	}
	return ChainID{Node: rest[:i], SN: sn}, seg, true
}

// init mounts the query endpoint on the obs HTTP mux:
//
//	/prov                          every retained chain
//	/prov?chain=gnb-1/42           one chain
//	/prov?ue=5                     chains touching UE 5
//	/prov?label=bts-dos            chains mentioning an attack/state label
//	/prov?since=...&until=...      RFC 3339 time bounds
func init() {
	obs.Handle("/prov", http.HandlerFunc(serveProv))
}

func serveProv(w http.ResponseWriter, r *http.Request) {
	var q Query
	qs := r.URL.Query()
	if s := qs.Get("chain"); s != "" {
		id, err := ParseChainID(s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q.Chain = id
	}
	if s := qs.Get("ue"); s != "" {
		ue, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad ue: "+err.Error(), http.StatusBadRequest)
			return
		}
		q.UE = &ue
	}
	q.Label = qs.Get("label")
	for name, dst := range map[string]*time.Time{"since": &q.Since, "until": &q.Until} {
		if s := qs.Get(name); s != "" {
			t, err := time.Parse(time.RFC3339, s)
			if err != nil {
				http.Error(w, "bad "+name+": "+err.Error(), http.StatusBadRequest)
				return
			}
			*dst = t
		}
	}
	chains := Active().Select(q)
	if chains == nil {
		chains = []ChainRecord{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(chains)
}

// WriteChain pretty-prints one evidence chain for a human auditor:
// every link with its timestamps, digests, and — for detector events —
// the exact score and threshold that fired. Shared by xsec-audit and
// debugging sessions against /prov output.
func WriteChain(w io.Writer, c ChainRecord) {
	fmt.Fprintf(w, "chain %s  (%d events", c.Key, len(c.Events))
	if c.Truncated {
		fmt.Fprint(w, ", truncated")
	}
	fmt.Fprintln(w, ")")
	for i, ev := range c.Events {
		fmt.Fprintf(w, "  [%d] %s  %-10s", i+1, ev.At.Format("15:04:05.000000"), ev.Kind)
		switch ev.Kind {
		case KindEmit:
			fmt.Fprintf(w, " %d records, seq %d..%d, batch digest %s", ev.Records, ev.SeqFirst, ev.SeqLast, ev.Digest)
		case KindTransport, KindIndication:
			if ev.Label != "" {
				fmt.Fprintf(w, " %s", ev.Label)
			}
		case KindWindow:
			verdictMark := "benign"
			if ev.Flagged {
				verdictMark = "FLAGGED"
			}
			fmt.Fprintf(w, " model=%s score=%.6f threshold=%.6f %s", ev.Model, ev.Score, ev.Threshold, verdictMark)
			if ev.Count > 1 {
				fmt.Fprintf(w, " (×%d windows, max score shown)", ev.Count)
			}
			fmt.Fprintf(w, "\n%swindow seq %d..%d, feature digest %s", strings.Repeat(" ", 34), ev.SeqFirst, ev.SeqLast, ev.Digest)
		case KindAlert:
			fmt.Fprintf(w, " model=%s score=%.6f threshold=%.6f", ev.Model, ev.Score, ev.Threshold)
			if ev.Label != "" {
				fmt.Fprintf(w, " (%s)", ev.Label)
			}
		case KindVerdict:
			fmt.Fprintf(w, " verdict=%s", ev.Label)
			if ev.Action != "" {
				fmt.Fprintf(w, " class=%s", ev.Action)
			}
			if ev.Score > 0 {
				fmt.Fprintf(w, " confidence=%.2f", ev.Score)
			}
			if ev.Digest != 0 {
				fmt.Fprintf(w, " prompt digest %s", ev.Digest)
			}
		case KindMitigation:
			fmt.Fprintf(w, " action#%d %s → %s", ev.ActionID, ev.Action, ev.Label)
			if ev.Target != "" {
				fmt.Fprintf(w, " target=%s", ev.Target)
			}
			if ev.UEID != 0 {
				fmt.Fprintf(w, " ue=%d", ev.UEID)
			}
		case KindMigration:
			fmt.Fprintf(w, " %s ue=%d seq %d..%d", ev.Label, ev.UEID, ev.SeqFirst, ev.SeqLast)
			if ev.Target != "" {
				fmt.Fprintf(w, " dest=%s", ev.Target)
			}
		}
		if ev.Note != "" {
			fmt.Fprintf(w, "\n%snote: %s", strings.Repeat(" ", 34), ev.Note)
		}
		fmt.Fprintln(w)
	}
}
