package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ue"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or mean (0: a count or
	// ratio of counters).
	N int `json:"n,omitempty"`
}

// check is one line of the correctness gate.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// report is what one workload run prints and writes.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	GoMaxProcs int               `json:"gomaxprocs"`
	NProc      int               `json:"nproc"`
	Commit     string            `json:"commit"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Checks     []check           `json:"checks"`
	Warnings   []string          `json:"warnings,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer"`
	LateHistMS []int             `json:"late_hist_ms,omitempty"` // counts per lateBoundsMS bucket
	TraceFile  string            `json:"trace_file,omitempty"`
	// SelfMS is, per span name of a traced run, the total span time not
	// covered by child spans.
	SelfMS map[string]float64 `json:"self_ms,omitempty"`

	order []string // metric names in print order
}

func (rep *report) e2e(name string, v float64, unit string, n int) {
	rep.EndToEnd[name] = metric{Value: v, Unit: unit, N: n}
	rep.order = append(rep.order, name)
}

func (rep *report) layer(name string, v float64, unit string) {
	rep.PerLayer[name] = metric{Value: v, Unit: unit}
	rep.order = append(rep.order, name)
}

func (rep *report) check(name string, ok bool, format string, args ...any) {
	rep.Checks = append(rep.Checks, check{name, ok, fmt.Sprintf(format, args...)})
	if !ok {
		rep.Correct = false
	}
}

// Recall floors of the correctness gate on attack_mix, by attack kind.
// The two identity-extraction attacks that blend into benign traffic are
// reported but not gated (the paper's Table 3 shows the same split).
var recallFloor = map[ue.AttackKind]float64{
	ue.AttackBTSDoS:               0.95,
	ue.AttackBlindDoS:             0.95,
	ue.AttackDownlinkIDExtraction: 0.95,
}

// lateLimitMS flags a run whose generator fell behind its schedule.
const lateLimitMS = 20

// timedCase is a received case joined to the generator operation that
// caused it.
type timedCase struct {
	received
	Due     time.Time
	Episode int  // index into Open.ops of the attack episode, -1 if none
	InRun   bool // due inside the measured interval
}

// attribute joins cases to what the generator did. Open loop: a case
// belongs to every attack episode that owns a UE ID in its window (the
// first agreeing one stamps the episode), and its due time is that of
// the operation owning the window's newest record. Closed loop: the due
// time is when the chunk holding the window's newest record went in.
func attribute(r *run) []timedCase {
	out := make([]timedCase, 0, len(r.Cases))
	if r.Closed != nil {
		for _, rc := range r.Cases {
			win := rc.Case.Alert.Window
			due, ok := r.Closed.dueOf(win[len(win)-1].Seq)
			if !ok {
				continue
			}
			out = append(out, timedCase{received: rc, Due: due, Episode: -1,
				InRun: !due.Before(r.A.At) && due.Before(r.B.At)})
		}
		return out
	}
	ops := r.Open.ops
	owner := make(map[uint64]int)
	for i := range ops {
		for _, id := range ops[i].UEIDs {
			owner[id] = i
		}
	}
	for _, rc := range r.Cases {
		win := rc.Case.Alert.Window
		tc := timedCase{received: rc, Episode: -1}
		for _, rec := range win {
			i, ok := owner[rec.UEID]
			if !ok || ops[i].Kind != opAttack {
				continue
			}
			if tc.Episode < 0 {
				tc.Episode = i
			}
			if rc.Case.Agree && ops[i].DetectAt.IsZero() {
				ops[i].DetectAt, ops[i].VerdictAt = rc.Case.Alert.At, rc.At
			}
		}
		i, ok := owner[win[len(win)-1].UEID]
		if !ok {
			continue // the victim's set-up session, before the schedule
		}
		// The generator touches an attacker context twice: the episode
		// and, lingerFor later, its release, which emits records too.
		// The case is due to whichever came last before its indication.
		tc.Due, tc.InRun = ops[i].Due, ops[i].Measured
		if rel := ops[i].ReleaseDue; !rel.IsZero() && !rel.After(rc.Case.Alert.ReceivedAt) {
			tc.Due = rel
		}
		out = append(out, tc)
	}
	return out
}

// segNames are the four children of every case span; they partition
// due → received using the wall-clock stamps analyzer.Case carries.
var segNames = [4]string{"seg.gnb_e2", "seg.score", "seg.alert_queue", "seg.verdict"}

// segments returns the boundaries of a case's four segments.
func segments(tc timedCase) [5]time.Time {
	a := tc.Case.Alert
	return [5]time.Time{tc.Due, a.ReceivedAt, a.At, tc.Case.ProcessedAt, tc.At}
}

func derive(r *run, commit string) *report {
	rep := &report{
		Workload: r.W.Name, Seed: r.Cfg.Seed, Seconds: r.Cfg.Seconds, Trace: r.Tracer != nil,
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Commit: commit, Correct: true,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
	secs := r.B.At.Sub(r.A.At).Seconds()
	cases := attribute(r)
	records := float64(r.B.Records - r.A.Records)

	// Latency samples, all in ms from the due time: per case, then per
	// attack episode (its first agreeing case).
	var detect, verdict, epDetect, epVerdict, mitig, ack []float64
	var seg [4][]float64
	negative, falseCases := 0, 0
	sample := func(d time.Duration) float64 { // every latency passes through here
		if d < 0 {
			negative++
		}
		return ms(d)
	}
	for _, tc := range cases {
		if !tc.InRun {
			continue
		}
		if tc.Episode < 0 {
			falseCases++
		}
		b := segments(tc)
		for i := range seg {
			seg[i] = append(seg[i], sample(b[i+1].Sub(b[i])))
		}
		if r.Tracer != nil {
			key := prov.ChainID{Node: tc.Case.Alert.NodeID, SN: tc.Case.Alert.IndicationSN}.String()
			parent := r.Tracer.record("case", 0, key, b[0], b[4])
			for i, name := range segNames {
				r.Tracer.record(name, parent, key, b[i], b[i+1])
			}
		}
		detect = append(detect, sample(tc.Case.Alert.At.Sub(tc.Due)))
		verdict = append(verdict, sample(tc.At.Sub(tc.Due)))
	}

	// Episodes, recall and benign-session bookkeeping (open loop).
	launched := map[ue.AttackKind]int{}
	detected := map[ue.AttackKind]int{}
	var sessions, sessionErrs, rejected, episodes, refused int
	if r.Open != nil {
		for _, o := range r.Open.ops {
			if !o.Measured {
				continue
			}
			if o.Kind == opSession {
				sessions++
				switch {
				case errors.Is(o.Err, ue.ErrRejected):
					rejected++ // a mitigation blocked this UE's TMSI: collateral damage, not a generator failure
				case o.Err != nil:
					if sessionErrs++; sessionErrs <= 3 {
						rep.Warnings = append(rep.Warnings, fmt.Sprintf("benign session failed: %v", o.Err))
					}
				}
				continue
			}
			episodes++
			launched[o.Attack]++
			if o.Err != nil {
				refused++
			}
			if o.DetectAt.IsZero() {
				continue
			}
			detected[o.Attack]++
			epDetect = append(epDetect, sample(o.DetectAt.Sub(o.Due)))
			epVerdict = append(epVerdict, sample(o.VerdictAt.Sub(o.Due)))
		}
	}
	// Mitigations: journal entry → chain → case → episode → due time.
	var proposed, acked, failed, suppressed int
	bySN := map[uint64]timedCase{}
	for _, tc := range cases {
		if tc.Case.Control != nil {
			if _, dup := bySN[tc.Case.Alert.IndicationSN]; !dup {
				bySN[tc.Case.Alert.IndicationSN] = tc
			}
		}
	}
	for _, en := range r.Entries {
		id, err := prov.ParseChainID(en.Chain)
		tc, ok := bySN[id.SN]
		if err != nil || !ok || !tc.InRun {
			continue
		}
		proposed++
		if _, ok := transitionAt(en, mitigate.StateSuppressed); ok {
			suppressed++
		}
		if _, ok := transitionAt(en, mitigate.StateFailed); ok {
			failed++
		}
		at, ok := transitionAt(en, mitigate.StateAcked)
		if !ok {
			continue
		}
		acked++
		p, _ := transitionAt(en, mitigate.StateProposed)
		ack = append(ack, ms(at.Sub(p)))
		mitig = append(mitig, sample(at.Sub(tc.Due)))
	}

	dDetect, dVerdict := summarize(detect), summarize(verdict)

	// End-to-end metrics: defined on every workload, never zero.
	rep.e2e("setup_s", median(r.Fx.SetupS), "s", len(r.Fx.SetupS))
	// The sampler runs on through the drain; the slices stop at mark B.
	pts := []recordsAt{{r.A.At, r.A.Records}}
	for _, p := range r.Smp.Ticks {
		if p.At.Before(r.B.At) {
			pts = append(pts, p)
		}
	}
	rates := sliceRates(append(pts, recordsAt{r.B.At, r.B.Records}))
	rep.e2e("records_per_s", median(rates), "rec/s", len(rates))
	rep.e2e("detect_ms_p50", dDetect.P50, "ms", dDetect.N)
	rep.e2e("verdict_ms_p50", dVerdict.P50, "ms", dVerdict.N)
	totalRecords := float64(r.End.Records)
	rep.e2e("heap_retained_b_per_rec", ratio(float64(r.HeapEnd)-float64(r.Heap0), totalRecords), "B/rec", 0)
	if dDetect.Tail < 90 {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"loop.detect_ms_p90 rests on %d samples; the highest percentile they support is p%g", dDetect.N, dDetect.Tail))
	}
	dEpDetect, dEpVerdict := summarize(epDetect), summarize(epVerdict)

	// Per-layer metrics. Counts are differences over the measured
	// interval; *_ns_* come from the probes of a traced run.
	A, B := r.A.Obs, r.B.Obs
	node := r.Node
	count := func(name string, kv ...string) float64 {
		v, _, _ := delta(A, B, name, kv...)
		return v
	}
	probe := func(name string) float64 { return r.Probes[name] }

	ind := count("xsec_gnb_indications_sent_total", "node", node)
	shipped := count("xsec_gnb_mobiflow_records_total", "node", node)
	rep.layer("gnb.indications", ind, "count")
	rep.layer("gnb.records_per_indication", ratio(shipped, ind), "rec")
	rep.layer("gnb.inject_ns_per_record", probe("gnb.inject_ns_per_record"), "ns")

	rep.layer("e2ap.encode_ns_per_indication", probe("e2ap.encode_ns_per_indication"), "ns")
	rep.layer("e2ap.decode_ns_per_indication", probe("e2ap.decode_ns_per_indication"), "ns")
	rep.layer("e2ap.bytes_per_record", probe("e2ap.bytes_per_record"), "B")

	routed := count("xsec_ric_indications_total", "xapp", "mobiwatch", "outcome", "routed")
	ricDropped := count("xsec_ric_indications_total", "xapp", "mobiwatch", "outcome", "dropped")
	rep.layer("ric.routed", routed, "count")
	rep.layer("ric.dropped", ricDropped, "count")
	rep.layer("ric.drop_ratio", ratio(ricDropped, routed+ricDropped), "ratio")

	rep.layer("sdl.set_ns", probe("sdl.set_ns"), "ns")
	rep.layer("sdl.mobiflow_keys", float64(r.SDLKeys), "count")
	rep.layer("feature.encode_ns_per_record", probe("feature.encode_ns_per_record"), "ns")
	rep.layer("nn.ae_ns_per_window", probe("nn.ae_ns_per_window"), "ns")
	rep.layer("nn.lstm_ns_per_window", probe("nn.lstm_ns_per_window"), "ns")

	raised := count("xsec_mobiwatch_alerts_total", "outcome", "raised")
	droppedAlerts := count("xsec_mobiwatch_alerts_total", "outcome", "dropped")
	_, scoreSum, _ := delta(A, B, "xsec_mobiwatch_score_seconds")
	_, flagSum, flagN := delta(A, B, "xsec_mobiwatch_flag_seconds")
	rep.layer("mobiwatch.records", records, "count")
	rep.layer("mobiwatch.windows", count("xsec_mobiwatch_windows_scored_total"), "count")
	rep.layer("mobiwatch.alerts_raised", raised, "count")
	rep.layer("mobiwatch.alerts_dropped", droppedAlerts, "count")
	rep.layer("mobiwatch.score_us_per_record", ratio(scoreSum*1e6, records), "us")
	rep.layer("mobiwatch.busy_share", scoreSum/secs, "ratio")
	rep.layer("mobiwatch.flag_ms_mean", ratio(flagSum*1e3, float64(flagN)), "ms")

	processed := count("xsec_analyzer_cases_total")
	failures := count("xsec_analyzer_cases_total", "outcome", "llm_failure")
	_, latSum, latN := delta(A, B, "xsec_detect_latency_seconds")
	nCases := float64(r.B.Cases - r.A.Cases)
	rep.layer("analyzer.cases", processed, "count")
	rep.layer("analyzer.failures", failures, "count")
	rep.layer("analyzer.agree_ratio", ratio(count("xsec_analyzer_cases_total", "outcome", "agreement"), processed), "ratio")
	rep.layer("analyzer.ric_to_verdict_ms_mean", ratio(latSum*1e3, float64(latN)), "ms")
	rep.layer("analyzer.verdicts_per_s", nCases/secs, "1/s")

	hits, coalesced := count("xsec_llm_cache_hits_total"), count("xsec_llm_coalesced_total")
	shed, served := count("xsec_llm_shed_total"), count("xsec_llm_served_total")
	_, reqSum, reqN := delta(A, B, "xsec_llm_request_seconds")
	rep.layer("llm.upstream_requests", count("xsec_llm_requests_total"), "count")
	rep.layer("llm.request_ms_mean", ratio(reqSum*1e3, float64(reqN)), "ms")
	rep.layer("llm.cache_hit_ratio", ratio(hits, served), "ratio")
	rep.layer("llm.coalesced", coalesced, "count")
	rep.layer("llm.degraded_ratio", ratio(shed, served), "ratio")
	rep.layer("llm.hedge_attempts", count("xsec_llm_hedge_attempts_total"), "count")
	rep.layer("llm.prompt_tokens_per_case", ratio(count("xsec_llm_prompt_tokens_total"), processed), "tok")
	rep.layer("llm.analyze_ms_cold", probe("llm.analyze_ms_cold"), "ms")
	rep.layer("llm.analyze_ms_warm", probe("llm.analyze_ms_warm"), "ms")

	dMitig, dAck := summarize(mitig), summarize(ack)
	rep.layer("mitigate.proposed", float64(proposed), "count")
	rep.layer("mitigate.acked", float64(acked), "count")
	rep.layer("mitigate.failed", float64(failed), "count")
	rep.layer("mitigate.suppressed_ratio", ratio(float64(suppressed), float64(proposed)), "ratio")
	rep.layer("mitigate.ack_ms_p50", dAck.P50, "ms")
	rep.layer("mitigate.due_to_ack_ms_p50", dMitig.P50, "ms")

	provEvents, provDropped := count("xsec_prov_events_total"), count("xsec_prov_dropped_total")
	rep.layer("prov.events", provEvents, "count")
	rep.layer("prov.dropped", provDropped, "count")
	rep.layer("prov.drop_ratio", ratio(provDropped, provEvents+provDropped), "ratio")
	rep.layer("prov.chain_complete_ratio", ratio(float64(r.Smp.audit.Complete), float64(r.Smp.audit.Acked)), "ratio")
	rep.layer("prov.record_ns", probe("prov.record_ns"), "ns")

	coreDropped := count("xsec_core_cases_dropped_total")
	rep.layer("core.cases_dropped", coreDropped, "count")
	rep.layer("core.case_queue_depth_max", float64(r.Smp.CaseQueue), "count")

	rep.layer("proc.cpu_s_per_mrec", ratio((r.B.CPU-r.A.CPU).Seconds()*1e6, records), "s")
	rep.layer("proc.allocs_per_record", ratio(float64(r.B.Mallocs-r.A.Mallocs), records), "count")
	rep.layer("proc.gc_pause_ms", ms(r.B.GCPause-r.A.GCPause), "ms")
	rep.layer("proc.goroutines_max", float64(r.Smp.Goroutines), "count")
	rep.layer("proc.heap_peak_mb", float64(r.Smp.HeapInuse)/(1<<20), "MB")

	var late lateness
	if r.Open != nil {
		late = r.Open.late
		rep.LateHistMS = late.histogram()
	}
	sort.Float64s(late.samples)
	lateP99 := quantile(late.samples, 99)
	rep.layer("gen.late_ms_p99", lateP99, "ms")
	rep.layer("gen.late_ms_max", quantile(late.samples, 100), "ms")
	rep.layer("gen.sessions", float64(sessions), "count")
	rep.layer("gen.episodes", float64(episodes), "count")
	rep.layer("gen.episodes_refused", float64(refused), "count")
	rep.layer("gen.session_errors", float64(sessionErrs), "count")
	rep.layer("loop.sessions_rejected", float64(rejected), "count")
	rep.layer("gen.drain_s", r.DrainS, "s")

	// The ratios a user of the loop reads first. They can be zero or
	// undefined on one workload or another, so they are reported here
	// and gated below, not bounded as end-to-end metrics.
	totalDetected, lossBase := 0, float64(r.Shipped)
	for _, n := range detected {
		totalDetected += n
	}
	lost := lossBase - float64(r.End.Records)
	rep.layer("loop.record_loss_ratio", ratio(lost, lossBase), "ratio")
	rep.layer("loop.alert_loss_ratio", ratio(droppedAlerts+coreDropped+failures, raised+droppedAlerts), "ratio")
	rep.layer("loop.detect_ms_p90", dDetect.P90, "ms")
	rep.layer("loop.verdict_ms_p90", dVerdict.P90, "ms")
	rep.layer("loop.episode_detect_ms_p50", dEpDetect.P50, "ms")
	rep.layer("loop.episode_detect_ms_p90", dEpDetect.P90, "ms")
	rep.layer("loop.episode_verdict_ms_p50", dEpVerdict.P50, "ms")
	rep.layer("loop.episode_recall", ratio(float64(totalDetected), float64(episodes)), "ratio")
	for _, k := range attackKinds {
		rep.layer("loop.recall."+kindSlug(k), ratio(float64(detected[k]), float64(launched[k])), "ratio")
	}
	rep.layer("loop.false_cases_per_session", ratio(float64(falseCases), float64(sessions)), "ratio")

	for i, name := range segNames {
		d := summarize(seg[i])
		rep.layer(name+"_ms_mean", d.Mean, "ms")
		rep.layer(name+"_ms_p50", d.P50, "ms")
		rep.layer(name+"_ms_p90", d.P90, "ms")
	}
	// The end-to-end figures as this run saw them: on a traced run,
	// comparing them with an untraced run gives the tracing overhead.
	rep.layer("traced.records_per_s", median(rates), "rec/s")
	rep.layer("traced.verdict_ms_p50", dVerdict.P50, "ms")

	// Operations: every record of the closed loop, every generator
	// operation of the open loop. An attack the hardened network cut
	// short is the loop working, not a failed operation.
	if r.Closed != nil {
		rep.Attempted, rep.Failed = int(r.Shipped), int(lost)
	} else {
		for _, o := range r.Open.ops {
			rep.Attempted++
			if o.Kind == opSession && o.Err != nil && !errors.Is(o.Err, ue.ErrRejected) {
				rep.Failed++
			}
		}
	}

	// Correctness gate.
	rep.check("latency_nonnegative", negative == 0, "%d negative latency samples", negative)
	for name, m := range rep.EndToEnd {
		rep.check("nonzero."+name, m.Value > 0, "%s = %g", name, m.Value)
	}
	if r.W.Conserves {
		rep.check("conservation", lost == 0, "%g of %g records shipped never reached MobiWatch", lost, lossBase)
	}
	if r.W.Floors {
		for _, k := range attackKinds {
			floor, gated := recallFloor[k]
			if !gated {
				continue
			}
			got := ratio(float64(detected[k]), float64(launched[k]))
			rep.check("recall."+kindSlug(k), got >= floor, "%d of %d episodes detected, floor %.2f", detected[k], launched[k], floor)
		}
		// The ledger is bounded and refuses events when a burst fills it
		// (a stalled host is enough); a chain may then lack a stage by
		// design. That loss is prov.drop_ratio's to report. The gate
		// asserts the wiring: with nothing refused, every chain is whole.
		a := r.Smp.audit
		rep.check("prov_chain_complete", a.Acked > 0 && (a.Complete == a.Acked || r.ProvDropped > 0),
			"%d of %d acknowledged mitigations have a complete provenance chain; the ledger refused %d events",
			a.Complete, a.Acked, r.ProvDropped)
	}
	if r.Tracer != nil {
		rep.check("segments_sum_to_case", segmentsSum(r.Tracer.spans), "seg.* children of every case span sum to it within 1 us")
		rep.SelfMS = map[string]float64{}
		for name, d := range selfTimes(r.Tracer.spans) {
			rep.SelfMS[name] = ms(d)
		}
	}
	if lateP99 > lateLimitMS {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("generator ran late: gen.late_ms_p99 = %.1f ms > %d ms", lateP99, lateLimitMS))
	}
	sort.Slice(rep.Checks, func(i, j int) bool { return rep.Checks[i].Name < rep.Checks[j].Name })
	return rep
}

// segmentsSum verifies that the seg.* children of each case span add up
// to their parent within a microsecond.
func segmentsSum(spans []span) bool {
	sum := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 && strings.HasPrefix(s.Name, "seg.") {
			sum[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range spans {
		if s.Name != "case" {
			continue
		}
		if d := sum[s.ID] - (s.EndNS - s.StartNS); d > 1000 || d < -1000 {
			return false
		}
	}
	return true
}

// kindSlug names an attack kind in metric names.
func kindSlug(k ue.AttackKind) string {
	switch k {
	case ue.AttackBTSDoS:
		return "bts_dos"
	case ue.AttackBlindDoS:
		return "blind_dos"
	case ue.AttackUplinkIDExtraction:
		return "uplink_id"
	case ue.AttackDownlinkIDExtraction:
		return "downlink_id"
	case ue.AttackNullCipher:
		return "null_cipher"
	}
	return "kind" + strconv.Itoa(int(k))
}
