package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/core"
	"github.com/6g-xsec/xsec/internal/corenet"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/gnb"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nn"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// Layer probes. After the measured interval a sample of the inputs this
// workload fed the system is replayed, single-threaded, through each
// layer's public entry point, one span per call. A call here is one
// indication-sized chunk for the per-record layers: a span around a
// 100 ns operation would mostly time the clock.
const (
	probeRecords = 4096
	probeWindows = 32 // alert windows sent to the expert, cold then warm
	probeRepeats = 3  // whole-sample scoring passes per model
)

// probe runs every layer probe and returns the per-layer timings.
func probe(tr *tracer, r *run, fw *core.Framework) map[string]float64 {
	recs := sampleRecords(r, fw)
	chunks := ueChunks(recs)
	out := map[string]float64{}
	if len(recs) == 0 {
		return out
	}
	n := float64(len(recs))

	// gnb: InjectTelemetry into a private gNB, drained like the agent does.
	g, err := gnb.New(gnb.Config{NodeID: "probe", AMF: corenet.NewAMF(1)})
	if err == nil {
		var buf mobiflow.Trace
		var total time.Duration
		for i, c := range chunks {
			total += timed(tr, "gnb.inject", i, func() { g.InjectTelemetry(c) })
			buf = g.DrainRecordsInto(buf[:0])
		}
		out["gnb.inject_ns_per_record"] = float64(total) / n
	}

	// e2ap (+ asn1lite, e2sm, mobiflow codec): the agent's emit path and
	// the RIC/xApp decode path, one indication per chunk.
	var hdrEnc, msgEnc asn1lite.Encoder
	pdus := make([][]byte, 0, len(chunks))
	var encTotal, decTotal time.Duration
	var bytes int
	for i, c := range chunks {
		start := time.Now()
		hdrEnc.Reset()
		hdr := e2sm.IndicationHeader{NodeID: "probe", CollectionStart: c[0].Timestamp, BatchSeq: uint64(i + 1), UEID: c[0].UEID}
		hdr.MarshalTLV(&hdrEnc)
		msgEnc.Reset()
		mid := time.Now()
		mobiflow.AppendTrace(&msgEnc, c)
		midEnd := time.Now()
		ind := e2ap.Message{
			Type: e2ap.TypeIndication, RANFunctionID: e2sm.MobiFlowRANFunctionID, ActionID: 1,
			IndicationSN: uint64(i + 1), IndicationHeader: hdrEnc.Bytes(), IndicationMessage: msgEnc.Bytes(),
		}
		pdu := e2ap.AppendEncode(nil, &ind)
		end := time.Now()
		key := fmt.Sprintf("probe/%d", i)
		parent := tr.record("e2ap.encode", 0, key, start, end)
		tr.record("mobiflow.append_trace", parent, key, mid, midEnd)
		encTotal += end.Sub(start)
		bytes += len(pdu)
		pdus = append(pdus, pdu)
	}
	var m e2ap.Message
	for i, pdu := range pdus {
		start := time.Now()
		if err := e2ap.DecodeInto(pdu, &m); err != nil {
			continue
		}
		mid := time.Now()
		_, err := e2sm.DecodeIndicationMessage(m.IndicationMessage)
		end := time.Now()
		if err != nil {
			continue
		}
		key := fmt.Sprintf("probe/%d", i)
		parent := tr.record("e2ap.decode", 0, key, start, end)
		tr.record("e2sm.decode_indication", parent, key, mid, end)
		decTotal += end.Sub(start)
	}
	out["e2ap.encode_ns_per_indication"] = float64(encTotal) / float64(len(chunks))
	out["e2ap.decode_ns_per_indication"] = float64(decTotal) / float64(len(chunks))
	out["e2ap.bytes_per_record"] = float64(bytes) / n

	// sdl: the persist write mobiwatch does per record.
	store := sdl.New()
	var sdlTotal time.Duration
	for i, c := range chunks {
		keys := make([]string, len(c))
		vals := make([][]byte, len(c))
		for j := range c {
			keys[j] = fmt.Sprintf("probe/%020d", c[j].Seq)
			vals[j] = mobiflow.Encode(&c[j])
		}
		sdlTotal += timed(tr, "sdl.set_owned", i, func() {
			for j := range c {
				store.SetOwned("mobiflow", keys[j], vals[j])
			}
		})
	}
	out["sdl.set_ns"] = float64(sdlTotal) / n

	// feature: record → float32 row.
	enc := feature.NewEncoder(fw.Models.Vocab)
	row := make([]float32, enc.Dim())
	var featTotal time.Duration
	for i, c := range chunks {
		featTotal += timed(tr, "feature.encode_f32", i, func() {
			for j := range c {
				enc.EncodeF32(row, c[j])
			}
		})
	}
	out["feature.encode_ns_per_record"] = float64(featTotal) / n

	// nn: the shipped f32 batched engines over the whole sample. The
	// first pass builds the engines and is not timed.
	fw.Models.ScoreTraceAEBatched(recs, nn.Float32)
	fw.Models.ScoreTraceLSTMBatched(recs, nn.Float32)
	var aeTotal, lstmTotal time.Duration
	var aeWins, lstmWins int
	for i := 0; i < probeRepeats; i++ {
		aeTotal += timed(tr, "nn.ae_batched", i, func() { aeWins += len(fw.Models.ScoreTraceAEBatched(recs, nn.Float32)) })
		lstmTotal += timed(tr, "nn.lstm_batched", i, func() { lstmWins += len(fw.Models.ScoreTraceLSTMBatched(recs, nn.Float32)) })
	}
	out["nn.ae_ns_per_window"] = ratio(float64(aeTotal), float64(aeWins))
	out["nn.lstm_ns_per_window"] = ratio(float64(lstmTotal), float64(lstmWins))

	// llm: a private serving layer in front of this workload's expert
	// endpoint; every window once cold, then again from the cache.
	svc := llm.NewService(llm.NewClient(fw.LLMBaseURL(), fw.Opts.LLMModel), llm.ServingOptions{})
	var wins []mobiflow.Trace
	for _, rc := range r.Cases {
		if len(wins) == probeWindows {
			break
		}
		wins = append(wins, rc.Case.Alert.Context)
	}
	for _, pass := range []string{"cold", "warm"} {
		var total time.Duration
		ok := 0
		for i, w := range wins {
			total += timed(tr, "llm.analyze."+pass, i, func() {
				if _, err := svc.AnalyzeWindow(context.Background(), w); err == nil {
					ok++
				}
			})
		}
		out["llm.analyze_ms_"+pass] = ratio(ms(total), float64(ok))
	}
	svc.Close()

	// prov: Record on a private ledger, buffered so nothing is dropped.
	ledger := prov.New(prov.Options{Buffer: 2 * len(recs)})
	var provTotal time.Duration
	for i, c := range chunks {
		provTotal += timed(tr, "prov.record", i, func() {
			for j := range c {
				ledger.Record(prov.Event{
					Chain: prov.ChainID{Node: "probe", SN: uint64(i + 1)}, Kind: prov.KindWindow,
					SeqFirst: c[j].Seq, SeqLast: c[j].Seq, Model: "autoencoder",
				})
			}
		})
	}
	ledger.Close()
	out["prov.record_ns"] = float64(provTotal) / n
	return out
}

// timed runs fn inside a root span and returns how long it took.
func timed(tr *tracer, name string, i int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	tr.record(name, 0, fmt.Sprintf("probe/%d", i), start, end)
	return end.Sub(start)
}

// sampleRecords returns the first probeRecords records this workload fed
// the framework: the restamped replay trace for the closed loop, and what
// MobiWatch persisted in the SDL for the simulator workloads.
func sampleRecords(r *run, fw *core.Framework) mobiflow.Trace {
	if r.Closed != nil {
		return newReplayer(r.Fx.Replay).next(nil, probeRecords)
	}
	keys := fw.SDL.Keys("mobiflow", fw.GNB.NodeID()+"/")
	sort.Strings(keys)
	if len(keys) > probeRecords {
		keys = keys[:probeRecords]
	}
	out := make(mobiflow.Trace, 0, len(keys))
	for _, k := range keys {
		data, _, ok := fw.SDL.Get("mobiflow", k)
		if !ok {
			continue
		}
		if rec, err := mobiflow.Decode(data); err == nil {
			out = append(out, rec)
		}
	}
	return out
}

// ueChunks splits a trace the way the gNB agent batches it: runs of one
// UE's records, at most gnb.DefaultBatchRecords long.
func ueChunks(tr mobiflow.Trace) []mobiflow.Trace {
	var out []mobiflow.Trace
	for len(tr) > 0 {
		n := 1
		for n < len(tr) && n < gnb.DefaultBatchRecords && tr[n].UEID == tr[0].UEID {
			n++
		}
		out = append(out, tr[:n])
		tr = tr[n:]
	}
	return out
}
