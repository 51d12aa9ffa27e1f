package mobiwatch

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// provEventsAccepted reads xsec_prov_events_total.
func provEventsAccepted() float64 {
	for _, s := range obs.Default.Snapshot() {
		if s.Name == "xsec_prov_events_total" {
			return s.Value
		}
	}
	return 0
}

// TestFoldedEvidenceMatchesWriterFold is the differential test behind
// "the fold is the writer's fold": one scored-window sequence — both
// models, two chains, benign runs of 1, 2 and 16, a flagged window inside
// a run and at either end of a chain, flushes that cut runs — goes into
// two SDL-backed ledgers, once as one Record per window over the window
// stage's own history, and once through windowEvidence over the jobs the
// flushes are cut into, each scored by both lanes in turn as a worker
// scoring inline does. What each ledger retains, in memory and in the
// SDL, must be equal event for event: a window's digest read from its
// job's copy of the rows is the one read from the history it was cut
// from.
func TestFoldedEvidenceMatchesWriterFold(t *testing.T) {
	const (
		node      = "gnb-fold"
		threshold = 1.0
		window    = 4
		flushLen  = 8 // windows per model per flush
	)
	vocab := feature.NewVocabulary([]string{"a", "b", "c"})
	dim := feature.Dim(vocab)
	// One letter per scored window, in scoring order: F flagged, b benign.
	chains := []struct {
		sn      uint64
		pattern string
	}{
		{1, "F" + "bbbbbbbbbbbbbbbb" + "F" + "bb" + "F" + "b"},
		{2, "b" + "F" + "bb" + "bbbbbbbbbbbbbbbb" + "F"},
	}
	type scored struct {
		meta  winMeta
		score float64
	}
	rng := rand.New(rand.NewSource(14))
	base := time.Date(2026, 9, 30, 12, 0, 0, 0, time.UTC)
	sequence := func(model ModelName) (*pendingBatch, []scored) {
		b := &pendingBatch{model: model, window: window, dim: dim}
		var wins []scored
		for _, c := range chains {
			for _, kind := range c.pattern {
				n := len(wins)
				s := rng.Float64() // benign: below the threshold
				if kind == 'F' {
					s += threshold + 1
				}
				wins = append(wins, scored{
					meta: winMeta{
						seqFirst: uint64(n + 1),
						seqLast:  uint64(n + b.span()),
						at:       base.Add(time.Duration(n) * time.Millisecond),
						sn:       c.sn,
					},
					score: s,
				})
			}
		}
		return b, wins
	}
	type modelSeq struct {
		batch *pendingBatch
		wins  []scored
	}
	var models []modelSeq
	total, flaggedTotal := 0, 0
	for _, m := range []ModelName{ModelAE, ModelLSTM} {
		b, wins := sequence(m)
		models = append(models, modelSeq{b, wins})
		total += len(wins)
		for _, w := range wins {
			if w.score > threshold {
				flaggedTotal++
			}
		}
	}

	// replay feeds the sequence flush by flush, AE windows then LSTM
	// windows, each cut from rows of fresh random records so every window
	// has its own digest, into a window stage's history and pending lists.
	// record then sees each model's windows of the flush in turn: as the
	// history holds them or, cut, as the flush's job does. A flagged window
	// is followed by the KindAlert raise records.
	replay := func(cut bool, record func(b *pendingBatch, meta []winMeta, flush []scored, alert func(k int))) {
		fill := rand.New(rand.NewSource(15)) // same rows on both sides
		var recent mobiflow.Trace
		rows, enc := feature.NewRowBuffer(dim), feature.NewEncoder(vocab)
		var pending [2]windowList
		job := &scoreJob{rows: feature.NewRowBuffer(dim)}
		for off := 0; off < len(models[0].wins); off += flushLen {
			flushes := [2][]scored{}
			for i, m := range models {
				flushes[i] = m.wins[off:min(off+flushLen, len(m.wins))]
				for _, w := range flushes[i] {
					start := rows.Len()
					for k := 0; k < m.batch.span(); k++ {
						rec := mobiflow.Record{
							Msg:       vocab.Messages[fill.Intn(len(vocab.Messages))],
							UEID:      uint64(fill.Intn(8)),
							Timestamp: base.Add(time.Duration(fill.Int63n(int64(time.Second)))),
						}
						recent = append(recent, rec)
						rows.Push(enc, rec)
					}
					pending[i].push(start, w.meta)
				}
			}
			from, lists := rows, &pending
			if cut {
				job.cut(recent, rows, &pending)
				from, lists = job.rows, &job.windows
			}
			for i, m := range models {
				b, flush := m.batch, flushes[i]
				b.reset()
				for _, start := range lists[i].starts {
					b.push(from, start)
				}
				record(b, lists[i].meta, flush, func(k int) {
					w := flush[k]
					prov.Record(prov.Event{
						Chain:     prov.ChainID{Node: node, SN: w.meta.sn},
						Kind:      prov.KindAlert,
						At:        w.meta.at,
						SeqFirst:  w.meta.seqFirst,
						SeqLast:   w.meta.seqLast,
						Model:     string(b.model),
						Score:     w.score,
						Threshold: threshold,
						Flagged:   true,
						Label:     "raised",
					})
				})
			}
			pending[0].reset()
			pending[1].reset()
			job.reset()
		}
	}
	perWindow := func(b *pendingBatch, _ []winMeta, flush []scored, alert func(k int)) {
		for k, w := range flush {
			prov.Record(prov.Event{
				Chain:     prov.ChainID{Node: node, SN: w.meta.sn},
				Kind:      prov.KindWindow,
				At:        w.meta.at,
				SeqFirst:  w.meta.seqFirst,
				SeqLast:   w.meta.seqLast,
				Digest:    b.digest(k),
				Model:     string(b.model),
				Score:     w.score,
				Threshold: threshold,
				Flagged:   w.score > threshold,
			})
			if w.score > threshold {
				alert(k)
			}
		}
	}
	folded := func(b *pendingBatch, meta []winMeta, flush []scored, alert func(k int)) {
		evidence := windowEvidence{batch: b, node: node, threshold: threshold}
		for k := range flush {
			if evidence.observe(k, &meta[k], flush[k].score) {
				alert(k)
			}
		}
		evidence.close()
	}

	type retained struct {
		memory []prov.ChainRecord
		disk   []prov.ChainRecord
		sent   float64
	}
	run := func(cut bool, record func(*pendingBatch, []winMeta, []scored, func(int))) retained {
		store := sdl.New()
		l := prov.New(prov.Options{Store: store})
		old := prov.SetActive(l)
		before := provEventsAccepted()
		replay(cut, record)
		prov.SetActive(old)
		l.Flush()
		defer l.Close()
		if n := l.Dropped(); n != 0 {
			t.Fatalf("ledger dropped %d events; the comparison needs all of them", n)
		}
		out := retained{memory: l.Chains(), sent: provEventsAccepted() - before}
		for _, id := range prov.StoredChains(store) {
			rec, err := prov.ReadChain(store, id)
			if err != nil {
				t.Fatal(err)
			}
			out.disk = append(out.disk, rec)
		}
		return out
	}
	want, got := run(false, perWindow), run(true, folded)

	if len(want.memory) != len(chains) || len(want.disk) != len(chains) {
		t.Fatalf("reference ledger holds %d chains in memory, %d in the SDL; want %d", len(want.memory), len(want.disk), len(chains))
	}
	for _, side := range []struct {
		name      string
		want, got []prov.ChainRecord
	}{{"memory", want.memory, got.memory}, {"SDL", want.disk, got.disk}} {
		if len(side.got) != len(side.want) {
			t.Fatalf("%s: folded producer retains %d chains, per-window %d", side.name, len(side.got), len(side.want))
		}
		for c := range side.want {
			w, g := side.want[c], side.got[c]
			if len(g.Events) != len(w.Events) {
				t.Fatalf("%s chain %s: %d events folded, %d per-window", side.name, w.Key, len(g.Events), len(w.Events))
			}
			for i := range w.Events {
				if !reflect.DeepEqual(g.Events[i], w.Events[i]) {
					t.Errorf("%s chain %s event %d diverges:\n  folded     %+v\n  per-window %+v", side.name, w.Key, i, g.Events[i], w.Events[i])
				}
			}
			if g.ID != w.ID || g.Truncated != w.Truncated {
				t.Errorf("%s chain %s: folded ID %v truncated %v, per-window ID %v truncated %v", side.name, w.Key, g.ID, g.Truncated, w.ID, w.Truncated)
			}
		}
	}

	// No window leaves the chain, and the fold did happen at the producer.
	var counted uint32
	for _, c := range got.memory {
		for _, ev := range c.Events {
			if ev.Kind == prov.KindWindow {
				counted += ev.Count
			}
		}
	}
	if int(counted) != total {
		t.Errorf("window events account for %d windows, %d were scored", counted, total)
	}
	if want.sent != float64(total+flaggedTotal) {
		t.Errorf("per-window producer sent %.0f events, want %d windows + %d alerts", want.sent, total, flaggedTotal)
	}
	if got.sent >= want.sent/2 {
		t.Errorf("folded producer sent %.0f events against %.0f per-window: runs are not folded before Record", got.sent, want.sent)
	}
}

// TestPersistAllocatesKeyAndValueOnly pins the telemetry persist cost:
// beyond the strings its records decode to, intake allocates the key
// string and the stored copy of the message — two allocations per
// indication, whatever its record count. The batch is one the window
// stage handed back, and the trace key came with the indication.
func TestPersistAllocatesKeyAndValueOnly(t *testing.T) {
	store := sdl.New()
	x, err := ric.NewPlatform(store).RegisterXApp("persist-allocs")
	if err != nil {
		t.Fatal(err)
	}
	store.Bound(TelemetryNamespace, TelemetryBytes)
	w := &worker{rt: &Runtime{xapp: x}, spare: make(chan mobiflow.Trace, 1)}
	rec := mobiflow.Record{
		Seq: 1, UEID: 7, Msg: "RRCSetupRequest", SUPI: "imsi-001010000000007",
		RNTI: 0x4601, TMSI: 0xdeadbeef, Timestamp: time.Unix(1700000000, 0),
	}
	for _, records := range []int{1, 9, 64} {
		// Rewrite a fixed key set so SDL map growth stays out of the count.
		msgs := make([][]byte, 64)
		for i := range msgs {
			batch := make(mobiflow.Trace, records)
			for k := range batch {
				batch[k] = rec
				batch[k].Seq = uint64(i*records + k + 1)
			}
			msgs[i] = mobiflow.EncodeTrace(batch)
		}
		ind := ric.Indication{NodeID: "gnb-001", SN: 12345, Key: obs.IndicationKey("gnb-001", 12345)}
		i := 0
		admit := func() {
			ind.Message = msgs[i%len(msgs)]
			i++
			d, ok := w.admit(ind)
			if !ok {
				t.Fatal("intake refused a valid indication")
			}
			w.recycle(d.records)
		}
		var into mobiflow.Trace
		decode := func() {
			ind.Message = msgs[i%len(msgs)]
			i++
			var err error
			if into, err = e2sm.DecodeIndicationInto(into, ind.Message); err != nil {
				t.Fatal(err)
			}
		}
		for range msgs {
			admit()
			decode()
		}
		if extra := testing.AllocsPerRun(1000, admit) - testing.AllocsPerRun(1000, decode); extra > 2 {
			t.Errorf("%d-record indications: persisting allocates %.1f times, want at most 2 (key + value)", records, extra)
		}
		data, _, ok := store.Get(TelemetryNamespace, string(persistKey(nil, "gnb-001", 1)))
		if !ok || !bytes.Equal(data, msgs[0]) {
			t.Fatalf("%d-record indications: the first batch reads back as %d bytes (present %v), want its %d-byte message", records, len(data), ok, len(msgs[0]))
		}
	}
}
