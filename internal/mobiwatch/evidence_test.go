package mobiwatch

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
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
// two SDL-backed ledgers, once as one Record per window and once through
// windowEvidence. What each ledger retains, in memory and in the SDL,
// must be equal event for event.
func TestFoldedEvidenceMatchesWriterFold(t *testing.T) {
	const (
		node      = "gnb-fold"
		threshold = 1.0
		window    = 4
		dim       = 3
		flushLen  = 8 // windows per model per flush, as flushWindows/2 online
	)
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

	// replay feeds the sequence flush by flush, AE queue then LSTM queue as
	// flushLocked does, filling each batch tensor with fresh window data so
	// every window has its own digest. A flagged window is followed by the
	// KindAlert raise records.
	replay := func(record func(b *pendingBatch, flush []scored, alert func(k int))) {
		fill := rand.New(rand.NewSource(15)) // same tensors on both sides
		for off := 0; off < len(models[0].wins); off += flushLen {
			for _, m := range models {
				b := m.batch
				flush := m.wins[off:min(off+flushLen, len(m.wins))]
				b.reset()
				for range flush {
					for i := 0; i < window*dim; i++ {
						b.x = append(b.x, fill.Float32())
					}
					if b.model == ModelLSTM {
						for i := 0; i < dim; i++ {
							b.targets = append(b.targets, fill.Float32())
						}
					}
					b.n++
				}
				record(b, flush, func(k int) {
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
		}
	}
	perWindow := func(b *pendingBatch, flush []scored, alert func(k int)) {
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
	folded := func(b *pendingBatch, flush []scored, alert func(k int)) {
		evidence := windowEvidence{batch: b, node: node, threshold: threshold}
		for k := range flush {
			if evidence.observe(k, &flush[k].meta, flush[k].score) {
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
	run := func(record func(*pendingBatch, []scored, func(int))) retained {
		store := sdl.New()
		l := prov.New(prov.Options{Store: store})
		old := prov.SetActive(l)
		before := provEventsAccepted()
		replay(record)
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
	want, got := run(perWindow), run(folded)

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

// TestPersistAllocatesKeyAndValueOnly pins the telemetry persist cost: the
// record is encoded into the worker's buffers, so the SDL write allocates
// the key string and the stored value and nothing else.
func TestPersistAllocatesKeyAndValueOnly(t *testing.T) {
	w := &worker{}
	store := sdl.New()
	rec := mobiflow.Record{
		Seq: 1, UEID: 7, Msg: "RRCSetupRequest", SUPI: "imsi-001010000000007",
		RNTI: 0x4601, TMSI: 0xdeadbeef, Timestamp: time.Unix(1700000000, 0),
	}
	// Rewrite a fixed key set so SDL map growth stays out of the count.
	next := func() {
		rec.Seq = rec.Seq%64 + 1
		w.persist(store, "gnb-001", &rec)
	}
	for i := 0; i < 64; i++ {
		next()
	}
	if allocs := testing.AllocsPerRun(1000, next); allocs > 2 {
		t.Fatalf("persisting one record allocates %.1f times, want at most 2 (key + value)", allocs)
	}
	data, _, ok := store.Get("mobiflow", string(persistKey(nil, "gnb-001", rec.Seq)))
	if !ok {
		t.Fatal("persisted record missing from the SDL")
	}
	if got, err := mobiflow.Decode(data); err != nil || got.Seq != rec.Seq || got.Msg != rec.Msg || got.SUPI != rec.SUPI {
		t.Fatalf("persisted record decodes to %+v, err %v; want %+v", got, err, rec)
	}
}
