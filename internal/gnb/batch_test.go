package gnb

import (
	"io"
	"net"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/corenet"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/wire"
)

// TestReportBatchesPerUE injects interleaved telemetry for several UEs
// and asserts the agent emits UE-scoped indications: every indication
// carries records of exactly one UE (matching its header UEID), chunks
// respect MaxRecords, per-UE sequence order is preserved, and nothing is
// lost or duplicated.
func TestReportBatchesPerUE(t *testing.T) {
	amf := corenet.NewAMF(7)
	g, err := New(Config{
		NodeID: "gnb-batch",
		AMF:    amf,
		Batch:  BatchPolicy{MaxRecords: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	p := ric.NewPlatform(sdl.New())
	t.Cleanup(p.Close)
	ricEnd, nodeEnd := e2ap.Pipe()
	go p.AttachNode(ricEnd)
	go g.ServeE2(nodeEnd)
	deadline := time.Now().Add(2 * time.Second)
	for len(p.Nodes()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("agent did not attach")
		}
		time.Sleep(time.Millisecond)
	}

	x, _ := p.RegisterXApp("batch-collector")
	sub := subscribe(t, x, "gnb-batch", 5*time.Millisecond)
	defer sub.Delete()

	// 3 UEs × 6 records each, interleaved in round-robin arrival order.
	const ues, perUE = 3, 6
	var tr mobiflow.Trace
	var seq uint64
	base := time.Unix(1700000000, 0)
	for i := 0; i < perUE; i++ {
		for ue := uint64(1); ue <= ues; ue++ {
			seq++
			tr = append(tr, mobiflow.Record{
				Seq: seq, UEID: ue, Msg: "RRCSetupRequest",
				Timestamp: base.Add(time.Duration(seq) * time.Millisecond),
			})
		}
	}
	g.InjectTelemetry(tr)

	lastSeq := make(map[uint64]uint64)
	counts := make(map[uint64]int)
	total := 0
	timeout := time.After(2 * time.Second)
	for total < ues*perUE {
		select {
		case ind := <-sub.C(0):
			var hdr e2sm.IndicationHeader
			if err := asn1lite.Unmarshal(ind.Header, &hdr); err != nil {
				t.Fatal(err)
			}
			if hdr.UEID == 0 {
				t.Fatalf("indication without UE scope: %+v", hdr)
			}
			if got := e2sm.PeekIndicationUE(ind.Header); got != hdr.UEID {
				t.Fatalf("PeekIndicationUE = %d, decoded header UEID = %d", got, hdr.UEID)
			}
			msg, err := e2sm.DecodeIndicationMessage(ind.Message)
			if err != nil {
				t.Fatal(err)
			}
			if len(msg.Records) == 0 || len(msg.Records) > 4 {
				t.Fatalf("chunk size %d violates MaxRecords=4", len(msg.Records))
			}
			for _, rec := range msg.Records {
				if rec.UEID != hdr.UEID {
					t.Fatalf("record for UE %d in indication scoped to UE %d", rec.UEID, hdr.UEID)
				}
				if rec.Seq <= lastSeq[rec.UEID] {
					t.Fatalf("UE %d: seq %d after %d (order broken)", rec.UEID, rec.Seq, lastSeq[rec.UEID])
				}
				lastSeq[rec.UEID] = rec.Seq
				counts[rec.UEID]++
				total++
			}
		case <-timeout:
			t.Fatalf("timed out with %d/%d records delivered", total, ues*perUE)
		}
	}
	for ue := uint64(1); ue <= ues; ue++ {
		if counts[ue] != perUE {
			t.Errorf("UE %d: %d records, want %d", ue, counts[ue], perUE)
		}
	}
}

// TestBatchPolicyDefaults pins the clamping rules the report loop
// applies to a zero or out-of-range policy.
func TestBatchPolicyDefaults(t *testing.T) {
	amf := corenet.NewAMF(7)
	g, err := New(Config{NodeID: "gnb-defaults", AMF: amf})
	if err != nil {
		t.Fatal(err)
	}
	if g.cfg.Batch.MaxRecords != 0 || g.cfg.Batch.MaxAge != 0 {
		t.Fatalf("zero policy mutated at construction: %+v", g.cfg.Batch)
	}
	// The defaults are applied per subscription in report(); exercise
	// one tick end to end with an explicit sub-period MaxAge.
	g2, err := New(Config{
		NodeID: "gnb-maxage",
		AMF:    amf,
		Batch:  BatchPolicy{MaxAge: time.Millisecond, MaxRecords: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := ric.NewPlatform(sdl.New())
	t.Cleanup(p.Close)
	ricEnd, nodeEnd := e2ap.Pipe()
	go p.AttachNode(ricEnd)
	go g2.ServeE2(nodeEnd)
	deadline := time.Now().Add(2 * time.Second)
	for len(p.Nodes()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("agent did not attach")
		}
		time.Sleep(time.Millisecond)
	}
	x, _ := p.RegisterXApp("maxage-collector")
	// Long period: the MaxAge bound, not the period, must flush this.
	sub := subscribe(t, x, "gnb-maxage", 500*time.Millisecond)
	defer sub.Delete()
	g2.InjectTelemetry(mobiflow.Trace{{Seq: 1, UEID: 1, Msg: "RRCSetupRequest", Timestamp: time.Now()}})
	select {
	case <-sub.C(0):
		// Flushed well before the 500ms period: MaxAge took effect.
	case <-time.After(250 * time.Millisecond):
		t.Fatal("MaxAge did not flush ahead of the period")
	}
}

// TestReporterPerUEStateIsBounded drives 10 000 distinct UEs through the
// report loop's flush: per-UE grouping state must not outlive the flush
// that used it (it used to grow by one map entry and one backing array
// of stale records per UE ever seen), and recycling the slices means a
// warm flush allocates nothing for UEs it has never seen.
func TestReporterPerUEStateIsBounded(t *testing.T) {
	g := newTestGNB(t, nil)
	// The far end discards raw frames without allocating. net.Pipe is
	// unbuffered: flush returns once the peer has consumed every
	// indication.
	near, far := net.Pipe()
	defer near.Close()
	go io.Copy(io.Discard, far)
	r := &reporter{
		a:           &e2Agent{g: g, ep: e2ap.NewEndpoint(wire.NewConn(near))},
		pol:         BatchPolicy{MaxRecords: 4},
		byUE:        make(map[uint64]mobiflow.Trace),
		records:     obsRecords.With("gnb-test"),
		indications: obsIndicationsSent.With("gnb-test"),
		batchSize:   obsBatchRecords.With("gnb-test"),
	}
	base := time.Unix(1700000000, 0)
	var seq uint64
	// fill queues 6 records (two chunks) for each of 8 UEs, interleaved.
	fill := func(firstUE uint64) {
		for i := 0; i < 6; i++ {
			for ue := firstUE; ue < firstUE+8; ue++ {
				seq++
				r.pending = append(r.pending, mobiflow.Record{Seq: seq, UEID: ue, Msg: "RRCSetupRequest", Timestamp: base})
			}
		}
	}

	for ue := uint64(1); ue <= 10000; ue += 8 {
		fill(ue)
		if !r.flush(base) {
			t.Fatal("flush reported a transport failure")
		}
	}
	if len(r.byUE) != 0 {
		t.Fatalf("byUE holds %d entries after flushing 10000 distinct UEs, want 0", len(r.byUE))
	}
	if len(r.free) > 8 {
		t.Fatalf("free list holds %d slices, want at most one per UE of a flush (8)", len(r.free))
	}
	for _, recs := range r.free {
		for _, rec := range recs[:cap(recs)] {
			if rec != (mobiflow.Record{}) {
				t.Fatalf("recycled slice still pins record %+v", rec)
			}
		}
	}
	if want := uint64(10000 * 6 / 3); r.batchSeq != want { // chunks of 4 + 2 per UE
		t.Fatalf("emitted %d indications, want %d", r.batchSeq, want)
	}

	// What one emit costs downstream (the transport's frame copy, the
	// span key) is not the reporter's; with the ledger writer parked, a
	// flush of known UEs measures that floor, and a flush of UEs never
	// seen before must not add to it.
	parked := prov.New(prov.Options{})
	parked.Close()
	defer prov.SetActive(prov.SetActive(parked)) // swap now, restore on return
	flushAllocs := func(next func() uint64) float64 {
		return testing.AllocsPerRun(100, func() {
			fill(next())
			r.flush(base)
		})
	}
	known := flushAllocs(func() uint64 { return 1 })
	ue := uint64(20000)
	fresh := flushAllocs(func() uint64 { ue += 8; return ue })
	// AllocsPerRun counts the whole process (under -race the two figures
	// differ by one either way); unrecycled per-UE state would cost at
	// least one slice per new UE, 8 a run.
	if fresh-known >= 4 {
		t.Fatalf("warm flush of 8 new UEs allocates %.0f per run, of 8 known UEs %.0f: per-UE state is not recycled", fresh, known)
	}
	if len(r.byUE) != 0 {
		t.Fatalf("byUE holds %d entries after the warm flushes, want 0", len(r.byUE))
	}
}
