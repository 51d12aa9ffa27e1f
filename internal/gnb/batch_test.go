package gnb

import (
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/corenet"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/sdl"
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
