package gnb

import (
	"sync"
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

// TestReportBatchesPerUE injects one report period's telemetry for three
// UEs, one of them with more than two indications' worth, interleaved,
// and asserts the agent emits UE-scoped indications: every indication
// carries records of exactly one UE (matching its header UEID), holds
// at most DefaultBatchRecords, per-UE sequence order is preserved, and
// nothing is lost or duplicated.
func TestReportBatchesPerUE(t *testing.T) {
	p, g, _ := serveAgent(t, "gnb-batch")
	x, _ := p.RegisterXApp("batch-collector")
	sub := subscribe(t, x, "gnb-batch", 5*time.Millisecond)
	defer sub.Delete()

	// UE 1 sends 2·DefaultBatchRecords+5 records; UEs 2 and 3 send one
	// record each between every two of UE 1's until they have sent six.
	want := map[uint64]int{1: 2*DefaultBatchRecords + 5, 2: 6, 3: 6}
	var tr mobiflow.Trace
	var seq uint64
	base := time.Unix(1700000000, 0)
	sent := make(map[uint64]int)
	add := func(ue uint64) {
		seq++
		sent[ue]++
		tr = append(tr, mobiflow.Record{
			Seq: seq, UEID: ue, Msg: "RRCSetupRequest",
			Timestamp: base.Add(time.Duration(seq) * time.Millisecond),
		})
	}
	for sent[1] < want[1] {
		add(1)
		for ue := uint64(2); ue <= 3; ue++ {
			if sent[ue] < want[ue] {
				add(ue)
			}
		}
	}
	g.InjectTelemetry(tr)

	lastSeq := make(map[uint64]uint64)
	counts := make(map[uint64]int)
	chunks := 0
	timeout := time.After(2 * time.Second)
	for total := 0; total < len(tr); {
		select {
		case ind := <-sub.C():
			var hdr e2sm.IndicationHeader
			if err := asn1lite.Unmarshal(ind.Header, &hdr); err != nil {
				t.Fatal(err)
			}
			if hdr.UEID == 0 {
				t.Fatalf("indication without UE scope: %+v", hdr)
			}
			msg, err := e2sm.DecodeIndicationMessage(ind.Message)
			if err != nil {
				t.Fatal(err)
			}
			if len(msg.Records) == 0 || len(msg.Records) > DefaultBatchRecords {
				t.Fatalf("chunk size %d, want 1..%d", len(msg.Records), DefaultBatchRecords)
			}
			chunks++
			for _, rec := range msg.Records {
				if rec.UEID != hdr.UEID {
					t.Fatalf("record for UE %d in indication scoped to UE %d", rec.UEID, hdr.UEID)
				}
				if rec.Seq <= lastSeq[rec.UEID] {
					t.Fatalf("UE %d: seq %d after %d (order broken or duplicated)", rec.UEID, rec.Seq, lastSeq[rec.UEID])
				}
				lastSeq[rec.UEID] = rec.Seq
				counts[rec.UEID]++
				total++
			}
		case <-timeout:
			t.Fatalf("timed out with %v records delivered, want %v", counts, want)
		}
	}
	for ue, n := range want {
		if counts[ue] != n {
			t.Errorf("UE %d: %d records, want %d", ue, counts[ue], n)
		}
	}
	// One drain: three chunks for UE 1, one each for the others.
	if chunks != 5 {
		t.Errorf("%d indications, want 5", chunks)
	}
}

// TestReporterPerUEStateIsBounded drives 10 000 distinct UEs through the
// report loop's flush: per-UE grouping state must not outlive the flush
// that used it (it used to grow by one map entry and one backing array
// of stale records per UE ever seen), and recycling the slices means a
// warm flush allocates nothing for UEs it has never seen.
func TestReporterPerUEStateIsBounded(t *testing.T) {
	g := newTestGNB(t)
	// The far end receives and discards every frame; Recv allocates
	// nothing, so each emit costs the sender's frame copy alone.
	near, far := wire.Pipe()
	defer near.Close()
	go func() {
		for {
			if _, err := far.Recv(); err != nil {
				return
			}
		}
	}()
	r := &reporter{
		a:           &e2Agent{g: g, ep: e2ap.NewEndpoint(near)},
		byUE:        make(map[uint64]mobiflow.Trace),
		records:     obsRecords.With("gnb-test"),
		indications: obsIndicationsSent.With("gnb-test"),
		batchSize:   obsBatchRecords.With("gnb-test"),
	}
	base := time.Unix(1700000000, 0)
	var seq uint64
	// fill queues 6 records (one chunk) for each of 8 UEs, interleaved.
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
	if want := uint64(10000); r.batchSeq != want { // one chunk per UE
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

// TestReportRootsChainBeforeSend is the RIC side of the evidence chain's
// root: as each indication arrives it flushes the ledger, and the
// indication's chain must already hold the gNB's emit event, with the
// seq range and digest of the records it carries.
func TestReportRootsChainBeforeSend(t *testing.T) {
	led := prov.New(prov.Options{})
	defer led.Close()
	defer prov.SetActive(prov.SetActive(led)) // swap now, restore on return
	const node = "gnb-root"
	p, g, hangUp := serveAgent(t, node)
	defer hangUp()
	x, _ := p.RegisterXApp("root-collector")
	sub := subscribe(t, x, node, time.Millisecond)
	const ues = 32
	for ue := uint64(1); ue <= ues; ue++ {
		g.InjectTelemetry(ueRecords(ue, ue*10, 3))
	}
	for i := 0; i < ues; i++ {
		select {
		case ind := <-sub.C():
			led.Flush()
			got := decodeRecords(t, ind)
			rec, ok := led.Chain(prov.ChainID{Node: node, SN: ind.SN})
			if !ok || !rec.Has(prov.KindEmit) {
				t.Fatalf("indication %d arrived before its chain's emit event (chain found: %v)", ind.SN, ok)
			}
			ev := rec.Events[0]
			if ev.Kind != prov.KindEmit || ev.SeqFirst != got[0].Seq || ev.SeqLast != got[len(got)-1].Seq ||
				ev.Digest != prov.DigestRecords(got) {
				t.Fatalf("chain %d starts with %+v, want the emit event of seq %d..%d", ind.SN, ev, got[0].Seq, got[len(got)-1].Seq)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d indications arrived", i, ues)
		}
	}
}

// serveAgent serves a gNB named node to a fresh platform over an
// in-process pipe. hangUp closes the gNB's end of the pipe and fails the
// test unless ServeE2 returns, its report loops with it.
func serveAgent(t *testing.T, node string) (p *ric.Platform, g *GNB, hangUp func()) {
	t.Helper()
	g, err := New(Config{NodeID: node, AMF: corenet.NewAMF(7)})
	if err != nil {
		t.Fatal(err)
	}
	p = ric.NewPlatform(sdl.New())
	t.Cleanup(p.Close)
	ricEnd, nodeEnd := e2ap.Pipe()
	go p.AttachNode(ricEnd)
	served := make(chan struct{})
	go func() {
		defer close(served)
		g.ServeE2(nodeEnd)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(p.Nodes()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("agent did not attach")
		}
		time.Sleep(time.Millisecond)
	}
	return p, g, func() {
		t.Helper()
		nodeEnd.Close()
		select {
		case <-served:
		case <-time.After(2 * time.Second):
			t.Fatal("ServeE2 did not return after its pipe closed")
		}
	}
}

// ueRecords returns n records of one UE with consecutive Seq from first.
func ueRecords(ue, first uint64, n int) mobiflow.Trace {
	base := time.Unix(1700000000, 0)
	tr := make(mobiflow.Trace, n)
	for i := range tr {
		seq := first + uint64(i)
		tr[i] = mobiflow.Record{Seq: seq, UEID: ue, Msg: "RRCSetupRequest",
			Timestamp: base.Add(time.Duration(seq) * time.Millisecond)}
	}
	return tr
}

// decodeRecords decodes one indication's telemetry.
func decodeRecords(t *testing.T, ind ric.Indication) mobiflow.Trace {
	t.Helper()
	msg, err := e2sm.DecodeIndicationMessage(ind.Message)
	if err != nil {
		t.Fatal(err)
	}
	return msg.Records
}

// TestReportShipsFullBacklogBeforeTick subscribes with an hour's period:
// one record short of a full indication nothing wakes the report loop,
// the record that completes it ships all of them at once, and a wake that
// finds the backlog already drained ships nothing.
func TestReportShipsFullBacklogBeforeTick(t *testing.T) {
	const node = "gnb-full"
	p, g, hangUp := serveAgent(t, node)
	x, _ := p.RegisterXApp("full-collector")
	sub := subscribe(t, x, node, time.Hour)
	full, tick := obsFlushes.With(node, "full"), obsFlushes.With(node, "tick")
	sent := obsIndicationsSent.With(node)
	full0, tick0, sent0 := full.Value(), tick.Value(), sent.Value()

	tr := ueRecords(1, 1, 2*DefaultBatchRecords)
	g.InjectTelemetry(tr[:DefaultBatchRecords-1])
	if len(g.full) != 0 {
		t.Fatalf("%d records woke the report loop, want a wake at %d", DefaultBatchRecords-1, DefaultBatchRecords)
	}
	g.InjectTelemetry(tr[DefaultBatchRecords-1 : DefaultBatchRecords])
	expect := func(want mobiflow.Trace) {
		t.Helper()
		select {
		case ind := <-sub.C():
			got := decodeRecords(t, ind)
			if len(got) != len(want) {
				t.Fatalf("indication carries %d records, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i].Seq != want[i].Seq {
					t.Fatalf("record %d has seq %d, want %d", i, got[i].Seq, want[i].Seq)
				}
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("no indication within 2 s of a %d-record backlog (report period 1 h)", len(want))
		}
	}
	expect(tr[:DefaultBatchRecords])

	// A wake whose backlog a tick drained first finds nothing buffered:
	// it ships and counts nothing, and the next indication on the stream
	// is the next full backlog.
	g.full <- struct{}{}
	for deadline := time.Now().Add(2 * time.Second); len(g.full) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the report loop did not take its wake")
		}
	}
	g.InjectTelemetry(tr[DefaultBatchRecords:])
	expect(tr[DefaultBatchRecords:])

	hangUp() // the loop has counted everything it shipped
	if got := sent.Value() - sent0; got != 2 {
		t.Errorf("%d indications sent, want 2", got)
	}
	if got := full.Value() - full0; got != 2 {
		t.Errorf("flushes{trigger=full} moved by %d, want 2", got)
	}
	if got := tick.Value() - tick0; got != 0 {
		t.Errorf("flushes{trigger=tick} moved by %d, want 0", got)
	}
}

// TestReportConservesConcurrentInjection races eight injectors, each
// owning one UE and one Seq range, against a report loop that drains on
// a 1 ms tick and on every full backlog: every record arrives exactly
// once and in its UE's order, and hanging up stops the loop.
func TestReportConservesConcurrentInjection(t *testing.T) {
	const (
		node      = "gnb-conc"
		injectors = 8
		perUE     = 1500
	)
	p, g, hangUp := serveAgent(t, node)
	x, _ := p.RegisterXApp("conc-collector")
	// Room for one indication per record: the collector never drops.
	sub, err := x.Subscribe(node, e2sm.MobiFlowRANFunctionID,
		asn1lite.Marshal(&e2sm.EventTrigger{Period: time.Millisecond}),
		[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
		injectors*perUE)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := range injectors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := ueRecords(uint64(i+1), uint64(i*perUE+1), perUE)
			// Chunks of 1 to 97 records: some cross a full backlog
			// alone, some add to one another injector started.
			for n := 1 + i; len(tr) > 0; n = n%97 + 1 {
				n = min(n, len(tr))
				g.InjectTelemetry(tr[:n])
				tr = tr[n:]
			}
		}()
	}

	next := make(map[uint64]uint64) // UE → the seq it must deliver next
	for i := range injectors {
		next[uint64(i+1)] = uint64(i*perUE + 1)
	}
	timeout := time.After(10 * time.Second)
	for got := 0; got < injectors*perUE; {
		select {
		case ind := <-sub.C():
			for _, rec := range decodeRecords(t, ind) {
				if rec.Seq != next[rec.UEID] {
					t.Fatalf("UE %d delivered seq %d, want %d (lost, duplicated or reordered)", rec.UEID, rec.Seq, next[rec.UEID])
				}
				next[rec.UEID]++
				got++
			}
		case <-timeout:
			t.Fatalf("%d of %d records delivered", got, injectors*perUE)
		}
	}
	wg.Wait()
	hangUp()
}
