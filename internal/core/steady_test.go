package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/prov"
)

// TestSteadyStateHeapIsLevel runs the assembled framework the way the
// benchmark's capacity workload does — a closed loop of benign telemetry
// through GNB.InjectTelemetry, mitigation off. It first ingests until the
// telemetry namespace evicts — its TelemetryBytes hold that many records —
// and then compares the live heap 65 536 and 196 608 records past that.
// A RIC that retains what it ingests differs by the 131 072 records in
// between (≈ 350 B each, over 40 MB); one in a steady state differs by
// less than the telemetry budget itself, so a leak of 128 B per record
// fails.
func TestSteadyStateHeapIsLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests twice the records the telemetry budget holds through the whole framework")
	}
	fw, err := New(Options{
		Seed:         3,
		ReportPeriod: 5 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: 5, Seed: 7}, // heap, not recall, is under test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	benign, err := fw.CollectBenign(40)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Train(benign); err != nil {
		t.Fatal(err)
	}
	if err := fw.DeployXApps(); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range fw.Cases() {
		}
	}()

	// Replay the benign trace in a loop, restamped so that no record, UE
	// or timestamp repeats, keeping at most 2048 records in flight.
	const chunk, inFlight = 256, 2048
	span := benign[len(benign)-1].Timestamp.Sub(benign[0].Timestamp) + 300*time.Millisecond
	seen := &fw.WatchStats().RecordsSeen
	base := seen.Load()
	buf := make(mobiflow.Trace, 0, chunk)
	var sent uint64
	ingestTo := func(total uint64) uint64 {
		deadline := time.Now().Add(2 * time.Minute)
		for seen.Load()-base < total {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d records ingested after 2 min", seen.Load()-base, total)
			}
			if sent >= total || sent-(seen.Load()-base) > inFlight-chunk {
				time.Sleep(500 * time.Microsecond)
				continue
			}
			buf = buf[:0]
			for ; len(buf) < chunk; sent++ {
				loop, idx := sent/uint64(len(benign)), sent%uint64(len(benign))
				rec := benign[idx]
				rec.Seq = 1_000_000 + sent
				rec.UEID += (loop + 1) * 100_000
				rec.Timestamp = rec.Timestamp.Add(time.Duration(loop+1) * span)
				buf = append(buf, rec)
			}
			fw.GNB.InjectTelemetry(buf)
		}
		prov.Active().Flush()
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	const ns = mobiwatch.TelemetryNamespace
	var fill uint64
	for fill = 1 << 16; fw.SDL.Evicted(ns) == 0; fill += 1 << 14 {
		ingestTo(fill)
	}
	before := ingestTo(fill + 1<<16)
	after := ingestTo(fill + 3<<16)
	t.Logf("telemetry budget full at %d records; live heap %d MB 65 536 records later, %d MB 131 072 after that", fill, before>>20, after>>20)
	if grew := int64(after) - int64(before); grew > mobiwatch.TelemetryBytes {
		t.Errorf("live heap grew %d MB over 131 072 records ingested past the telemetry budget (%d → %d MB); a steady state grows by less than the budget's own %d MB",
			grew>>20, before>>20, after>>20, mobiwatch.TelemetryBytes>>20)
	}
	if b := fw.SDL.Bytes(ns); b > mobiwatch.TelemetryBytes {
		t.Errorf("the telemetry namespace is charged %d B, its budget is %d", b, mobiwatch.TelemetryBytes)
	}
	if got, want := fw.SDL.Evicted(ns)+uint64(fw.SDL.Len(ns)), fw.WatchStats().BatchesHandled.Load(); got != want {
		t.Errorf("telemetry batches retained + evicted = %d, MobiWatch admitted %d indications", got, want)
	}
	retained := 0
	for k, v := range fw.SDL.GetAll(ns, "") {
		tr, err := mobiflow.DecodeTrace(v)
		if err != nil || len(tr) == 0 {
			t.Fatalf("stored batch %s: %d records, err %v", k, len(tr), err)
		}
		retained += len(tr)
	}
	if retained <= 2<<16 || uint64(retained) > seen.Load()-base {
		t.Errorf("%d records retained of %d ingested, want more than twice the 65 536 a key per record held", retained, seen.Load()-base)
	}
}
