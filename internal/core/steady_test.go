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
// through GNB.InjectTelemetry, mitigation off — and compares the live heap
// 131 072 and 262 144 records in. The telemetry namespace may still be
// filling towards its TelemetryBytes (its budget holds ≈ 500 000 records),
// so its own growth, as the SDL charges it, is taken off the heap's. What
// remains is level in a steady state, and a RIC that retains 128 B per
// record ingested grows by 16 MiB: twice the bound.
func TestSteadyStateHeapIsLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 262 144 records through the whole framework")
	}
	fw, benign := newDeployed(t, Options{
		Seed:         3,
		ReportPeriod: 5 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: 5, Seed: 7}, // heap, not recall, is under test
	})
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
	const ns = mobiwatch.TelemetryNamespace
	// ingestTo returns the live heap without the telemetry namespace's
	// charge once total records are in.
	ingestTo := func(total uint64) int64 {
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
		return int64(ms.HeapAlloc) - fw.SDL.Bytes(ns)
	}

	const measured, leak = 1 << 17, 128
	before := ingestTo(measured)
	after := ingestTo(2 * measured)
	t.Logf("live heap beside %d MB of telemetry: %d MB %d records in, %d MB %d records later",
		fw.SDL.Bytes(ns)>>20, before>>20, measured, after>>20, measured)
	if grew := after - before; grew > measured*leak/2 {
		t.Errorf("live heap beside the telemetry namespace grew %d MB over %d records (%d → %d MB); a leak of %d B per record is %d MB, the bound half that",
			grew>>20, measured, before>>20, after>>20, leak, measured*leak>>20)
	}
	if b := fw.SDL.Bytes(ns); b > mobiwatch.TelemetryBytes {
		t.Errorf("the telemetry namespace is charged %d B, its budget is %d", b, mobiwatch.TelemetryBytes)
	}
	if got, want := fw.SDL.Evicted(ns)+uint64(fw.SDL.Len(ns)), fw.WatchStats().BatchesHandled.Load(); got != want {
		t.Errorf("telemetry batches retained + evicted = %d, MobiWatch admitted %d indications", got, want)
	}
	retained := 0
	for k, v := range fw.SDL.GetAll(ns, "") {
		tr, err := mobiflow.DecodeTraceInto(nil, v)
		if err != nil || len(tr) == 0 {
			t.Fatalf("stored batch %s: %d records, err %v", k, len(tr), err)
		}
		retained += len(tr)
	}
	if retained <= 2<<16 || uint64(retained) > seen.Load()-base {
		t.Errorf("%d records retained of %d ingested, want more than twice the 65 536 a key per record held", retained, seen.Load()-base)
	}
}
