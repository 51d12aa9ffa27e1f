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
// at two and at four times the telemetry cap. A RIC that retains what it
// ingests differs by the second half's records (≈ 350 B each, 46 MB); one
// in a steady state differs by less than the telemetry ring itself holds.
func TestSteadyStateHeapIsLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 4 × TelemetryCap records through the whole framework")
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

	const ringBytes = 16 << 20 // TelemetryCap records at ≈ 250 B
	at2 := ingestTo(2 * mobiwatch.TelemetryCap)
	at4 := ingestTo(4 * mobiwatch.TelemetryCap)
	t.Logf("live heap %d MB at 2× cap, %d MB at 4× cap", at2>>20, at4>>20)
	if grew := int64(at4) - int64(at2); grew > ringBytes {
		t.Errorf("live heap grew %d MB between 2× and 4× the telemetry cap (%d → %d MB); a steady state grows by less than the ring's own %d MB",
			grew>>20, at2>>20, at4>>20, ringBytes>>20)
	}
	if n := fw.SDL.Len(mobiwatch.TelemetryNamespace); n > mobiwatch.TelemetryCap {
		t.Errorf("%d telemetry records in the SDL, cap %d", n, mobiwatch.TelemetryCap)
	}
	if got, want := fw.SDL.Evicted(mobiwatch.TelemetryNamespace)+uint64(fw.SDL.Len(mobiwatch.TelemetryNamespace)), seen.Load(); got != want {
		t.Errorf("telemetry retained + evicted = %d, MobiWatch ingested %d", got, want)
	}
}
