package obs

import (
	"runtime"
	"runtime/metrics"
)

// Go runtime series, sampled at scrape time: enough to tell from /metrics
// whether the process is level or climbing.
func init() {
	NewGaugeFunc("xsec_go_heap_live_bytes", "Heap bytes the last garbage collection found reachable.",
		func() float64 { return readRuntime("/gc/heap/live:bytes") })
	// The runtime accounts a pause as GOMAXPROCS × its length, since
	// nothing else runs meanwhile; dividing gives back wall time.
	NewGaugeFunc("xsec_go_gc_pause_seconds", "Cumulative time the process has spent stopped for garbage collection.",
		func() float64 {
			return readRuntime("/cpu/classes/gc/pause:cpu-seconds") / float64(runtime.GOMAXPROCS(0))
		})
	NewGaugeFunc("xsec_go_goroutines", "Live goroutines.",
		func() float64 { return readRuntime("/sched/goroutines:goroutines") })
}

// readRuntime samples one scalar runtime/metrics value.
func readRuntime(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}
