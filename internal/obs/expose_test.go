package obs

import (
	"math"
	"runtime"
	"strings"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("xsec_test_indications_total", "Routed indications.", "xapp", "outcome").
		With("mobiwatch", "routed").Add(12)
	r.GaugeVec("xsec_test_nodes", "Attached nodes.").With().Set(2)

	out := scrape(t, r)
	for _, want := range []string{
		"# HELP xsec_test_indications_total Routed indications.\n",
		"# TYPE xsec_test_indications_total counter\n",
		`xsec_test_indications_total{xapp="mobiwatch",outcome="routed"} 12` + "\n",
		"# TYPE xsec_test_nodes gauge\n",
		"xsec_test_nodes 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Families render sorted by name; the gauge family sorts after the
	// counter family.
	if strings.Index(out, "xsec_test_indications_total") > strings.Index(out, "xsec_test_nodes") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("xsec_test_seconds", "help", []float64{0.1, 0.2, 0.4}).With()

	// Prometheus `le` bounds are inclusive: an observation equal to an
	// upper bound belongs to that bucket, not the next.
	h.Observe(0.1)  // -> le=0.1
	h.Observe(0.15) // -> le=0.2
	h.Observe(0.2)  // -> le=0.2
	h.Observe(0.4)  // -> le=0.4
	h.Observe(99)   // -> +Inf only

	out := scrape(t, r)
	for _, want := range []string{
		"# TYPE xsec_test_seconds histogram\n",
		`xsec_test_seconds_bucket{le="0.1"} 1` + "\n",
		`xsec_test_seconds_bucket{le="0.2"} 3` + "\n",
		`xsec_test_seconds_bucket{le="0.4"} 4` + "\n",
		`xsec_test_seconds_bucket{le="+Inf"} 5` + "\n",
		"xsec_test_seconds_count 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	wantSum := 0.1 + 0.15 + 0.2 + 0.4 + 99
	if s := h.Sum(); math.Abs(s-wantSum) > 1e-12 {
		t.Errorf("sum = %v, want %v", s, wantSum)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("xsec_test_escape_total", "help", "v").
		With("a\"b\\c\nd").Inc()
	out := scrape(t, r)
	want := `xsec_test_escape_total{v="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing %q:\n%s", want, out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{2.5, "2.5"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
	}
	for _, c := range cases {
		if got := formatFloat(c.in); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("xsec_test_snap_total", "help", "k").With("v").Add(3)
	h := r.HistogramVec("xsec_test_snap_seconds", "help", []float64{1, 2}).With()
	h.Observe(1.5)

	snaps := r.Snapshot()
	byName := map[string]SeriesSnapshot{}
	for _, s := range snaps {
		byName[s.Name] = s
	}
	c, ok := byName["xsec_test_snap_total"]
	if !ok || c.Value != 3 || c.Labels["k"] != "v" || c.Kind != "counter" {
		t.Fatalf("counter snapshot wrong: %+v", c)
	}
	hs, ok := byName["xsec_test_snap_seconds"]
	if !ok || hs.Count != 1 || hs.Sum != 1.5 || len(hs.Buckets) != 3 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
	// Buckets are cumulative; the final +Inf bucket equals the count.
	if hs.Buckets[0].Count != 0 || hs.Buckets[1].Count != 1 || hs.Buckets[2].Count != 1 {
		t.Fatalf("cumulative buckets wrong: %+v", hs.Buckets)
	}
	if hs.Buckets[2].LE != math.MaxFloat64 {
		t.Fatalf("+Inf bucket LE = %v", hs.Buckets[2].LE)
	}
}

// TestRuntimeSeriesExposed checks the Go runtime series are on the default
// registry with live values: "is this process level or climbing" must be
// answerable from /metrics alone.
func TestRuntimeSeriesExposed(t *testing.T) {
	runtime.GC() // live heap and pause time are as of the last collection
	out := scrape(t, Default)
	for _, name := range []string{"xsec_go_heap_live_bytes", "xsec_go_gc_pause_seconds", "xsec_go_goroutines"} {
		if !strings.Contains(out, "# TYPE "+name+" gauge\n") {
			t.Errorf("exposition missing gauge %s", name)
		}
		for _, s := range Default.Snapshot() {
			if s.Name == name && s.Value <= 0 {
				t.Errorf("%s = %v, want a positive sample", name, s.Value)
			}
		}
	}
}
