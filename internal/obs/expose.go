package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the registry in the
// Prometheus text exposition format (version 0.0.4): families sorted by
// name, series sorted by label values, histograms as cumulative
// _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(f.name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(f.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')

		f.mu.RLock()
		fn := f.gaugeFn
		f.mu.RUnlock()
		if fn != nil {
			writeSample(bw, f.name, "", nil, nil, formatFloat(fn()))
		}
		for _, key := range f.sortedKeys() {
			f.mu.RLock()
			s := f.series[key]
			f.mu.RUnlock()
			values := splitKey(key, len(f.labels))
			switch m := s.(type) {
			case *Counter:
				writeSample(bw, f.name, "", f.labels, values, strconv.FormatUint(m.Value(), 10))
			case *Gauge:
				writeSample(bw, f.name, "", f.labels, values, formatFloat(m.Value()))
			case *Histogram:
				cum := make([]uint64, len(m.upper)+1)
				m.cumulative(cum)
				// Fresh slices: appending to f.labels/values directly
				// could share backing arrays across scrapes.
				bucketLabels := append(append(make([]string, 0, len(f.labels)+1), f.labels...), "le")
				bucketValues := append(make([]string, 0, len(values)+1), values...)
				for i, ub := range m.upper {
					writeSample(bw, f.name, "_bucket", bucketLabels, append(bucketValues, formatFloat(ub)),
						strconv.FormatUint(cum[i], 10))
				}
				writeSample(bw, f.name, "_bucket", bucketLabels, append(bucketValues, "+Inf"),
					strconv.FormatUint(cum[len(cum)-1], 10))
				writeSample(bw, f.name, "_sum", f.labels, values, formatFloat(m.Sum()))
				writeSample(bw, f.name, "_count", f.labels, values, strconv.FormatUint(m.Count(), 10))
			}
		}
	}
	return bw.Flush()
}

// writeSample renders one `name_suffix{labels} value` line.
func writeSample(bw *bufio.Writer, name, suffix string, labels, values []string, value string) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if len(labels) > 0 {
		bw.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(l)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(values[i]))
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// BucketSnapshot is one cumulative histogram bucket in a Snapshot.
type BucketSnapshot struct {
	LE    float64 `json:"le"` // +Inf encoded as the largest float
	Count uint64  `json:"count"`
	// Exemplar is the slowest observation the (non-cumulative) bucket
	// has seen, when the series was fed via ObserveWithExemplar.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// SeriesSnapshot is one series' state, machine-readable — what
// Registry.Snapshot returns.
type SeriesSnapshot struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets,omitempty"`
}

// Snapshot captures every series in the registry, sorted like the text
// exposition.
func (r *Registry) Snapshot() []SeriesSnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var out []SeriesSnapshot
	for _, f := range fams {
		f.mu.RLock()
		fn := f.gaugeFn
		f.mu.RUnlock()
		if fn != nil {
			out = append(out, SeriesSnapshot{Name: f.name, Kind: f.kind.String(), Value: fn()})
		}
		for _, key := range f.sortedKeys() {
			f.mu.RLock()
			s := f.series[key]
			f.mu.RUnlock()
			snap := SeriesSnapshot{Name: f.name, Kind: f.kind.String()}
			if values := splitKey(key, len(f.labels)); values != nil {
				snap.Labels = make(map[string]string, len(values))
				for i, l := range f.labels {
					snap.Labels[l] = values[i]
				}
			}
			switch m := s.(type) {
			case *Counter:
				snap.Value = float64(m.Value())
			case *Gauge:
				snap.Value = m.Value()
			case *Histogram:
				cum := make([]uint64, len(m.upper)+1)
				m.cumulative(cum)
				snap.Count = m.Count()
				snap.Sum = m.Sum()
				snap.Buckets = make([]BucketSnapshot, 0, len(cum))
				for i, ub := range m.upper {
					snap.Buckets = append(snap.Buckets,
						BucketSnapshot{LE: ub, Count: cum[i], Exemplar: m.exemplar(i)})
				}
				snap.Buckets = append(snap.Buckets,
					BucketSnapshot{LE: math.MaxFloat64, Count: cum[len(cum)-1], Exemplar: m.exemplar(len(m.upper))})
			}
			out = append(out, snap)
		}
	}
	return out
}
