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
// Registry.Snapshot returns and the fleet plane ships between instances.
type SeriesSnapshot struct {
	Name    string            `json:"name"`
	Kind    string            `json:"kind"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   float64           `json:"value,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	Sum     float64           `json:"sum,omitempty"`
	Buckets []BucketSnapshot  `json:"buckets,omitempty"`
}

// WriteSeries renders a slice of series snapshots in the Prometheus
// text exposition format (version 0.0.4). It is the federation-side
// counterpart of Registry.WritePrometheus: the SMO merges per-instance
// Snapshot()s (relabeled and rolled up) and serves them as one text
// page. Series are grouped and sorted by family name, then by label
// values; one TYPE line is emitted per family (no HELP — snapshots do
// not carry help strings).
func WriteSeries(w io.Writer, series []SeriesSnapshot) error {
	sorted := append([]SeriesSnapshot(nil), series...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Name != sorted[j].Name {
			return sorted[i].Name < sorted[j].Name
		}
		return labelSig(sorted[i].Labels) < labelSig(sorted[j].Labels)
	})
	bw := bufio.NewWriter(w)
	prevFamily := ""
	for _, s := range sorted {
		if s.Name != prevFamily {
			bw.WriteString("# TYPE ")
			bw.WriteString(s.Name)
			bw.WriteByte(' ')
			kind := s.Kind
			if kind == "" {
				kind = "untyped"
			}
			bw.WriteString(kind)
			bw.WriteByte('\n')
			prevFamily = s.Name
		}
		labels, values := splitLabels(s.Labels)
		if len(s.Buckets) > 0 {
			bucketLabels := append(append(make([]string, 0, len(labels)+1), labels...), "le")
			for _, b := range s.Buckets {
				le := "+Inf"
				if b.LE != math.MaxFloat64 {
					le = formatFloat(b.LE)
				}
				writeSample(bw, s.Name, "_bucket", bucketLabels, append(values, le),
					strconv.FormatUint(b.Count, 10))
			}
			writeSample(bw, s.Name, "_sum", labels, values, formatFloat(s.Sum))
			writeSample(bw, s.Name, "_count", labels, values, strconv.FormatUint(s.Count, 10))
			continue
		}
		writeSample(bw, s.Name, "", labels, values, formatFloat(s.Value))
	}
	return bw.Flush()
}

// labelSig renders a label map as a stable sort key.
func labelSig(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\xff')
		b.WriteString(labels[k])
		b.WriteByte('\xff')
	}
	return b.String()
}

// splitLabels flattens a label map into sorted parallel name/value
// slices for writeSample.
func splitLabels(labels map[string]string) (names, values []string) {
	if len(labels) == 0 {
		return nil, nil
	}
	names = make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	values = make([]string, 0, len(names))
	for _, k := range names {
		values = append(values, labels[k])
	}
	return names, values
}

// HistQuantile estimates the q-quantile (0..1) of a cumulative bucket
// snapshot with Prometheus-style linear interpolation inside the
// bucket containing the rank. The +Inf bucket reports the highest
// finite bound, so a quantile can never be invented beyond what the
// histogram resolved.
func HistQuantile(buckets []BucketSnapshot, q float64) float64 {
	if len(buckets) == 0 {
		return 0
	}
	total := buckets[len(buckets)-1].Count
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var prevCount uint64
	var prevBound float64
	for i, b := range buckets {
		if float64(b.Count) >= rank {
			if i == len(buckets)-1 {
				return prevBound
			}
			inBucket := float64(b.Count - prevCount)
			if inBucket == 0 {
				return b.LE
			}
			return prevBound + (b.LE-prevBound)*((rank-float64(prevCount))/inBucket)
		}
		prevCount, prevBound = b.Count, b.LE
	}
	return prevBound
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
