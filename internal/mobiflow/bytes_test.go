package mobiflow_test

import (
	"testing"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiflow"
)

// ueChunks cuts tr as the gNB agent batches it: runs of one UE's records,
// at most max long.
func ueChunks(tr mobiflow.Trace, max int) []mobiflow.Trace {
	var out []mobiflow.Trace
	for len(tr) > 0 {
		n := 1
		for n < len(tr) && n < max && tr[n].UEID == tr[0].UEID {
			n++
		}
		out = append(out, tr[:n])
		tr = tr[n:]
	}
	return out
}

func mixedTrace(tb testing.TB) mobiflow.Trace {
	tb.Helper()
	mixed, err := dataset.GenerateMixed(dataset.MixedConfig{BenignConfig: dataset.BenignConfig{Seed: 5}})
	if err != nil {
		tb.Fatal(err)
	}
	return mixed.Trace
}

// TestTraceBytesPerRecord holds the block's size on benign and attack
// telemetry cut into per-UE chunks: ≤ 32 B per record when every record
// travels alone, ≤ 16 B at the agent's ≈ 9 records per indication (the
// per-record TLV form it replaced took ≈ 91 B here at any size).
func TestTraceBytesPerRecord(t *testing.T) {
	tr := mixedTrace(t)
	for _, c := range []struct {
		max   int
		limit float64
	}{{1, 32}, {4, 32}, {9, 16}, {16, 16}} {
		bytes := 0
		for _, chunk := range ueChunks(tr, c.max) {
			bytes += len(mobiflow.EncodeTrace(chunk))
		}
		perRecord := float64(bytes) / float64(len(tr))
		t.Logf("chunks of ≤ %2d records: %.1f B/rec", c.max, perRecord)
		if perRecord > c.limit {
			t.Errorf("chunks of ≤ %d records encode to %.1f B/rec, want at most %.0f", c.max, perRecord, c.limit)
		}
	}
}

// benchChunks returns the mixed trace as nine-record per-UE chunks and
// how many records they hold.
func benchChunks(b *testing.B) ([]mobiflow.Trace, int) {
	tr := mixedTrace(b)
	return ueChunks(tr, 9), len(tr)
}

// BenchmarkAppendTrace encodes the mixed trace's per-UE chunks into one
// reused encoder, as the gNB agent does per indication.
func BenchmarkAppendTrace(b *testing.B) {
	chunks, _ := benchChunks(b)
	var e asn1lite.Encoder
	recs, bytes := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := chunks[i%len(chunks)]
		e.Reset()
		mobiflow.AppendTrace(&e, c)
		recs += len(c)
		bytes += len(e.Bytes())
	}
	b.ReportMetric(float64(bytes)/float64(recs), "B/rec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/rec")
}

// BenchmarkDecodeTrace decodes the same chunks as MobiWatch intake does,
// each into a slice of its own.
func BenchmarkDecodeTrace(b *testing.B) {
	chunks, _ := benchChunks(b)
	wires := make([][]byte, len(chunks))
	for i, c := range chunks {
		wires[i] = mobiflow.EncodeTrace(c)
	}
	recs, bytes := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wires[i%len(wires)]
		tr, err := mobiflow.DecodeTraceInto(nil, w)
		if err != nil {
			b.Fatal(err)
		}
		recs += len(tr)
		bytes += len(w)
	}
	b.ReportMetric(float64(bytes)/float64(recs), "B/rec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/rec")
}
