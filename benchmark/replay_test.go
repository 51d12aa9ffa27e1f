package main

import (
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
)

func testTrace(n int) mobiflow.Trace {
	epoch := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	tr := make(mobiflow.Trace, n)
	at := epoch
	for i := range tr {
		at = at.Add(time.Duration(1+i%7) * time.Millisecond) // uneven gaps
		tr[i] = mobiflow.Record{Seq: uint64(500 + i), Timestamp: at, UEID: uint64(1 + i/16), Msg: "RRCSetupRequest"}
	}
	return tr
}

// The restamping invariants: Seq strictly increasing across loop seams,
// inter-arrival preserved inside a loop, Timestamp never wall clock, UE
// IDs of different loops disjoint, everything else untouched.
func TestReplayRestamping(t *testing.T) {
	tr := testTrace(100)
	rep := newReplayer(tr)
	var got mobiflow.Trace
	for len(got) < 350 { // three and a half loops, in uneven chunks
		got = append(got, rep.next(nil, 33)...)
	}
	wall := time.Now().Add(-24 * time.Hour)
	for i := range got {
		src := tr[i%len(tr)]
		loop := uint64(i / len(tr))
		if i > 0 && got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("record %d: Seq %d after %d", i, got[i].Seq, got[i-1].Seq)
		}
		if got[i].UEID != src.UEID+loop*ueStride {
			t.Fatalf("record %d: UEID %d, want %d", i, got[i].UEID, src.UEID+loop*ueStride)
		}
		if got[i].Timestamp.After(wall) {
			t.Fatalf("record %d: Timestamp %v looks like wall clock", i, got[i].Timestamp)
		}
		if got[i].Msg != src.Msg {
			t.Fatalf("record %d: Msg changed", i)
		}
		if i == 0 {
			continue
		}
		gap := got[i].Timestamp.Sub(got[i-1].Timestamp)
		if i%len(tr) == 0 {
			if gap != loopGap {
				t.Fatalf("loop seam at %d: gap %v, want %v", i, gap, loopGap)
			}
		} else if want := src.Timestamp.Sub(tr[i%len(tr)-1].Timestamp); gap != want {
			t.Fatalf("record %d: inter-arrival %v, want %v", i, gap, want)
		}
	}
	if tr[0].Seq != 500 {
		t.Fatal("the source trace was modified")
	}
}

func TestClosedLoopDueTable(t *testing.T) {
	g := &closedGen{rep: newReplayer(testTrace(100))}
	t0 := time.Now()
	g.chunkAt = []time.Time{t0, t0.Add(time.Second)}
	for _, c := range []struct {
		seq  uint64
		want time.Time
		ok   bool
	}{
		{1, t0, true}, {chunkRecords, t0, true}, {chunkRecords + 1, t0.Add(time.Second), true},
		{2*chunkRecords + 1, time.Time{}, false}, {0, time.Time{}, false},
	} {
		got, ok := g.dueOf(c.seq)
		if ok != c.ok || !got.Equal(c.want) {
			t.Errorf("dueOf(%d) = %v, %v; want %v, %v", c.seq, got, ok, c.want, c.ok)
		}
	}
}
