package main

import (
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/analyzer"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/ue"
)

func caseOf(agree bool, receivedAt, at time.Time, ueids ...uint64) *analyzer.Case {
	var win mobiflow.Trace
	for _, id := range ueids {
		win = append(win, mobiflow.Record{UEID: id})
	}
	return &analyzer.Case{
		Alert:       mobiwatch.Alert{Window: win, ReceivedAt: receivedAt, At: at},
		Agree:       agree,
		ProcessedAt: at.Add(time.Millisecond),
	}
}

func TestEpisodeAttribution(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ops := []op{
		{Kind: opSession, Due: at(0), UEIDs: []uint64{1}, Measured: true},
		{Kind: opAttack, Attack: ue.AttackBTSDoS, Due: at(10), UEIDs: []uint64{2, 3}, Measured: true, ReleaseDue: at(70)},
		{Kind: opAttack, Attack: ue.AttackNullCipher, Due: at(20), UEIDs: []uint64{4}, Measured: false},
	}
	r := &run{Open: &openGen{ops: ops}}
	r.Cases = []received{
		// Disagreeing case on episode 1: attributed, but does not detect it.
		{caseOf(false, at(15), at(16), 1, 2), at(18)},
		// First agreeing case: stamps episode 1.
		{caseOf(true, at(17), at(19), 2, 3), at(25)},
		// A later agreeing case must not overwrite the first.
		{caseOf(true, at(30), at(31), 3, 3), at(40)},
		// Benign-only window: a false case.
		{caseOf(true, at(5), at(6), 1, 1), at(9)},
		// Window ending in a released context, indication after the release.
		{caseOf(true, at(75), at(76), 3, 2), at(80)},
		// Unknown UE (the victim's set-up session): ignored.
		{caseOf(true, at(1), at(2), 99), at(3)},
		// Warm-up episode: attributed, not in the run.
		{caseOf(true, at(22), at(23), 4), at(24)},
	}
	cases := attribute(r)
	if len(cases) != 6 {
		t.Fatalf("%d cases attributed, want 6", len(cases))
	}
	ep := r.Open.ops[1]
	if !ep.DetectAt.Equal(at(19)) || !ep.VerdictAt.Equal(at(25)) {
		t.Errorf("episode stamped detect=%v verdict=%v, want the first agreeing case",
			ep.DetectAt.Sub(t0), ep.VerdictAt.Sub(t0))
	}
	if cases[0].Episode != 1 || cases[3].Episode != -1 {
		t.Errorf("episodes = %d, %d; want 1, -1", cases[0].Episode, cases[3].Episode)
	}
	if !cases[0].Due.Equal(at(10)) || !cases[3].Due.Equal(at(0)) {
		t.Errorf("due of the operation owning the newest record: got %v, %v",
			cases[0].Due.Sub(t0), cases[3].Due.Sub(t0))
	}
	if !cases[4].Due.Equal(at(70)) {
		t.Errorf("case after the release is due %v, want the release's due time", cases[4].Due.Sub(t0))
	}
	if cases[5].InRun || !cases[0].InRun {
		t.Errorf("InRun = %v, %v; want false for the warm-up episode", cases[5].InRun, cases[0].InRun)
	}
	// The four segments partition due → received exactly.
	for i, tc := range cases {
		b := segments(tc)
		var sum time.Duration
		for j := 0; j < 4; j++ {
			sum += b[j+1].Sub(b[j])
		}
		if sum != tc.At.Sub(tc.Due) {
			t.Errorf("case %d: segments sum to %v, parent is %v", i, sum, tc.At.Sub(tc.Due))
		}
	}
}
