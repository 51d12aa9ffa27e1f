package mobiwatch

import (
	"context"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/ue"
)

// TestXAppShardedDetection runs the online xApp with several UE-sharded
// scoring workers and asserts the pipeline still detects an attack while
// threshold policy updates race the scoring loops (the -race build is the
// point of this test as much as the assertions).
func TestXAppShardedDetection(t *testing.T) {
	_, _, models := fixtures(t)
	platform, g, _ := liveEnv(t)

	x, err := platform.RegisterXApp("mobiwatch-sharded")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(x, models, RunOptions{
		NodeID:       "gnb-live",
		ReportPeriod: 5 * time.Millisecond,
		Shards:       4,
		ShardBuffer:  64,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent A1 threshold updates while workers score.
	stopPolicy := make(chan struct{})
	policyDone := make(chan struct{})
	go func() {
		defer close(policyDone)
		for {
			select {
			case <-stopPolicy:
				return
			default:
				if err := rt.SetThresholdPercentile(99); err != nil {
					t.Error(err)
					return
				}
				rt.Thresholds()
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	var k [nas.KeySize]byte
	copy(k[:], "shard-test-key-1")
	attacker := ue.New("imsi-001010000000099", k, ue.OAIUE, 11)
	attacker.Profile.RetransProb = 0
	if _, err := attacker.RunBTSDoS(g, 8); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, _, got := rt.Take(ctx, nil)
	if got && (a.NodeID != "gnb-live" || len(a.Window) == 0) {
		t.Errorf("alert = %+v", a)
	}
	close(stopPolicy)
	<-policyDone
	if !got {
		t.Fatalf("sharded pipeline raised no alert for BTS DoS (stats: %d records, %d windows)",
			rt.Stats().RecordsSeen.Load(), rt.Stats().WindowsScored.Load())
	}

	// Telemetry landed in the SDL via the owned-value fast path.
	if n := x.SDL().Len("mobiflow"); n == 0 {
		t.Error("no telemetry persisted to SDL")
	}

	if err := rt.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}
