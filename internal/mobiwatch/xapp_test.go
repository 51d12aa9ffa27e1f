package mobiwatch

import (
	"context"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/corenet"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/gnb"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/ue"
)

// liveEnv wires a real gNB to a RIC platform over an E2 pipe.
func liveEnv(t *testing.T) (*ric.Platform, *gnb.GNB, *corenet.AMF) {
	t.Helper()
	store := sdl.New()
	platform := ric.NewPlatform(store)
	amf := corenet.NewAMF(31)
	g, err := gnb.New(gnb.Config{NodeID: "gnb-live", AMF: amf})
	if err != nil {
		t.Fatal(err)
	}
	ricEnd, nodeEnd := e2ap.Pipe()
	go platform.AttachNode(ricEnd)
	go g.ServeE2(nodeEnd)

	deadline := time.Now().Add(2 * time.Second)
	for len(platform.Nodes()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("E2 setup did not complete")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(platform.Close)
	return platform, g, amf
}

func TestXAppOnlineDetection(t *testing.T) {
	_, _, models := fixtures(t)
	platform, g, amf := liveEnv(t)

	x, err := platform.RegisterXApp("mobiwatch")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(x, models, RunOptions{NodeID: "gnb-live", ReportPeriod: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Benign traffic first: no alerts expected.
	var k [nas.KeySize]byte
	copy(k[:], "live-test-key-01")
	amf.AddSubscriber(corenet.Subscriber{SUPI: "imsi-001010000000077", K: k})
	benignUE := ue.New("imsi-001010000000077", k, ue.OAIUE, 3)
	benignUE.Profile.RetransProb = 0
	if _, err := benignUE.RunSession(g); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)

	// An attack: alerts must flow.
	attacker := ue.New("imsi-001010000000077", k, ue.OAIUE, 4)
	attacker.Profile.RetransProb = 0
	if _, err := attacker.RunBTSDoS(g, 8); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	sample, _, ok := rt.Take(ctx, nil)
	if !ok {
		t.Fatalf("no alert raised for BTS DoS (stats: %d records, %d windows)",
			rt.Stats().RecordsSeen.Load(), rt.Stats().WindowsScored.Load())
	}
	if sample.NodeID != "gnb-live" || len(sample.Window) == 0 || sample.Score <= sample.Threshold {
		t.Errorf("alert = %+v", sample)
	}
	if len(sample.Context) < len(sample.Window) {
		t.Error("alert context smaller than window")
	}

	// Telemetry landed in the SDL.
	if n := x.SDL().Len("mobiflow"); n == 0 {
		t.Error("no telemetry persisted to SDL")
	}

	if err := rt.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	// The queue closes after stop: whatever is left drains, then Take
	// reports the end instead of blocking.
	for {
		_, ticket, ok := rt.Take(context.Background(), nil)
		if !ok {
			break
		}
		rt.Resolve(ticket, false)
	}
}

func TestXAppRunValidation(t *testing.T) {
	_, _, models := fixtures(t)
	platform, _, _ := liveEnv(t)
	x, err := platform.RegisterXApp("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(x, models, RunOptions{}); err == nil {
		t.Error("missing NodeID accepted")
	}
	if _, err := Run(x, models, RunOptions{NodeID: "nowhere"}); err == nil {
		t.Error("unknown node accepted")
	}
	_ = cell.RNTI(0)
}
