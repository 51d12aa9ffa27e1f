package smo

import (
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/sdl"
)

func TestRegistryVersioning(t *testing.T) {
	reg := NewRegistry(sdl.New())
	if _, _, ok := reg.Latest("m"); ok {
		t.Error("empty registry returned a model")
	}
	v1, err := reg.Publish("m", []byte("bundle-1"))
	if err != nil || v1 != 1 {
		t.Fatalf("v1=%d err=%v", v1, err)
	}
	v2, _ := reg.Publish("m", []byte("bundle-2"))
	if v2 != 2 {
		t.Fatalf("v2=%d", v2)
	}
	data, v, ok := reg.Latest("m")
	if !ok || v != 2 || string(data) != "bundle-2" {
		t.Errorf("Latest = %q v%d ok=%v", data, v, ok)
	}
	if vs := reg.Versions("m"); len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Errorf("Versions = %v", vs)
	}
	if _, err := reg.Publish("", nil); err == nil {
		t.Error("empty name accepted")
	}
}

func TestTrainingJobAndDeploy(t *testing.T) {
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{Sessions: 20, Fleet: 5, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(sdl.New())
	job := TrainingJob{Opts: mobiwatch.TrainOptions{Epochs: 3, Seed: 1}}
	models, version, err := job.Run(reg, benign)
	if err != nil {
		t.Fatal(err)
	}
	if models == nil || version != 1 {
		t.Fatalf("models=%v version=%d", models, version)
	}
	deployed, v, err := Deploy(reg, "mobiwatch")
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || deployed.Window != models.Window || deployed.AEThreshold != models.AEThreshold {
		t.Errorf("deployed bundle mismatch: v=%d", v)
	}
	// Retraining publishes a new version.
	if _, v2, err := job.Run(reg, benign); err != nil || v2 != 2 {
		t.Errorf("v2=%d err=%v", v2, err)
	}
}

func TestDeployErrors(t *testing.T) {
	reg := NewRegistry(sdl.New())
	if _, _, err := Deploy(reg, "absent"); err == nil {
		t.Error("absent model deployed")
	}
	reg.Publish("broken", []byte("not a bundle"))
	if _, _, err := Deploy(reg, "broken"); err == nil {
		t.Error("broken bundle deployed")
	}
}

func TestTrainingJobBadData(t *testing.T) {
	reg := NewRegistry(sdl.New())
	job := TrainingJob{}
	if _, _, err := job.Run(reg, nil); err == nil {
		t.Error("empty trace trained")
	}
}

func TestA1Policies(t *testing.T) {
	a1 := NewA1(sdl.New())
	if err := a1.Put(Policy{}); err == nil {
		t.Error("policy without ID accepted")
	}
	events, cancel := a1.Watch(4)
	defer cancel()

	p := Policy{ID: "sec-1", ThresholdPercentile: 95, MitigationMode: "enforce"}
	if err := a1.Put(p); err != nil {
		t.Fatal(err)
	}
	got, ok := a1.Get("sec-1")
	if !ok || got.ThresholdPercentile != 95 || got.MitigationMode != "enforce" {
		t.Errorf("Get = %+v ok=%v", got, ok)
	}
	if got.UpdatedAt.IsZero() {
		t.Error("UpdatedAt not stamped")
	}
	select {
	case ev := <-events:
		if ev.Key != "sec-1" {
			t.Errorf("event key = %q", ev.Key)
		}
	case <-time.After(time.Second):
		t.Fatal("no watch event")
	}
	// An empty deny list, which clears the engine's, survives the wire.
	if err := a1.Put(Policy{ID: "clear", DenyActions: []string{}}); err != nil {
		t.Fatal(err)
	}
	if got, ok := a1.Get("clear"); !ok || got.DenyActions == nil {
		t.Errorf("Get of an empty deny list = %+v ok=%v, want a non-nil empty list", got, ok)
	}
	// Keys this version does not know — including the two it used to
	// accept and never acted on — are tolerated, not an error.
	old, err := ParsePolicy([]byte(`{"id":"sec-0","threshold_percentile":97,"auto_respond":true,"report_period_ms":100}`))
	if err != nil || old.ID != "sec-0" || old.ThresholdPercentile != 97 {
		t.Errorf("ParsePolicy with retired keys = %+v, %v", old, err)
	}
}
