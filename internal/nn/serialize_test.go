package nn

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func TestAutoencoderSnapshotRoundTrip(t *testing.T) {
	ae := NewAutoencoder(AEConfig{InputDim: 10, Hidden: []int{6, 3}, Seed: 4})
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 10)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := ae.Score(x)

	data, err := ae.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAutoencoder(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Score(x); got != want {
		t.Errorf("loaded score = %g, want %g", got, want)
	}
	if loaded.InputDim() != 10 {
		t.Errorf("InputDim = %d", loaded.InputDim())
	}
}

func TestLSTMSnapshotRoundTrip(t *testing.T) {
	l := NewLSTM(5, 3, 6, 3)
	window := [][]float64{{1, 0, 0}, {0, 1, 0}}
	next := []float64{0, 0, 1}
	want := l.Score(window, next)

	data, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLSTM(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Score(window, next); got != want {
		t.Errorf("loaded score = %g, want %g", got, want)
	}
	in, hid, out := loaded.Dims()
	if in != 3 || hid != 6 || out != 3 {
		t.Errorf("Dims = %d,%d,%d", in, hid, out)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadAutoencoder([]byte("not json")); err == nil {
		t.Error("garbage autoencoder accepted")
	}
	if _, err := LoadLSTM([]byte("{}")); err == nil {
		t.Error("empty lstm snapshot accepted")
	}
	if _, err := LoadAutoencoder([]byte(`{"kind":"lstm"}`)); err == nil {
		t.Error("wrong kind accepted")
	}
	if _, err := LoadAutoencoder([]byte(`{"kind":"autoencoder","layers":[]}`)); err == nil {
		t.Error("no-layer autoencoder accepted")
	}
	if _, err := LoadAutoencoder([]byte(`{"kind":"autoencoder","layers":[{"in":2,"out":2,"w":[1],"b":[0,0]}]}`)); err == nil {
		t.Error("inconsistent layer shapes accepted")
	}
	if _, err := LoadLSTM([]byte(`{"kind":"lstm","in_dim":2,"hid_dim":2,"out_dim":2,"wx":[1]}`)); err == nil {
		t.Error("inconsistent lstm shapes accepted")
	}
}

// TestLoadAutoencoderRejectsBrokenChain feeds snapshots whose layer
// widths do not chain from input_dim back to input_dim. Every one would
// otherwise load and score rows of the wrong width — or index past them.
func TestLoadAutoencoderRejectsBrokenChain(t *testing.T) {
	// resize makes layer i out wide with consistent weight and bias
	// lengths, so only the chain is wrong.
	resize := func(s *aeSnapshot, i, out int) {
		s.Layers[i].Out = out
		s.Layers[i].W = make([]float64, s.Layers[i].In*out)
		s.Layers[i].B = make([]float64, out)
	}
	for _, c := range []struct {
		name    string
		corrupt func(s *aeSnapshot)
	}{
		{"input_dim is not the first layer's in", func(s *aeSnapshot) { s.InputDim-- }},
		{"a layer's out is not the next layer's in", func(s *aeSnapshot) { resize(s, 0, s.Layers[0].Out+1) }},
		{"the last layer's out is not input_dim", func(s *aeSnapshot) { resize(s, len(s.Layers)-1, s.InputDim-1) }},
		{"a zero-width layer", func(s *aeSnapshot) { resize(s, 0, 0); s.Layers[1].In, s.Layers[1].W = 0, nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			data, err := NewAutoencoder(AEConfig{InputDim: 6, Hidden: []int{4, 2}, Seed: 1}).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var snap aeSnapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				t.Fatal(err)
			}
			c.corrupt(&snap)
			if data, err = json.Marshal(snap); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadAutoencoder(data); err == nil {
				t.Error("loaded")
			}
		})
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	ae := NewAutoencoder(AEConfig{InputDim: 4, Hidden: []int{2}, Seed: 1})
	data, err := ae.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the original must not affect a model loaded earlier.
	loaded, err := LoadAutoencoder(data)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4}
	before := loaded.Score(x)
	for _, p := range ae.Params() {
		for i := range p.W {
			p.W[i] = 99
		}
	}
	if after := loaded.Score(x); after != before {
		t.Error("loaded model aliases original parameters")
	}
}
