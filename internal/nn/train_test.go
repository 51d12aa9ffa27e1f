package nn

import (
	"math"
	"math/rand"
	"testing"
)

// syntheticWindows builds clusters of "benign" vectors around a few
// prototypes, mimicking one-hot-ish telemetry windows.
func syntheticWindows(rng *rand.Rand, n, dim int) [][]float64 {
	protos := make([][]float64, 3)
	for p := range protos {
		protos[p] = make([]float64, dim)
		for j := 0; j < dim; j += 3 {
			if (j/3+p)%2 == 0 {
				protos[p][j] = 1
			}
		}
	}
	data := make([][]float64, n)
	for i := range data {
		proto := protos[rng.Intn(len(protos))]
		v := make([]float64, dim)
		for j := range v {
			v[j] = proto[j] + rng.NormFloat64()*0.02
		}
		data[i] = v
	}
	return data
}

func TestAutoencoderLearnsBenignManifold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim = 24
	train := syntheticWindows(rng, 300, dim)
	test := syntheticWindows(rng, 50, dim)

	ae := NewAutoencoder(AEConfig{InputDim: dim, Hidden: []int{16, 6}, Seed: 1})
	losses, err := ae.Train(train, TrainConfig{Epochs: 60, LR: 5e-3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %g -> %g", losses[0], losses[len(losses)-1])
	}

	// Benign test windows reconstruct well.
	var benignScore float64
	for _, x := range test {
		benignScore += ae.Score(x)
	}
	benignScore /= float64(len(test))

	// An "attack" window far off the manifold scores much worse.
	attack := make([]float64, dim)
	for j := range attack {
		attack[j] = 1 - math.Mod(float64(j), 2) // alternating, unlike any prototype
	}
	attackScore := ae.Score(attack)
	if attackScore < 5*benignScore {
		t.Errorf("attack score %g not well above benign %g", attackScore, benignScore)
	}
}

func TestAutoencoderTrainValidation(t *testing.T) {
	ae := NewAutoencoder(AEConfig{InputDim: 4, Hidden: []int{2}, Seed: 1})
	if _, err := ae.Train(nil, TrainConfig{}); err == nil {
		t.Error("Train with no data succeeded")
	}
	if _, err := ae.Train([][]float64{{1, 2}}, TrainConfig{}); err == nil {
		t.Error("Train with wrong-dim data succeeded")
	}
}

func TestAutoencoderDeterministic(t *testing.T) {
	mk := func() float64 {
		ae := NewAutoencoder(AEConfig{InputDim: 8, Hidden: []int{4}, Seed: 42})
		rng := rand.New(rand.NewSource(5))
		data := syntheticWindows(rng, 40, 8)
		losses, err := ae.Train(data, TrainConfig{Epochs: 5, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return losses[len(losses)-1]
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("same seeds, different losses: %g vs %g", a, b)
	}
}

func TestLSTMLearnsSequencePattern(t *testing.T) {
	// Deterministic cyclic pattern over 4 one-hot symbols: the LSTM must
	// learn to predict the next symbol; a violating transition scores high.
	const dim = 4
	onehot := func(k int) []float64 {
		v := make([]float64, dim)
		v[k%dim] = 1
		return v
	}
	var windows [][][]float64
	var nexts [][]float64
	for start := 0; start < 40; start++ {
		w := [][]float64{onehot(start), onehot(start + 1), onehot(start + 2)}
		windows = append(windows, w)
		nexts = append(nexts, onehot(start+3))
	}
	l := NewLSTM(11, dim, 8, dim)
	losses, err := l.TrainNextStep(windows, nexts, TrainConfig{Epochs: 120, batchSize: 8, LR: 1e-2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] > losses[0]/4 {
		t.Errorf("LSTM loss did not drop enough: %g -> %g", losses[0], losses[len(losses)-1])
	}

	good := l.Score([][]float64{onehot(0), onehot(1), onehot(2)}, onehot(3))
	bad := l.Score([][]float64{onehot(0), onehot(1), onehot(2)}, onehot(1)) // out-of-order
	if bad < 3*good {
		t.Errorf("out-of-order score %g not well above in-order %g", bad, good)
	}
}

func TestLSTMTrainValidation(t *testing.T) {
	l := NewLSTM(1, 2, 2, 2)
	if _, err := l.TrainNextStep(nil, nil, TrainConfig{}); err == nil {
		t.Error("TrainNextStep with no data succeeded")
	}
	if _, err := l.TrainNextStep([][][]float64{{{1, 2}}}, nil, TrainConfig{}); err == nil {
		t.Error("TrainNextStep with mismatched lengths succeeded")
	}
	// Shapes are rejected before any shard goroutine starts: a panic
	// there could not be recovered by the caller.
	good := [][]float64{{1, 2}, {3, 4}}
	for name, tc := range map[string]struct {
		window [][]float64
		next   []float64
	}{
		"empty window": {nil, []float64{1, 2}},
		"ragged row":   {[][]float64{{1, 2}, {3}}, []float64{1, 2}},
		"short next":   {good, []float64{1}},
	} {
		windows := [][][]float64{good, tc.window}
		nexts := [][]float64{{1, 2}, tc.next}
		if _, err := l.TrainNextStep(windows, nexts, TrainConfig{Epochs: 1}); err == nil {
			t.Errorf("TrainNextStep with %s succeeded", name)
		}
	}
}

func TestAdamConverges(t *testing.T) {
	p := &Param{W: []float64{-4}, G: []float64{0}}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.G[0] = 2 * (p.W[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(p.W[0]-3) > 1e-2 {
		t.Errorf("w = %g, want 3", p.W[0])
	}
}

func TestActivationStrings(t *testing.T) {
	if ActReLU.String() != "relu" || ActTanh.String() != "tanh" ||
		ActSigmoid.String() != "sigmoid" || ActIdentity.String() != "identity" {
		t.Error("activation names wrong")
	}
	if Activation(9).String() != "Activation(9)" {
		t.Errorf("got %q", Activation(9).String())
	}
}

func BenchmarkAutoencoderInference(b *testing.B) {
	ae := NewAutoencoder(AEConfig{InputDim: 160, Hidden: []int{64, 16}, Seed: 1})
	x := make([]float64, 160)
	for i := range x {
		x[i] = float64(i%3) * 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ae.Score(x)
	}
}

func BenchmarkLSTMInference(b *testing.B) {
	l := NewLSTM(1, 40, 32, 40)
	window := make([][]float64, 4)
	for i := range window {
		window[i] = make([]float64, 40)
	}
	next := make([]float64, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Score(window, next)
	}
}
