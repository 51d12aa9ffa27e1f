package nn

import (
	"fmt"
	"math/rand"
	"runtime"
)

// Autoencoder compresses an input vector through a bottleneck and
// reconstructs it: Ŝ = f_AE(S). Trained only on benign windows, it
// reconstructs unseen benign traffic well and attack windows poorly, so
// the reconstruction MSE is the anomaly score (§3.2 of the paper).
//
// A trained autoencoder is read-only: score it from N goroutines by
// giving each its own AEScratch (see NewScratch / ScoreWith).
type Autoencoder struct {
	net      *MLP
	inputDim int
}

// AEScratch is a per-goroutine inference/training workspace for one
// Autoencoder. A scratch must not be used from two goroutines at once.
type AEScratch struct {
	net *MLPScratch
}

// AEConfig configures NewAutoencoder.
type AEConfig struct {
	// InputDim is the flattened window dimension.
	InputDim int
	// Hidden lists encoder layer widths down to the bottleneck; the
	// decoder mirrors it. E.g. {64, 16} builds In→64→16→64→In.
	Hidden []int
	// Seed makes initialization deterministic.
	Seed int64
}

// NewAutoencoder builds a symmetric autoencoder. Hidden layers use tanh;
// the output layer is linear so reconstructions are unbounded like the
// (one-hot / numeric) inputs.
func NewAutoencoder(cfg AEConfig) *Autoencoder {
	if cfg.InputDim <= 0 || len(cfg.Hidden) == 0 {
		panic("nn: NewAutoencoder requires InputDim > 0 and at least one hidden width")
	}
	sizes := []int{cfg.InputDim}
	sizes = append(sizes, cfg.Hidden...)
	for i := len(cfg.Hidden) - 2; i >= 0; i-- {
		sizes = append(sizes, cfg.Hidden[i])
	}
	sizes = append(sizes, cfg.InputDim)
	acts := make([]Activation, len(sizes)-1)
	for i := range acts {
		acts[i] = ActTanh
	}
	acts[len(acts)-1] = ActIdentity
	return &Autoencoder{net: NewMLP(cfg.Seed, sizes, acts), inputDim: cfg.InputDim}
}

// Params implements Model.
func (a *Autoencoder) Params() []*Param { return a.net.Params() }

// InputDim returns the expected input dimension.
func (a *Autoencoder) InputDim() int { return a.inputDim }

// NewScratch allocates a workspace sized for this autoencoder.
func (a *Autoencoder) NewScratch() *AEScratch {
	return &AEScratch{net: a.net.NewScratch()}
}

// ReconstructWith returns the reconstruction of x computed through the
// given workspace. The returned slice is owned by s and overwritten by
// its next call.
func (a *Autoencoder) ReconstructWith(s *AEScratch, x []float64) []float64 {
	return a.net.ForwardWith(s.net, x)
}

// ScoreWith returns the reconstruction MSE of x computed through the
// given workspace. After warm-up it performs no heap allocation.
func (a *Autoencoder) ScoreWith(s *AEScratch, x []float64) float64 {
	return MSE(a.net.ForwardWith(s.net, x), x, nil)
}

// Reconstruct returns the autoencoder's reconstruction of x using the
// default workspace (single-threaded convenience API). The returned
// slice is overwritten by the next call.
func (a *Autoencoder) Reconstruct(x []float64) []float64 {
	return a.net.Forward(x)
}

// Score returns the reconstruction mean squared error for x — the anomaly
// score used by MobiWatch.
func (a *Autoencoder) Score(x []float64) float64 {
	return MSE(a.net.Forward(x), x, nil)
}

// TrainConfig configures model fitting.
type TrainConfig struct {
	Epochs int
	LR     float64 // learning rate (Adam)
	Seed   int64   // shuffling seed

	// batchSize is the gradient accumulation size (default 16, what
	// every fit that ships uses; 1 = pure SGD). Only this package's
	// tests set it.
	batchSize int
	// workers bounds the data-parallel fan-out per mini-batch
	// (0 = GOMAXPROCS). The loss curve for a fixed Seed is identical
	// for every worker count: gradients accumulate into a fixed number
	// of shards reduced in a fixed order, so scheduling never changes
	// the arithmetic. Only this package's tests set it.
	workers int
}

func (c *TrainConfig) defaults() {
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.batchSize == 0 {
		c.batchSize = 16
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
}

// aeShard is one gradient shard's private training state.
type aeShard struct {
	g       shardGrads
	scratch *AEScratch
	grad    []float64 // dLoss/dOutput buffer
	loss    float64
}

// Train fits the autoencoder to the benign windows in data and returns the
// per-epoch mean training loss. Mini-batches are fanned out over
// TrainConfig.workers goroutines; results are deterministic for a fixed
// Seed regardless of worker count.
func (a *Autoencoder) Train(data [][]float64, cfg TrainConfig) ([]float64, error) {
	cfg.defaults()
	if len(data) == 0 {
		return nil, fmt.Errorf("nn: Train called with no data")
	}
	for i, x := range data {
		if len(x) != a.inputDim {
			return nil, fmt.Errorf("nn: sample %d has dim %d, want %d", i, len(x), a.inputDim)
		}
	}
	opt := NewAdam(cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(data))
	for i := range order {
		order[i] = i
	}
	losses := make([]float64, 0, cfg.Epochs)

	params := a.Params()
	nShards := maxGradShards
	if cfg.batchSize < nShards {
		nShards = cfg.batchSize
	}
	shards := make([]aeShard, nShards)
	views := make([]shardGrads, nShards)
	for i := range shards {
		shards[i] = aeShard{
			g:       newShardGrads(params),
			scratch: a.NewScratch(),
			grad:    make([]float64, a.inputDim),
		}
		views[i] = shards[i].g
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		ZeroGrads(a)
		for start := 0; start < len(order); start += cfg.batchSize {
			end := start + cfg.batchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			ns := nShards
			if len(batch) < ns {
				ns = len(batch)
			}
			runShards(ns, cfg.workers, func(s int) {
				sh := &shards[s]
				sh.loss = 0
				for pos := s; pos < len(batch); pos += ns {
					x := data[batch[pos]]
					out := a.net.ForwardWith(sh.scratch.net, x)
					sh.loss += MSE(out, x, sh.grad)
					a.net.backwardInto(sh.scratch.net, sh.g, sh.grad)
				}
			})
			for s := 0; s < ns; s++ {
				epochLoss += shards[s].loss
			}
			reduceGrads(params, views[:ns])
			scaleGrads(params, 1/float64(len(batch)))
			opt.Step(params)
			ZeroGrads(a)
		}
		losses = append(losses, epochLoss/float64(len(data)))
	}
	return losses, nil
}

func scaleGrads(params []*Param, s float64) {
	for _, p := range params {
		for i := range p.G {
			p.G[i] *= s
		}
	}
}
