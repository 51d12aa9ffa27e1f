package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// LSTM is a single-layer Long Short-Term Memory network with a linear
// projection head. MobiWatch trains it on benign windows to predict the
// next telemetry entry, x̂_{i+N} = f_LSTM(x_i ... x_{i+N-1}); the
// prediction MSE against the actual x_{i+N} is the anomaly score (§3.2).
//
// A trained LSTM is read-only: score it from N goroutines by giving
// each its own LSTMScratch (see NewScratch / ScoreWith).
type LSTM struct {
	inDim, hidDim, outDim int

	// Gate parameters, stacked i|f|g|o along the first axis:
	// wx is (4H)×D row-major, wh is (4H)×H, b is 4H.
	wx, wh, b *Param
	// Projection head: wy is Dout×H, by is Dout.
	wy, by *Param

	params []*Param

	def *LSTMScratch // default workspace backing the convenience API
}

type lstmStep struct {
	x          []float64
	nz         []int32   // indices of x's non-zero elements (see nonZero)
	i, f, g, o []float64 // post-activation gates
	c, h       []float64 // cell and hidden state after this step
	tanhC      []float64
}

// LSTMScratch is a per-goroutine forward/backward workspace for one
// LSTM. Step buffers grow to the longest window seen and are then
// reused, so steady-state scoring performs no heap allocation. A
// scratch must not be used from two goroutines at once.
type LSTMScratch struct {
	steps []lstmStep // grown on demand, buffers reused across calls
	n     int        // timesteps cached by the last ForwardWith
	yOut  []float64

	zero []float64 // all-zero initial h/c state; never written

	// backward buffers
	dh, dhAlt, dc, da []float64
}

// NewLSTM builds an LSTM with the given input, hidden, and output widths.
func NewLSTM(seed int64, inDim, hidDim, outDim int) *LSTM {
	if inDim <= 0 || hidDim <= 0 || outDim <= 0 {
		panic("nn: NewLSTM dimensions must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	l := &LSTM{
		inDim: inDim, hidDim: hidDim, outDim: outDim,
		wx: &Param{Name: "lstm.wx", W: make([]float64, 4*hidDim*inDim), G: make([]float64, 4*hidDim*inDim)},
		wh: &Param{Name: "lstm.wh", W: make([]float64, 4*hidDim*hidDim), G: make([]float64, 4*hidDim*hidDim)},
		b:  &Param{Name: "lstm.b", W: make([]float64, 4*hidDim), G: make([]float64, 4*hidDim)},
		wy: &Param{Name: "lstm.wy", W: make([]float64, outDim*hidDim), G: make([]float64, outDim*hidDim)},
		by: &Param{Name: "lstm.by", W: make([]float64, outDim), G: make([]float64, outDim)},
	}
	xavierInit(rng, l.wx.W, inDim, hidDim)
	xavierInit(rng, l.wh.W, hidDim, hidDim)
	xavierInit(rng, l.wy.W, hidDim, outDim)
	// Forget-gate bias of 1 is the standard trick for gradient flow.
	for h := 0; h < hidDim; h++ {
		l.b.W[hidDim+h] = 1
	}
	l.params = []*Param{l.wx, l.wh, l.b, l.wy, l.by}
	return l
}

// Params implements Model.
func (l *LSTM) Params() []*Param { return l.params }

// Dims returns (input, hidden, output) widths.
func (l *LSTM) Dims() (in, hidden, out int) { return l.inDim, l.hidDim, l.outDim }

// NewScratch allocates a workspace sized for this LSTM. One model
// instance can be driven from N goroutines given N scratches.
func (l *LSTM) NewScratch() *LSTMScratch {
	H := l.hidDim
	return &LSTMScratch{
		yOut:  make([]float64, l.outDim),
		zero:  make([]float64, H),
		dh:    make([]float64, H),
		dhAlt: make([]float64, H),
		dc:    make([]float64, H),
		da:    make([]float64, 4*H),
	}
}

func (l *LSTM) scratch() *LSTMScratch {
	if l.def == nil {
		l.def = l.NewScratch()
	}
	return l.def
}

// step returns the t-th step cache, growing the workspace if the window
// is longer than any seen before.
func (s *LSTMScratch) step(t, H, D int) *lstmStep {
	for len(s.steps) <= t {
		s.steps = append(s.steps, lstmStep{
			nz: make([]int32, 0, D),
			i:  make([]float64, H), f: make([]float64, H),
			g: make([]float64, H), o: make([]float64, H),
			c: make([]float64, H), h: make([]float64, H),
			tanhC: make([]float64, H),
		})
	}
	return &s.steps[t]
}

// ForwardWith runs the network over a window of input vectors through
// the given workspace and returns the projection of the final hidden
// state — the next-step prediction. The returned slice is owned by s
// and overwritten by its next call. After warm-up the pass performs no
// heap allocation.
func (l *LSTM) ForwardWith(s *LSTMScratch, window [][]float64) []float64 {
	if len(window) == 0 {
		panic("nn: LSTM.Forward on empty window")
	}
	H := l.hidDim
	s.n = len(window)
	hPrev, cPrev := s.zero, s.zero

	for t, x := range window {
		if len(x) != l.inDim {
			panic(fmt.Sprintf("nn: LSTM input dim %d, want %d", len(x), l.inDim))
		}
		st := s.step(t, H, l.inDim)
		st.x = x
		st.nz = nonZero(st.nz[:0], x)
		for h := 0; h < H; h++ {
			// Pre-activations for the four gates of unit h: rows
			// gate·H + h, so H rows apart in b and 4H-row-stacked wx, wh.
			pre := [4]float64{l.b.W[h], l.b.W[H+h], l.b.W[2*H+h], l.b.W[3*H+h]}
			dot4(pre[:], l.wx.W[h*l.inDim:], H*l.inDim, x, st.nz)
			dot4(pre[:], l.wh.W[h*H:], H*H, hPrev, nil)
			st.i[h] = sigmoid(pre[0])
			st.f[h] = sigmoid(pre[1])
			st.g[h] = math.Tanh(pre[2])
			st.o[h] = sigmoid(pre[3])
			st.c[h] = st.f[h]*cPrev[h] + st.i[h]*st.g[h]
			st.tanhC[h] = math.Tanh(st.c[h])
			st.h[h] = st.o[h] * st.tanhC[h]
		}
		hPrev, cPrev = st.h, st.c
	}

	copy(s.yOut, l.by.W)
	for o := 0; o < l.outDim; o += 4 {
		dot4(s.yOut[o:min(o+4, l.outDim)], l.wy.W[o*H:], H, hPrev, nil)
	}
	return s.yOut
}

// Forward runs the network through the default scratch (single-threaded
// convenience API). The returned slice is overwritten by the next call.
func (l *LSTM) Forward(window [][]float64) []float64 {
	return l.ForwardWith(l.scratch(), window)
}

// backwardInto performs truncated BPTT over the window cached in s,
// accumulating parameter gradients from dLoss/dOutput into grads
// (aligned with Params(): wx, wh, b, wy, by).
func (l *LSTM) backwardInto(s *LSTMScratch, grads [][]float64, gradOut []float64) {
	if len(gradOut) != l.outDim {
		panic(fmt.Sprintf("nn: LSTM.Backward grad dim %d, want %d", len(gradOut), l.outDim))
	}
	if s.n == 0 {
		panic("nn: LSTM.Backward before Forward")
	}
	H := l.hidDim
	T := s.n
	wxG, whG, bG, wyG, byG := grads[0], grads[1], grads[2], grads[3], grads[4]

	// Projection head.
	last := &s.steps[T-1]
	dh := s.dh
	for k := range dh {
		dh[k] = 0
	}
	for o := 0; o < l.outDim; o++ {
		g := gradOut[o]
		byG[o] += g
		axpy(g, last.h, wyG[o*H:(o+1)*H])
		axpy(g, l.wy.W[o*H:(o+1)*H], dh)
	}

	dc := s.dc
	for k := range dc {
		dc[k] = 0
	}
	da := s.da // pre-activation gate grads for one step
	dhPrev := s.dhAlt
	for t := T - 1; t >= 0; t-- {
		st := &s.steps[t]
		x, nz := st.x, st.nz
		cPrev, hPrev := s.zero, s.zero
		if t > 0 {
			cPrev, hPrev = s.steps[t-1].c, s.steps[t-1].h
		}
		for h := 0; h < H; h++ {
			do := dh[h] * st.tanhC[h]
			dct := dc[h] + dh[h]*st.o[h]*(1-st.tanhC[h]*st.tanhC[h])
			di := dct * st.g[h]
			df := dct * cPrev[h]
			dg := dct * st.i[h]
			dc[h] = dct * st.f[h] // becomes dc_{t-1}

			da[0*H+h] = di * st.i[h] * (1 - st.i[h])
			da[1*H+h] = df * st.f[h] * (1 - st.f[h])
			da[2*H+h] = dg * (1 - st.g[h]*st.g[h])
			da[3*H+h] = do * st.o[h] * (1 - st.o[h])
		}
		// Accumulate parameter grads and propagate dh_{t-1}.
		for k := range dhPrev {
			dhPrev[k] = 0
		}
		for row := 0; row < 4*H; row++ {
			a := da[row]
			if a == 0 {
				continue
			}
			bG[row] += a
			wxRow := wxG[row*l.inDim:][:len(x)]
			for _, k := range nz {
				wxRow[k] += a * x[k]
			}
			axpy(a, hPrev, whG[row*H:(row+1)*H])
			axpy(a, l.wh.W[row*H:(row+1)*H], dhPrev)
		}
		dh, dhPrev = dhPrev, dh
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// ScoreWith returns the next-step prediction MSE computed through the
// given workspace. After warm-up it performs no heap allocation.
func (l *LSTM) ScoreWith(s *LSTMScratch, window [][]float64, next []float64) float64 {
	return MSE(l.ForwardWith(s, window), next, nil)
}

// Score returns the next-step prediction MSE for a window and the actual
// next entry — the LSTM anomaly score used by MobiWatch.
func (l *LSTM) Score(window [][]float64, next []float64) float64 {
	return MSE(l.Forward(window), next, nil)
}

// lstmShard is one gradient shard's private training state.
type lstmShard struct {
	g       shardGrads
	scratch *LSTMScratch
	grad    []float64 // dLoss/dOutput buffer
	loss    float64
}

// TrainNextStep fits the LSTM on (window, next) pairs and returns
// per-epoch mean loss. Mini-batches are fanned out over
// TrainConfig.workers goroutines; results are deterministic for a fixed
// Seed regardless of worker count.
func (l *LSTM) TrainNextStep(windows [][][]float64, nexts [][]float64, cfg TrainConfig) ([]float64, error) {
	cfg.defaults()
	if len(windows) == 0 || len(windows) != len(nexts) {
		return nil, fmt.Errorf("nn: TrainNextStep needs matching non-empty windows/nexts, got %d/%d", len(windows), len(nexts))
	}
	// A wrong shape would otherwise panic on a shard goroutine, where
	// no caller can recover it.
	for i, w := range windows {
		if len(w) == 0 {
			return nil, fmt.Errorf("nn: window %d is empty", i)
		}
		for t, x := range w {
			if len(x) != l.inDim {
				return nil, fmt.Errorf("nn: window %d step %d has dim %d, want %d", i, t, len(x), l.inDim)
			}
		}
		if len(nexts[i]) != l.outDim {
			return nil, fmt.Errorf("nn: next %d has dim %d, want %d", i, len(nexts[i]), l.outDim)
		}
	}
	opt := NewAdam(cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(windows))
	for i := range order {
		order[i] = i
	}
	losses := make([]float64, 0, cfg.Epochs)

	nShards := maxGradShards
	if cfg.batchSize < nShards {
		nShards = cfg.batchSize
	}
	shards := make([]lstmShard, nShards)
	views := make([]shardGrads, nShards)
	for i := range shards {
		shards[i] = lstmShard{
			g:       newShardGrads(l.params),
			scratch: l.NewScratch(),
			grad:    make([]float64, l.outDim),
		}
		views[i] = shards[i].g
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		ZeroGrads(l)
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
					idx := batch[pos]
					out := l.ForwardWith(sh.scratch, windows[idx])
					sh.loss += MSE(out, nexts[idx], sh.grad)
					l.backwardInto(sh.scratch, sh.g, sh.grad)
				}
			})
			for s := 0; s < ns; s++ {
				epochLoss += shards[s].loss
			}
			reduceGrads(l.params, views[:ns])
			scaleGrads(l.params, 1/float64(len(batch)))
			clipGrads(l.params, 5)
			opt.Step(l.params)
			ZeroGrads(l)
		}
		losses = append(losses, epochLoss/float64(len(windows)))
	}
	return losses, nil
}
