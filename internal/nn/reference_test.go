package nn

import (
	"math"
	"math/rand"
	"testing"
)

// This file keeps a plain dense reference of the float64 training path:
// every multiply-add written out, zeros included, dLoss/dInput computed
// for every layer, and its own shard layout, reduction and Adam step.
// TestTrainMatchesDenseReference holds Autoencoder.Train and
// LSTM.TrainNextStep to it with ==, so whatever the shipped path skips
// has to be exact. A golden hash would not do: arm64 fuses x*y+z, so the
// bits are per-GOARCH, while reference and shipped code are compiled for
// the same one.

// telemetryRows builds rows shaped like feature.Encoder's: one-hot
// groups followed by a few reals, some of them exactly zero. Every 13th
// row is all zero.
func telemetryRows(rng *rand.Rand, n, dim int) [][]float64 {
	groups := []int{dim / 2, dim / 6, dim / 6}
	rows := make([][]float64, n)
	for r := range rows {
		v := make([]float64, dim)
		rows[r] = v
		if r%13 == 12 {
			continue
		}
		off := 0
		for _, g := range groups {
			v[off+rng.Intn(g)] = 1
			off += g
		}
		for ; off < dim; off++ {
			if rng.Intn(2) == 0 {
				v[off] = rng.Float64()
			}
		}
	}
	return rows
}

// slidingWindows cuts rows into overlapping (window, next) pairs the way
// feature.WindowsLSTM does: windows share their rows.
func slidingWindows(rows [][]float64, n int) (windows [][][]float64, nexts [][]float64) {
	for i := 0; i+n < len(rows); i++ {
		windows = append(windows, rows[i:i+n])
		nexts = append(nexts, rows[i+n])
	}
	return windows, nexts
}

func zerosLike(params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = make([]float64, len(p.W))
	}
	return out
}

// refFit is the training loop both models share: shuffle, deal each
// mini-batch round-robin onto min(8, batch) accumulators, sum those in
// order, scale by 1/batch, clip when asked, one Adam step. sample runs
// forward and backward for one example, adds its gradients into grads
// (aligned with params) and returns its loss.
func refFit(params []*Param, n int, cfg TrainConfig, clip float64, sample func(idx int, grads [][]float64) float64) []float64 {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Variables, not constants: 1-beta1 must round as float64 arithmetic
	// does at run time, not as exact constant arithmetic does.
	beta1, beta2, eps := 0.9, 0.999, 1e-8
	m, v := zerosLike(params), zerosLike(params)
	step := 0
	var losses []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < n; start += cfg.batchSize {
			batch := order[start:min(start+cfg.batchSize, n)]
			ns := min(8, cfg.batchSize, len(batch))
			shards := make([][][]float64, ns)
			for s := range shards {
				shards[s] = zerosLike(params)
				var loss float64
				for pos := s; pos < len(batch); pos += ns {
					loss += sample(batch[pos], shards[s])
				}
				epochLoss += loss
			}
			grads := zerosLike(params)
			for _, sg := range shards {
				for pi := range grads {
					for i := range grads[pi] {
						grads[pi][i] += sg[pi][i]
					}
				}
			}
			var sq float64
			for pi := range grads {
				for i := range grads[pi] {
					grads[pi][i] *= 1 / float64(len(batch))
					sq += grads[pi][i] * grads[pi][i]
				}
			}
			if norm := math.Sqrt(sq); clip > 0 && norm > clip {
				for pi := range grads {
					for i := range grads[pi] {
						grads[pi][i] *= clip / norm
					}
				}
			}
			step++
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			for pi, p := range params {
				for i, g := range grads[pi] {
					m[pi][i] = beta1*m[pi][i] + (1-beta1)*g
					v[pi][i] = beta2*v[pi][i] + (1-beta2)*g*g
					p.W[i] -= cfg.LR * (m[pi][i] / bc1) / (math.Sqrt(v[pi][i]/bc2) + eps)
				}
			}
		}
		losses = append(losses, epochLoss/float64(n))
	}
	return losses
}

// refAESample is one autoencoder example through plain dense layers.
func refAESample(net *MLP, x []float64, grads [][]float64) float64 {
	acts := [][]float64{x}
	for _, l := range net.layers {
		in := acts[len(acts)-1]
		out := make([]float64, l.Out)
		for o := range out {
			sum := l.b.W[o]
			for i, xi := range in {
				sum += l.w.W[o*l.In+i] * xi
			}
			out[o] = l.Act.apply(sum)
		}
		acts = append(acts, out)
	}
	gradOut := make([]float64, len(x))
	loss := MSE(acts[len(acts)-1], x, gradOut)
	for li := len(net.layers) - 1; li >= 0; li-- {
		l := net.layers[li]
		in, out := acts[li], acts[li+1]
		gradIn := make([]float64, l.In)
		for o := 0; o < l.Out; o++ {
			delta := gradOut[o] * l.Act.derivFromOutput(out[o])
			grads[2*li+1][o] += delta
			for i := 0; i < l.In; i++ {
				grads[2*li][o*l.In+i] += delta * in[i]
				gradIn[i] += delta * l.w.W[o*l.In+i]
			}
		}
		gradOut = gradIn
	}
	return loss
}

// refLSTMSample is one (window, next) example through a plain LSTM:
// forward over every step, projection, truncated BPTT.
func refLSTMSample(l *LSTM, window [][]float64, next []float64, grads [][]float64) float64 {
	H, D, T := l.hidDim, l.inDim, len(window)
	type step struct{ i, f, g, o, c, h, tanhC []float64 }
	steps := make([]step, T)
	hPrev, cPrev := make([]float64, H), make([]float64, H)
	for t, x := range window {
		st := step{
			i: make([]float64, H), f: make([]float64, H), g: make([]float64, H), o: make([]float64, H),
			c: make([]float64, H), h: make([]float64, H), tanhC: make([]float64, H),
		}
		for h := 0; h < H; h++ {
			var pre [4]float64
			for gate := range pre {
				row := gate*H + h
				sum := l.b.W[row]
				for k, xk := range x {
					sum += l.wx.W[row*D+k] * xk
				}
				for k, hk := range hPrev {
					sum += l.wh.W[row*H+k] * hk
				}
				pre[gate] = sum
			}
			st.i[h] = sigmoid(pre[0])
			st.f[h] = sigmoid(pre[1])
			st.g[h] = math.Tanh(pre[2])
			st.o[h] = sigmoid(pre[3])
			st.c[h] = st.f[h]*cPrev[h] + st.i[h]*st.g[h]
			st.tanhC[h] = math.Tanh(st.c[h])
			st.h[h] = st.o[h] * st.tanhC[h]
		}
		steps[t] = st
		hPrev, cPrev = st.h, st.c
	}
	y := make([]float64, l.outDim)
	for o := range y {
		sum := l.by.W[o]
		for k, hk := range hPrev {
			sum += l.wy.W[o*H+k] * hk
		}
		y[o] = sum
	}
	gradOut := make([]float64, l.outDim)
	loss := MSE(y, next, gradOut)

	wxG, whG, bG, wyG, byG := grads[0], grads[1], grads[2], grads[3], grads[4]
	dh, dc := make([]float64, H), make([]float64, H)
	for o, g := range gradOut {
		byG[o] += g
		for k := 0; k < H; k++ {
			wyG[o*H+k] += g * steps[T-1].h[k]
			dh[k] += g * l.wy.W[o*H+k]
		}
	}
	for t := T - 1; t >= 0; t-- {
		st := steps[t]
		cPrev, hPrev := make([]float64, H), make([]float64, H)
		if t > 0 {
			cPrev, hPrev = steps[t-1].c, steps[t-1].h
		}
		da := make([]float64, 4*H)
		for h := 0; h < H; h++ {
			do := dh[h] * st.tanhC[h]
			dct := dc[h] + dh[h]*st.o[h]*(1-st.tanhC[h]*st.tanhC[h])
			di := dct * st.g[h]
			df := dct * cPrev[h]
			dg := dct * st.i[h]
			dc[h] = dct * st.f[h]
			da[0*H+h] = di * st.i[h] * (1 - st.i[h])
			da[1*H+h] = df * st.f[h] * (1 - st.f[h])
			da[2*H+h] = dg * (1 - st.g[h]*st.g[h])
			da[3*H+h] = do * st.o[h] * (1 - st.o[h])
		}
		dhPrev := make([]float64, H)
		for row, a := range da {
			bG[row] += a
			for k, xk := range window[t] {
				wxG[row*D+k] += a * xk
			}
			for k := 0; k < H; k++ {
				whG[row*H+k] += a * hPrev[k]
				dhPrev[k] += a * l.wh.W[row*H+k]
			}
		}
		dh = dhPrev
	}
	return loss
}

func sameParams(t *testing.T, what string, got, want []*Param) {
	t.Helper()
	for pi, p := range got {
		for i := range p.W {
			if p.W[i] != want[pi].W[i] {
				t.Fatalf("%s: %s[%d] = %v, dense reference %v", what, p.Name, i, p.W[i], want[pi].W[i])
			}
		}
	}
}

func sameCurve(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d epochs, dense reference %d", what, len(got), len(want))
	}
	for e := range got {
		if got[e] != want[e] {
			t.Fatalf("%s: epoch %d loss %v, dense reference %v", what, e, got[e], want[e])
		}
	}
}

// TestTrainMatchesDenseReference is the exactness contract of the
// index-list input layers and of everything else the training path
// leaves out: on telemetry-shaped rows (sparse, some all zero) and on
// fully dense ones (a list as long as the row), at any worker count,
// both fits produce the dense reference's loss curve and parameters,
// bit for bit.
func TestTrainMatchesDenseReference(t *testing.T) {
	const dim = 24
	inputs := map[string][][]float64{
		"telemetry": telemetryRows(rand.New(rand.NewSource(41)), 70, dim),
		"dense":     syntheticWindows(rand.New(rand.NewSource(42)), 70, dim),
	}
	for name, rows := range inputs {
		t.Run(name, func(t *testing.T) {
			// 70 samples at the default batch of 16 end in a batch of 6,
			// which has fewer shards than the rest.
			cfg := TrainConfig{Epochs: 3, LR: 5e-3, Seed: 6}
			aeCfg := AEConfig{InputDim: dim, Hidden: []int{10, 4}, Seed: 3}
			refAE := NewAutoencoder(aeCfg)
			wantAE := refFit(refAE.Params(), len(rows), cfg, 0, func(idx int, grads [][]float64) float64 {
				return refAESample(refAE.net, rows[idx], grads)
			})

			windows, nexts := slidingWindows(rows, 3)
			refL := NewLSTM(4, dim, 7, dim)
			wantL := refFit(refL.Params(), len(windows), cfg, 5, func(idx int, grads [][]float64) float64 {
				return refLSTMSample(refL, windows[idx], nexts[idx], grads)
			})

			for _, workers := range []int{1, 2, 8} {
				cfg.workers = workers
				ae := NewAutoencoder(aeCfg)
				got, err := ae.Train(rows, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameCurve(t, "autoencoder", got, wantAE)
				sameParams(t, "autoencoder", ae.Params(), refAE.Params())

				l := NewLSTM(4, dim, 7, dim)
				got, err = l.TrainNextStep(windows, nexts, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameCurve(t, "lstm", got, wantL)
				sameParams(t, "lstm", l.Params(), refL.Params())
			}
		})
	}
}
