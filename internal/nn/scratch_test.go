package nn

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// trainedPair returns a lightly trained AE and LSTM plus inputs shaped
// like MobiWatch telemetry windows.
func trainedPair(t testing.TB) (*Autoencoder, *LSTM, [][]float64, [][][]float64, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	const dim = 24
	flat := syntheticWindows(rng, 120, dim)
	ae := NewAutoencoder(AEConfig{InputDim: dim, Hidden: []int{12, 4}, Seed: 1})
	if _, err := ae.Train(flat, TrainConfig{Epochs: 3, Seed: 2}); err != nil {
		t.Fatal(err)
	}

	const recDim = 8
	windows := make([][][]float64, 100)
	nexts := make([][]float64, 100)
	for i := range windows {
		w := make([][]float64, 4)
		for j := range w {
			w[j] = make([]float64, recDim)
			for k := range w[j] {
				w[j][k] = rng.NormFloat64() * 0.3
			}
		}
		windows[i] = w
		nexts[i] = make([]float64, recDim)
		for k := range nexts[i] {
			nexts[i][k] = rng.NormFloat64() * 0.3
		}
	}
	l := NewLSTM(9, recDim, 6, recDim)
	if _, err := l.TrainNextStep(windows, nexts, TrainConfig{Epochs: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	return ae, l, flat, windows, nexts
}

// TestConcurrentScoringMatchesSequential is the tentpole regression: one
// model instance scored from N goroutines (each with its own scratch)
// must produce bit-identical scores to the sequential convenience API.
// Run under -race this also proves the trained models are read-only.
func TestConcurrentScoringMatchesSequential(t *testing.T) {
	ae, l, flat, windows, nexts := trainedPair(t)

	wantAE := make([]float64, len(flat))
	for i, x := range flat {
		wantAE[i] = ae.Score(x)
	}
	wantLSTM := make([]float64, len(windows))
	for i := range windows {
		wantLSTM[i] = l.Score(windows[i], nexts[i])
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			as := ae.NewScratch()
			ls := l.NewScratch()
			for i, x := range flat {
				if got := ae.ScoreWith(as, x); got != wantAE[i] {
					errs <- "AE score diverged from sequential"
					return
				}
			}
			for i := range windows {
				if got := l.ScoreWith(ls, windows[i], nexts[i]); got != wantLSTM[i] {
					errs <- "LSTM score diverged from sequential"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestScoreZeroAllocs proves the scratch-based hot path allocates
// nothing in steady state (AllocsPerRun warms the function up once, so
// LSTM step-buffer growth happens before measurement).
func TestScoreZeroAllocs(t *testing.T) {
	ae, l, flat, windows, nexts := trainedPair(t)

	as := ae.NewScratch()
	if n := testing.AllocsPerRun(100, func() { ae.ScoreWith(as, flat[0]) }); n != 0 {
		t.Errorf("Autoencoder.ScoreWith allocates %v/op, want 0", n)
	}
	ls := l.NewScratch()
	if n := testing.AllocsPerRun(100, func() { l.ScoreWith(ls, windows[0], nexts[0]) }); n != 0 {
		t.Errorf("LSTM.ScoreWith allocates %v/op, want 0", n)
	}
	// The input layers' index lists are sized for a full row when the
	// scratch is built, not grown to the rows seen: every call below,
	// AllocsPerRun's warm-up included, takes a scratch that has only ever
	// seen all-zero rows and runs a row without a zero through it.
	const runs = 10
	zeroRow := make([]float64, len(flat[0]))
	zeroWindow := make([][]float64, len(windows[0]))
	for i := range zeroWindow {
		zeroWindow[i] = zeroRow[:len(windows[0][0])]
	}
	var aes [runs + 1]*AEScratch
	var lss [runs + 1]*LSTMScratch
	for i := range aes {
		aes[i], lss[i] = ae.NewScratch(), l.NewScratch()
		ae.ReconstructWith(aes[i], zeroRow)
		l.ForwardWith(lss[i], zeroWindow)
	}
	call := 0
	if n := testing.AllocsPerRun(runs, func() {
		ae.ReconstructWith(aes[call], flat[0])
		l.ForwardWith(lss[call], windows[0])
		call++
	}); n != 0 {
		t.Errorf("ForwardWith on a row denser than any the scratch has seen allocates %v/op, want 0", n)
	}
	// The convenience API reuses the model's default scratch, so it is
	// allocation-free too once warm.
	if n := testing.AllocsPerRun(100, func() { ae.Score(flat[0]) }); n != 0 {
		t.Errorf("Autoencoder.Score allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { l.Score(windows[0], nexts[0]) }); n != 0 {
		t.Errorf("LSTM.Score allocates %v/op, want 0", n)
	}
}

// TestTrainWorkerCountInvariant is the determinism contract of parallel
// training: for a fixed seed, the loss curve must be bit-for-bit
// identical whatever the worker count, because gradients accumulate
// into a fixed number of shards reduced in a fixed order.
func TestTrainWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := syntheticWindows(rng, 64, 16)

	aeCurve := func(workers int) []float64 {
		ae := NewAutoencoder(AEConfig{InputDim: 16, Hidden: []int{8, 3}, Seed: 4})
		losses, err := ae.Train(data, TrainConfig{Epochs: 4, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return losses
	}
	base := aeCurve(1)
	for _, w := range []int{2, 4, 7} {
		got := aeCurve(w)
		for e := range base {
			if got[e] != base[e] {
				t.Fatalf("AE epoch %d loss with %d workers = %g, 1 worker = %g", e, w, got[e], base[e])
			}
		}
	}

	const recDim = 6
	windows := make([][][]float64, 48)
	nexts := make([][]float64, 48)
	for i := range windows {
		w := make([][]float64, 3)
		for j := range w {
			w[j] = make([]float64, recDim)
			for k := range w[j] {
				w[j][k] = rng.NormFloat64()
			}
		}
		windows[i] = w
		nexts[i] = make([]float64, recDim)
	}
	lstmCurve := func(workers int) []float64 {
		l := NewLSTM(6, recDim, 5, recDim)
		losses, err := l.TrainNextStep(windows, nexts, TrainConfig{Epochs: 3, Seed: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return losses
	}
	base = lstmCurve(1)
	for _, w := range []int{3, 8} {
		got := lstmCurve(w)
		for e := range base {
			if got[e] != base[e] {
				t.Fatalf("LSTM epoch %d loss with %d workers = %g, 1 worker = %g", e, w, got[e], base[e])
			}
		}
	}
}

// TestRunShardsInlineOnSingleCPU pins the single-CPU fast path: with
// GOMAXPROCS=1 a worker pool cannot overlap anything, so runShards must
// execute the shards inline on the calling goroutine even when many
// workers are requested.
func TestRunShardsInlineOnSingleCPU(t *testing.T) {
	goid := func() string {
		buf := make([]byte, 64)
		buf = buf[:runtime.Stack(buf, false)]
		if i := bytes.IndexByte(buf, '['); i > 0 {
			buf = buf[:i]
		}
		return string(bytes.TrimSpace(buf))
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	caller := goid()
	var mu sync.Mutex
	seen := map[string]bool{}
	order := make([]int, 0, maxGradShards)
	runShards(maxGradShards, 8, func(s int) {
		mu.Lock()
		seen[goid()] = true
		order = append(order, s)
		mu.Unlock()
	})
	if len(order) != maxGradShards {
		t.Fatalf("runShards ran %d shards, want %d", len(order), maxGradShards)
	}
	for s, got := range order {
		if got != s {
			t.Errorf("inline shard order[%d] = %d, want %d", s, got, s)
		}
	}
	if len(seen) != 1 || !seen[caller] {
		t.Errorf("with GOMAXPROCS=1 shards ran on goroutines %v, want only caller %s", seen, caller)
	}

	runtime.GOMAXPROCS(4)
	seen = map[string]bool{}
	runShards(maxGradShards, 8, func(s int) {
		mu.Lock()
		seen[goid()] = true
		mu.Unlock()
	})
	if seen[caller] {
		t.Error("with GOMAXPROCS=4 and 8 workers, shards still ran on the calling goroutine")
	}
}

// TestBackwardWithAccumulatesLikeBackward checks the exported scratch
// backward against the convenience path.
func TestBackwardWithAccumulatesLikeBackward(t *testing.T) {
	m := NewMLP(3, []int{4, 3, 4}, []Activation{ActTanh, ActIdentity})
	x := []float64{0.2, -0.4, 0.9, 0.1}
	target := make([]float64, 4)
	grad := make([]float64, 4)

	ZeroGrads(m)
	MSE(m.Forward(x), target, grad)
	m.Backward(grad)
	want := append([]float64(nil), m.Params()[0].G...)

	ZeroGrads(m)
	s := m.NewScratch()
	MSE(m.ForwardWith(s, x), target, grad)
	m.BackwardWith(s, grad)
	for i, g := range m.Params()[0].G {
		if g != want[i] {
			t.Fatalf("grad[%d] = %g via scratch, %g via default", i, g, want[i])
		}
	}
}
