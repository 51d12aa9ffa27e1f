package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the data-parallel training plumbing shared by
// Autoencoder.Train and LSTM.TrainNextStep.
//
// Determinism contract: a mini-batch is split into a FIXED number of
// gradient shards (maxGradShards, a constant — never GOMAXPROCS). Each
// shard owns private gradient accumulators and a private loss sum, and
// processes a fixed strided subset of the batch in a fixed order.
// Workers merely execute shards; scheduling cannot change what is
// summed where. Shards are then reduced into the shared Param.G in
// shard order. The result is bit-for-bit identical for a fixed
// TrainConfig.Seed on any machine and any worker count.

// maxGradShards is the mini-batch fan-out width. 8 covers the default
// batch of 16 with two samples per shard while keeping per-shard
// gradient memory (maxGradShards × model size) modest.
const maxGradShards = 8

// shardGrads is one shard's private gradient accumulators, shaped like
// a model's params.
type shardGrads [][]float64

func newShardGrads(params []*Param) shardGrads {
	g := make(shardGrads, len(params))
	for i, p := range params {
		g[i] = make([]float64, len(p.G))
	}
	return g
}

// reduceGrads adds every shard's gradients into the shared Param.G in
// shard order — the deterministic reduction — and zeroes the shard
// buffers so they are ready for the next batch.
func reduceGrads(params []*Param, shards []shardGrads) {
	for _, sg := range shards {
		for pi, p := range params {
			addClear(p.G, sg[pi])
		}
	}
}

// runShards executes fn(shard) for every shard in [0, n) on up to
// workers goroutines. fn must touch only shard-private state. With one
// worker — or one schedulable CPU, where extra goroutines only add
// scheduler churn — the shards run inline on the calling goroutine, in
// order. The two paths sum identically (see the determinism contract
// above), so the fallback is invisible except in the profile.
func runShards(n, workers int, fn func(shard int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || runtime.GOMAXPROCS(0) == 1 {
		for s := 0; s < n; s++ {
			fn(s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= n {
					return
				}
				fn(s)
			}
		}()
	}
	wg.Wait()
}
