package nn

import "testing"

// Test-only access for the external test package in this directory,
// which scores a trained MobiWatch bundle and so cannot live in package
// nn (mobiwatch imports nn).

// ScoreBatchDense is the dense reference scorer (dense_ref_test.go).
func (e *AEInference) ScoreBatchDense(s *AEBatchScratch, xb []float32, n, recordDim int, scores []float32) {
	e.scoreBatchDense(s, xb, n, recordDim, scores)
}

// ScoreBatchDense is the dense reference scorer (dense_ref_test.go).
func (e *LSTMInference) ScoreBatchDense(s *LSTMBatchScratch, xb, targets []float32, n, T int, scores []float32) {
	e.scoreBatchDense(s, xb, targets, n, T, scores)
}

// ForcePortableKernels is forcePortableKernels.
func ForcePortableKernels(t *testing.T) { forcePortableKernels(t) }

// SIMD reports which GEMM kernel implementation is active.
func SIMD() string { return simdKernel }
