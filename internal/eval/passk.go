package eval

// This file implements the unbiased pass@k estimator of Chen et al. 2021
// ("Evaluating Large Language Models Trained on Code", the paper's [2]),
// which the paper's Pass@(scenario·n) metric derives from. The framework
// reports both: the pooled proportion the paper tabulates, and the
// standard estimator for cross-benchmark comparison (VerilogEval and the
// paper's successors report pass@k in this form).

// PassAtK is the unbiased estimator: the probability that at least one of
// k samples drawn (without replacement) from n generated samples, of which
// c are correct, passes. It computes 1 - C(n-c, k)/C(n, k) without
// overflow by multiplying the ratio incrementally.
func PassAtK(n, c, k int) float64 {
	if k <= 0 || n <= 0 {
		return 0
	}
	if c <= 0 {
		return 0
	}
	if n-c < k {
		return 1
	}
	// prod_{i=n-c+1}^{n} (1 - k/i)
	ratio := 1.0
	for i := n - c + 1; i <= n; i++ {
		ratio *= 1 - float64(k)/float64(i)
	}
	return 1 - ratio
}

// PassAtKFromCell computes pass@k from one evaluation cell's samples.
func PassAtKFromCell(st CellStats, k int) float64 {
	return PassAtK(st.Samples, st.Passed, k)
}
