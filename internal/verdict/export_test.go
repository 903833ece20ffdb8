package verdict

// The family-driven tests live in the external verdict_test package
// (model imports verdict); these give them the shared pipeline's and
// the oracle's raw results.
var (
	EvaluateShared = evaluateShared
	EvaluateSim    = evaluateSim
)
