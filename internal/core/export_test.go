package core

// Hooks for the external tests: the MATCH reference of
// reference_test.go checks the binding tables matchTable returns, on
// planGraph among others.
var (
	MatchTable = matchTable
	PlanGraph  = planGraph
)
