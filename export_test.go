package gcore

import "gcore/internal/ppg"

// AssembleNodes builds a graph of the given nodes through ppg.Assemble,
// which checks nothing: fixtures use it for the property values the
// mutators refuse (NaN), which CONSTRUCT still stores from a NaN
// parameter.
func AssembleNodes(name string, nodes []*Node) *Graph { return ppg.Assemble(name, nodes, nil, nil) }
