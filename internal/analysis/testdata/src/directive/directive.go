// Package tree is a golden-test fixture for the driver's directive
// check: a //lint:ignore that names no registered rule, or that
// suppressed nothing, is itself a finding, and one that cannot be
// silenced. The package name puts it on the determinism rule's
// numeric-package list.
package tree

// Sum carries one live directive and two dead ones.
func Sum(m map[string]float64, xs []float64) float64 {
	s := 0.0
	for _, v := range m {
		//lint:ignore determinism rounding noise is acceptable in this debug estimate
		s += v
	}
	for _, x := range xs {
		//lint:ignore determinism a slice range is ordered, there is nothing to excuse // want `directive: //lint:ignore determinism suppresses no finding`
		s += x
	}
	//lint:ignore exactfloat no such rule is registered // want `directive: //lint:ignore names unknown rule "exactfloat"`
	if s == 0 {
		return 1
	}
	return s
}

// Unsilenceable tries to excuse a dead directive with another one:
// "directive" is not a rule, so both are reported.
func Unsilenceable(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		//lint:ignore directive keep the stale one below // want `directive: //lint:ignore names unknown rule "directive"`
		//lint:ignore determinism nothing here to excuse either // want `directive: //lint:ignore determinism suppresses no finding`
		s += x
	}
	return s
}
