package testutil

import "testing"

// AllocsOnFresh returns the heap allocations of one call of use on a value it
// has not seen before. testing.AllocsPerRun warms up with a call of its own,
// which would spend anything the value builds lazily before the measured call
// runs; here the warm-up and the measured call each get a value of their own,
// both made ahead of the measurement.
func AllocsOnFresh[T any](fresh func() T, use func(T)) float64 {
	vals := []T{fresh(), fresh()}
	i := 0
	return testing.AllocsPerRun(1, func() {
		use(vals[i])
		i++
	})
}
