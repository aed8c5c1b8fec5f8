// Package sliceutil holds the one slice idiom the reuse APIs
// (engine.Resolve and engine.SolveInto, dictionary.UniverseSignaturesInto,
// trajectory.Builder) all rely on: reslicing caller-owned backing
// storage instead of reallocating it.
package sliceutil

// Grow reslices s to length n, reallocating only when the capacity is
// insufficient. Contents are unspecified: callers overwrite every
// element (or build the slice back up from s[:0] within the returned
// capacity). This is what keeps steady-state reuse paths
// allocation-free — after the first call at a given size, every
// subsequent Grow is a pure reslice.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
