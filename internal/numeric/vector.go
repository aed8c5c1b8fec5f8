package numeric

import (
	"fmt"
	"math"
)

// Linspace returns n evenly spaced values from lo to hi inclusive.
// n == 1 returns just lo.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	if n == 1 {
		out[0] = lo
		return out
	}
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // exact endpoint despite rounding
	return out
}

// Logspace returns n logarithmically spaced values from lo to hi inclusive.
// Both endpoints must be positive.
func Logspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if lo <= 0 || hi <= 0 {
		panic(fmt.Sprintf("numeric: Logspace endpoints must be positive, got %g, %g", lo, hi))
	}
	exps := Linspace(math.Log10(lo), math.Log10(hi), n)
	out := make([]float64, n)
	for i, e := range exps {
		out[i] = math.Pow(10, e)
	}
	if n > 1 {
		out[0], out[n-1] = lo, hi
	}
	return out
}

// Db converts a linear magnitude to decibels (20·log10). Zero maps to -Inf.
func Db(mag float64) float64 {
	return 20 * math.Log10(mag)
}
