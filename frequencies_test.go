package repro

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestParseFrequencies: the -freqs list accepts distinct finite
// non-negative values (DC included) and rejects everything else with
// ErrBadConfig, before anything is built.
func TestParseFrequencies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
	}{
		{"0.56, 4.55", []float64{0.56, 4.55}},
		{"0", []float64{0}},
		{" 1e3 ,2", []float64{1000, 2}},
		{"0x1p-2", []float64{0.25}},
	} {
		got, err := ParseFrequencies(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseFrequencies(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "abc", "1,", "NaN", "nan", "Inf", "+Inf", "-Inf", "-1", "0.5,-1e-9", "1e400", "1,NaN,2", "0.5,0.5", "0.5,5e-1"} {
		got, err := ParseFrequencies(bad)
		if err == nil {
			t.Errorf("ParseFrequencies(%q) = %v, want an error", bad, got)
		} else if !errors.Is(err, ErrBadConfig) {
			t.Errorf("ParseFrequencies(%q) error %v does not wrap ErrBadConfig", bad, err)
		}
	}
}

// FuzzParseFrequencies: ParseFrequencies never panics, the values it
// accepts are finite, non-negative and pairwise distinct, and every error
// wraps ErrBadConfig.
func FuzzParseFrequencies(f *testing.F) {
	for _, seed := range []string{"0.56,4.55", "0", "1e3, 2", "NaN", "-1", "+Inf", "0x1p-2", "1,,2", " 7 "} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseFrequencies(s)
		if err != nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("ParseFrequencies(%q): error %v does not wrap ErrBadConfig", s, err)
			}
			return
		}
		for i, w := range got {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				t.Fatalf("ParseFrequencies(%q) accepted %g", s, w)
			}
			for _, v := range got[:i] {
				if v == w {
					t.Fatalf("ParseFrequencies(%q) accepted %g twice", s, w)
				}
			}
		}
	})
}
