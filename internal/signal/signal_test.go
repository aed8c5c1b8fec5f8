package signal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMultitoneValidation(t *testing.T) {
	if _, err := Multitone(nil, 0, 10); err == nil {
		t.Fatal("zero fs accepted")
	}
	if _, err := Multitone(nil, 10, 0); err == nil {
		t.Fatal("zero samples accepted")
	}
	if _, err := Multitone([]Tone{{Omega: -1, Amplitude: 1}}, 10, 10); err == nil {
		t.Fatal("negative tone accepted")
	}
	// Aliasing: ω beyond π·fs.
	if _, err := Multitone([]Tone{{Omega: 100, Amplitude: 1}}, 10, 10); err == nil {
		t.Fatal("aliasing tone accepted")
	}
}

func TestMultitoneValues(t *testing.T) {
	// Single cosine at ω=π/2·fs/... choose fs=4, ω=π/2 rad/s → period 4 s
	// → samples at t=0,0.25s... Use a simple directly computable case.
	x, err := Multitone([]Tone{{Omega: math.Pi, Amplitude: 2, Phase: 0}}, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	// x[i] = 2·cos(π·i/4).
	for i, v := range x {
		want := 2 * math.Cos(math.Pi*float64(i)/4)
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("x[%d] = %g, want %g", i, v, want)
		}
	}
}

func TestGoertzelRecoverySingleTone(t *testing.T) {
	fs := 64.0
	n := 4096
	for _, tone := range []Tone{
		{Omega: 1, Amplitude: 0.5, Phase: 0.3},
		{Omega: 2.5, Amplitude: 2, Phase: -1},
		{Omega: 10, Amplitude: 0.01, Phase: 2},
	} {
		x, err := Multitone([]Tone{tone}, fs, n)
		if err != nil {
			t.Fatal(err)
		}
		amp, _, err := Goertzel(x, fs, tone.Omega)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(amp-tone.Amplitude) > 0.02*tone.Amplitude+1e-6 {
			t.Fatalf("ω=%g: amp = %g, want %g", tone.Omega, amp, tone.Amplitude)
		}
	}
}

func TestGoertzelSeparatesTones(t *testing.T) {
	fs := 64.0
	n := 8192
	tones := []Tone{
		{Omega: 0.5, Amplitude: 1},
		{Omega: 2, Amplitude: 0.3},
		{Omega: 8, Amplitude: 0.05},
	}
	x, err := Multitone(tones, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, tone := range tones {
		amp, _, err := Goertzel(x, fs, tone.Omega)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(amp-tone.Amplitude) > 0.05*tone.Amplitude+5e-3 {
			t.Fatalf("ω=%g: amp = %g, want %g", tone.Omega, amp, tone.Amplitude)
		}
	}
}

func TestGoertzelValidation(t *testing.T) {
	if _, _, err := Goertzel(nil, 10, 1); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, _, err := Goertzel([]float64{1}, 0, 1); err == nil {
		t.Fatal("zero fs accepted")
	}
	if _, _, err := Goertzel([]float64{1}, 10, -1); err == nil {
		t.Fatal("negative ω accepted")
	}
}

func TestAddNoiseSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, _ := Multitone([]Tone{{Omega: 1, Amplitude: 1}}, 64, 16384)
	y, err := AddNoise(x, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Noise power should be ~1% of signal power (20 dB down).
	var np float64
	for i := range x {
		d := y[i] - x[i]
		np += d * d
	}
	np /= float64(len(x))
	sp := RMS(x) * RMS(x)
	gotSNR := 10 * math.Log10(sp/np)
	if math.Abs(gotSNR-20) > 1 {
		t.Fatalf("achieved SNR = %g dB, want 20", gotSNR)
	}
	if _, err := AddNoise(x, 20, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := AddNoise(nil, 20, rng); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestQuantize(t *testing.T) {
	x := []float64{-2, -0.5, 0, 0.5, 2}
	q, err := Quantize(x, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Clipping.
	if q[0] != -1 || q[4] != 1 {
		t.Fatalf("clipping failed: %v", q)
	}
	// Quantization error bounded by half a step.
	step := 2.0 / (math.Exp2(8) - 1)
	for i := 1; i < 4; i++ {
		if math.Abs(q[i]-x[i]) > step/2+1e-12 {
			t.Fatalf("q[%d] = %g vs %g exceeds half step", i, q[i], x[i])
		}
	}
	if _, err := Quantize(x, 0, 1); err == nil {
		t.Fatal("0 bits accepted")
	}
	if _, err := Quantize(x, 8, 0); err == nil {
		t.Fatal("0 full scale accepted")
	}
}

// RMS returns the root-mean-square of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var p float64
	for _, v := range x {
		p += v * v
	}
	return math.Sqrt(p / float64(len(x)))
}

func TestRMS(t *testing.T) {
	if RMS(nil) != 0 {
		t.Fatal("empty RMS")
	}
	if got := RMS([]float64{3, -3, 3, -3}); got != 3 {
		t.Fatalf("RMS = %g, want 3", got)
	}
}

func TestMeasureTonesCleanMatchesGains(t *testing.T) {
	cfg := DefaultMeasureConfig()
	gains := []complex128{complex(0.5, 0), complex(0, -0.25)}
	omegas := []float64{1, 3}
	got, err := MeasureTones(gains, omegas, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.25}
	for i := range want {
		// 5% budget: non-bin-centered tones leak into each other's
		// Goertzel bins under the rectangular window.
		if math.Abs(got[i]-want[i]) > 0.05*want[i]+1e-4 {
			t.Fatalf("tone %d: measured %g, want %g", i, got[i], want[i])
		}
	}
	if _, err := MeasureTones(gains, omegas[:1], cfg, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestMeasureTonesNoiseDegradesGracefully(t *testing.T) {
	cfg := DefaultMeasureConfig()
	gains := []complex128{complex(0.5, 0)}
	omegas := []float64{1}
	clean, err := MeasureTones(gains, omegas, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SNRdB = 40
	noisy, err := MeasureTones(gains, omegas, cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// 40 dB SNR: the Goertzel bin integrates noise down; error stays
	// small but nonzero.
	if math.Abs(noisy[0]-clean[0]) > 0.05 {
		t.Fatalf("noisy measurement %g vs clean %g", noisy[0], clean[0])
	}
	cfg.SNRdB = NoNoise
	cfg.ADCBits = 12
	quant, err := MeasureTones(gains, omegas, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(quant[0]-clean[0]) > 0.01 {
		t.Fatalf("quantized measurement %g vs clean %g", quant[0], clean[0])
	}
}

func TestCoherentOmega(t *testing.T) {
	fs, n := 64.0, 4096
	window := float64(n) / fs // 64 s → bin spacing 2π/64
	snapped, err := CoherentOmega(1.0, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	// Integer cycles in the window.
	cycles := snapped * window / (2 * math.Pi)
	if math.Abs(cycles-math.Round(cycles)) > 1e-9 {
		t.Fatalf("snapped ω=%g gives %g cycles", snapped, cycles)
	}
	if math.Abs(snapped-1.0) > 2*math.Pi/window {
		t.Fatalf("snap moved too far: %g", snapped)
	}
	// Tiny frequencies round up to the first bin, never zero.
	lo, err := CoherentOmega(1e-9, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	if lo <= 0 {
		t.Fatalf("snapped to %g", lo)
	}
	if _, err := CoherentOmega(-1, fs, n); err == nil {
		t.Fatal("negative ω accepted")
	}
	if _, err := CoherentOmega(fs*4, fs, n); err == nil {
		t.Fatal("beyond-Nyquist snap accepted")
	}
}

func TestCoherentOmegasCollision(t *testing.T) {
	fs, n := 64.0, 4096
	// Two frequencies inside the same bin collide.
	if _, err := CoherentOmegas([]float64{1.0, 1.0000001}, fs, n); err == nil {
		t.Fatal("bin collision accepted")
	}
	out, err := CoherentOmegas([]float64{0.5, 5}, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] == out[1] {
		t.Fatalf("snapped = %v", out)
	}
}

func TestCoherentEliminatesLeakage(t *testing.T) {
	// With coherent tones, Goertzel recovers amplitudes essentially
	// exactly despite a second tone being present.
	fs, n := 64.0, 4096
	ws, err := CoherentOmegas([]float64{0.6, 4.5}, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Multitone([]Tone{
		{Omega: ws[0], Amplitude: 1},
		{Omega: ws[1], Amplitude: 0.01},
	}, fs, n)
	if err != nil {
		t.Fatal(err)
	}
	amp, _, err := Goertzel(x, fs, ws[1])
	if err != nil {
		t.Fatal(err)
	}
	// The strong tone is 100× larger; without coherence its leakage
	// would bury the weak tone's 0.01 amplitude.
	if math.Abs(amp-0.01) > 1e-4 {
		t.Fatalf("coherent weak-tone amplitude = %g, want 0.01", amp)
	}
}

// Property: Goertzel amplitude is scale-linear.
func TestQuickGoertzelLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		amp := 0.1 + rng.Float64()*3
		omega := 0.5 + rng.Float64()*8
		x, err := Multitone([]Tone{{Omega: omega, Amplitude: amp}}, 64, 2048)
		if err != nil {
			return false
		}
		a1, _, err := Goertzel(x, 64, omega)
		if err != nil {
			return false
		}
		scaled := make([]float64, len(x))
		for i, v := range x {
			scaled[i] = 2 * v
		}
		a2, _, err := Goertzel(scaled, 64, omega)
		if err != nil {
			return false
		}
		return math.Abs(a2-2*a1) < 0.01*a1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
