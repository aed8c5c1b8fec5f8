// Package signal simulates the bench-measurement path the paper's method
// would use in production: synthesize the multitone test stimulus, apply
// the circuit's (simulated) response, digitize with additive noise and
// quantization, and recover per-tone amplitudes with the Goertzel
// algorithm. This closes the gap between the analytic fault dictionary
// (exact |H|) and what a tester would really observe, and powers the
// noise-robustness experiment E8.
package signal

import (
	"fmt"
	"math"
	"math/rand"
)

// Tone is one sinusoidal component of a test stimulus.
type Tone struct {
	// Omega is the angular frequency in rad/s.
	Omega float64
	// Amplitude is the peak amplitude.
	Amplitude float64
	// Phase is the initial phase in radians.
	Phase float64
}

// Multitone synthesizes the sum of tones sampled at rate fs (samples per
// second) for n samples.
func Multitone(tones []Tone, fs float64, n int) ([]float64, error) {
	if fs <= 0 {
		return nil, fmt.Errorf("signal: nonpositive sample rate %g", fs)
	}
	if n <= 0 {
		return nil, fmt.Errorf("signal: nonpositive sample count %d", n)
	}
	for _, t := range tones {
		if t.Omega <= 0 {
			return nil, fmt.Errorf("signal: nonpositive tone frequency %g", t.Omega)
		}
		if t.Omega >= math.Pi*fs {
			return nil, fmt.Errorf("signal: tone ω=%g aliases at fs=%g (Nyquist %g rad/s)", t.Omega, fs, math.Pi*fs)
		}
	}
	out := make([]float64, n)
	dt := 1 / fs
	for i := range out {
		t := float64(i) * dt
		var v float64
		for _, tone := range tones {
			v += tone.Amplitude * math.Cos(tone.Omega*t+tone.Phase)
		}
		out[i] = v
	}
	return out, nil
}

// Goertzel measures the amplitude and phase of the component at angular
// frequency omega in x sampled at fs. It evaluates one DFT bin at the
// exact (possibly non-integer-bin) frequency, which suits single-tone
// amplitude extraction better than a full FFT.
func Goertzel(x []float64, fs, omega float64) (amplitude, phase float64, err error) {
	if len(x) == 0 {
		return 0, 0, fmt.Errorf("signal: empty input")
	}
	if fs <= 0 || omega <= 0 {
		return 0, 0, fmt.Errorf("signal: bad fs=%g or ω=%g", fs, omega)
	}
	// Normalized angular step per sample.
	w := omega / fs
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	// Complex bin value.
	re := s1 - s2*math.Cos(w)
	im := s2 * math.Sin(w)
	n := float64(len(x))
	amplitude = 2 * math.Hypot(re, im) / n
	phase = math.Atan2(im, re)
	return amplitude, phase, nil
}

// AddNoise returns x plus white Gaussian noise at the given SNR in dB,
// measured against x's own RMS power. The rng makes runs reproducible.
func AddNoise(x []float64, snrDb float64, rng *rand.Rand) ([]float64, error) {
	if rng == nil {
		return nil, fmt.Errorf("signal: nil rng")
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("signal: empty input")
	}
	var power float64
	for _, v := range x {
		power += v * v
	}
	power /= float64(len(x))
	sigma := math.Sqrt(power / math.Pow(10, snrDb/10))
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = v + sigma*rng.NormFloat64()
	}
	return out, nil
}

// Quantize models an ADC: clip to ±fullScale and round to 2^bits levels.
func Quantize(x []float64, bits int, fullScale float64) ([]float64, error) {
	if bits < 1 || bits > 32 {
		return nil, fmt.Errorf("signal: bits %d outside [1,32]", bits)
	}
	if fullScale <= 0 {
		return nil, fmt.Errorf("signal: nonpositive full scale %g", fullScale)
	}
	levels := math.Exp2(float64(bits)) - 1
	step := 2 * fullScale / levels
	out := make([]float64, len(x))
	for i, v := range x {
		c := math.Max(-fullScale, math.Min(fullScale, v))
		out[i] = math.Round((c+fullScale)/step)*step - fullScale
	}
	return out, nil
}

// CoherentOmega snaps an angular frequency to the nearest nonzero
// coherent-sampling bin for a capture of n samples at rate fs: the
// returned ω completes an integer number of cycles in the window, so the
// rectangular-window Goertzel bins become orthogonal and multitone
// leakage vanishes. This mirrors standard mixed-signal test practice.
func CoherentOmega(omega, fs float64, n int) (float64, error) {
	if omega <= 0 || fs <= 0 || n <= 0 {
		return 0, fmt.Errorf("signal: bad coherent snap ω=%g fs=%g n=%d", omega, fs, n)
	}
	window := float64(n) / fs
	k := math.Round(omega * window / (2 * math.Pi))
	if k < 1 {
		k = 1
	}
	snapped := 2 * math.Pi * k / window
	if snapped >= math.Pi*fs {
		return 0, fmt.Errorf("signal: ω=%g snaps beyond Nyquist at fs=%g", omega, fs)
	}
	return snapped, nil
}

// CoherentOmegas snaps a whole test vector, erroring if two frequencies
// collapse onto the same bin.
func CoherentOmegas(omegas []float64, fs float64, n int) ([]float64, error) {
	out := make([]float64, len(omegas))
	seen := make(map[float64]bool)
	for i, w := range omegas {
		s, err := CoherentOmega(w, fs, n)
		if err != nil {
			return nil, err
		}
		if seen[s] {
			return nil, fmt.Errorf("signal: frequencies %v collapse onto bin ω=%g", omegas, s)
		}
		seen[s] = true
		out[i] = s
	}
	return out, nil
}

// MeasureConfig configures a simulated two-port measurement.
type MeasureConfig struct {
	// SampleRate in samples/s; must exceed every tone's Nyquist need.
	SampleRate float64
	// Samples per capture.
	Samples int
	// SNRdB of additive noise; +Inf (or NoNoise) disables it.
	SNRdB float64
	// ADCBits of quantization; 0 disables quantization.
	ADCBits int
	// FullScale of the ADC in volts.
	FullScale float64
}

// NoNoise disables additive noise in MeasureConfig.SNRdB.
var NoNoise = math.Inf(1)

// DefaultMeasureConfig gives a clean, fast capture for ω around 1 rad/s:
// 64 samples/s for 4096 samples (64 s of signal — long enough for good
// Goertzel resolution at the lowest paper-band tones).
func DefaultMeasureConfig() MeasureConfig {
	return MeasureConfig{SampleRate: 64, Samples: 4096, SNRdB: NoNoise, ADCBits: 0, FullScale: 4}
}

// MeasureTones simulates exciting a system with a multitone of unit
// amplitude per tone and measuring the per-tone output amplitudes, given
// the system's complex gain at each tone (from the AC analysis). It
// returns the measured amplitude at each tone frequency, including
// noise, quantization, and spectral-leakage effects.
func MeasureTones(gains []complex128, omegas []float64, cfg MeasureConfig, rng *rand.Rand) ([]float64, error) {
	if len(gains) != len(omegas) {
		return nil, fmt.Errorf("signal: %d gains for %d tones", len(gains), len(omegas))
	}
	tones := make([]Tone, len(omegas))
	for i, w := range omegas {
		mag := math.Hypot(real(gains[i]), imag(gains[i]))
		ph := math.Atan2(imag(gains[i]), real(gains[i]))
		tones[i] = Tone{Omega: w, Amplitude: mag, Phase: ph}
	}
	y, err := Multitone(tones, cfg.SampleRate, cfg.Samples)
	if err != nil {
		return nil, err
	}
	if !math.IsInf(cfg.SNRdB, 1) {
		y, err = AddNoise(y, cfg.SNRdB, rng)
		if err != nil {
			return nil, err
		}
	}
	if cfg.ADCBits > 0 {
		y, err = Quantize(y, cfg.ADCBits, cfg.FullScale)
		if err != nil {
			return nil, err
		}
	}
	out := make([]float64, len(omegas))
	for i, w := range omegas {
		amp, _, err := Goertzel(y, cfg.SampleRate, w)
		if err != nil {
			return nil, err
		}
		out[i] = amp
	}
	return out, nil
}
