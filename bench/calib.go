package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"unsafe"
)

// Calibration. The machine this benchmark is sized for is a shared
// two-vCPU virtual machine whose cores slow by up to 1.8× for seconds to
// minutes at a time while other tenants load them. Those phases move
// every raw time the benchmark takes by more than any useful bound. So
// right after every timed op and set-up, the benchmark runs a fixed
// calibration kernel — its own code, no call into the repository — on a
// locked OS thread, and reads how long the core took for it. A time
// divided by that calibration time and multiplied by calibNominalMs is
// the time the op would have taken on an idle core of the reference
// machine: host slowdowns cancel and changes to the repository's code do
// not. Raw times are printed beside the calibrated ones.

// calibNominalMs is the calibration kernel's thread CPU time on an idle
// core of the reference machine (2 vCPU Intel Xeon VM, go1.24; tenth
// percentile of 9000 runs).
const calibNominalMs = 1.1

// The kernel's working sets, allocated once so a calibration allocates
// nothing: a floating-point dependency chain (L1), a dense complex LU
// (L1/L2), a 4 MB streaming update (memory bandwidth) and a sort of
// random floats (branches).
var (
	calibChain = make([]float64, 1<<12)
	calibLU    = make([]complex128, calibLUN*calibLUN)
	calibMem   = make([]float64, 1<<19)
	calibSrc   = func() []float64 {
		rng := rand.New(rand.NewSource(1))
		s := make([]float64, 4096)
		for i := range s {
			s[i] = rng.Float64()
		}
		return s
	}()
	calibSorted = make([]float64, len(calibSrc))
	calibSink   float64
)

const calibLUN = 40

// calibrate runs the calibration kernel once and returns its thread CPU
// time in ms (about 1.1–1.7 ms on the reference machine).
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := mustThreadCPUMs()
	x := 1.0
	for k := 0; k < 50; k++ {
		for i := range calibChain {
			calibChain[i] = calibChain[i]*0.999 + x
			x += 1e-9
		}
	}
	const n = calibLUN
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := complex(float64((i*7+j*3)%11)+1, float64((i+j)%5))
				if i == j {
					v += 50
				}
				calibLU[i*n+j] = v
			}
		}
		for k := 0; k < n; k++ {
			pivot := calibLU[k*n+k]
			for i := k + 1; i < n; i++ {
				f := calibLU[i*n+k] / pivot
				row, prow := calibLU[i*n:i*n+n], calibLU[k*n:k*n+n]
				for j := k + 1; j < n; j++ {
					row[j] -= f * prow[j]
				}
			}
		}
	}
	for i := range calibMem {
		calibMem[i] = calibMem[i]*0.5 + 1
	}
	copy(calibSorted, calibSrc)
	sort.Float64s(calibSorted)
	calibSink += calibChain[3] + real(calibLU[5]) + calibMem[9] + calibSorted[100]
	return mustThreadCPUMs() - t0
}

// threadCPUMs is the calling thread's CPU time in ms, read from
// CLOCK_THREAD_CPUTIME_ID at nanosecond resolution.
func threadCPUMs() (float64, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", errno)
	}
	return float64(ts.Nano()) / 1e6, nil
}

// mustThreadCPUMs is threadCPUMs for the calibration kernel: main has
// read the clock once before any workload runs, so a failure here is a
// bug.
func mustThreadCPUMs() float64 {
	ms, err := threadCPUMs()
	if err != nil {
		panic(err)
	}
	return ms
}
