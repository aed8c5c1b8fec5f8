// Command bench is the repository's end-to-end and per-layer benchmark.
// It runs four workloads over the public APIs — the paper's GA test
// generation, a cold sparse dictionary build, a double-fault grid build
// and open-loop traffic against an in-process ftserve — and prints one
// result line per workload.
//
//	bench --workload atpg-paper --seed 1 --trace 0
//	bench --seed 1 --out results.json   # every workload, one child process each
//	bench compare parent/*.json change/*.json
//
// Every workload measures for runSeconds; --seconds is accepted only
// with that value, so two runs being compared always ran equally long.
// An untraced run reports the end-to-end metrics; a traced run
// (--trace 1) wraps each call into a layer in a span and reports the
// per-layer metrics instead, writing the spans to
// .bench_build/spans-<workload>.json. The last line of standard output
// is a JSON object with the keys correct, attempted, failed and metrics.
// The command exits non-zero when an output check fails.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runSeconds is how long each workload measures; it is BENCHMARK.json's
// run_seconds.
const runSeconds = 25

// options are the run-wide settings every workload receives.
type options struct {
	seed int64
	// seconds is runSeconds; the smoke test shortens it.
	seconds time.Duration
	trace   bool
	// spans is the span dump path of a traced run.
	spans string
	// workers is the worker count of every pool: GOMAXPROCS.
	workers int
}

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, o options, sz sizes) (*result, error)
}

var workloads = []workload{
	{"atpg-paper", runATPG},
	{"dict-grid", runDictGrid},
	{"dict-pairs", runDictPairs},
	{"serve-open", runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// resultLinePrefix marks the full result a child process prints for its
// parent just before the contract line.
const resultLinePrefix = "result: "

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		regressed, err := runCompare(os.Args[2:], os.Stdout)
		if err != nil {
			fatalf("compare: %v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run (empty: all four, each in its own process)")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", runSeconds, "measured seconds per workload; only the fixed value is accepted")
		traceOn = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		out     = flag.String("out", "", "also write the results with a machine envelope to this JSON file")
	)
	flag.Parse()
	if *traceOn != 0 && *traceOn != 1 {
		fatalf("--trace must be 0 or 1, got %d", *traceOn)
	}
	if *seconds != runSeconds {
		fatalf("--seconds is fixed at %d (BENCHMARK.json run_seconds), got %d", runSeconds, *seconds)
	}
	if _, err := threadCPUMs(); err != nil {
		fatalf("calibration needs the thread CPU clock: %v", err)
	}
	o := options{
		seed:    *seed,
		seconds: runSeconds * time.Second,
		trace:   *traceOn == 1,
		workers: runtime.GOMAXPROCS(0),
	}
	var results []*result
	var err error
	if *name == "" {
		results, err = runAll(o)
	} else {
		var r *result
		r, err = runOne(*name, o)
		if r != nil {
			results = []*result{r}
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
	if *out != "" {
		if err := writeResults(*out, o, results); err != nil {
			fatalf("%v", err)
		}
	}
	for _, r := range results {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload in this process, prints its metrics and ends
// standard output with the contract line.
func runOne(name string, o options) (*result, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if o.trace {
		o.spans = ".bench_build/spans-" + name + ".json"
	}
	r, err := w.run(context.Background(), o, defaultSizes())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	printResult(os.Stdout, r)
	full, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s%s\n", resultLinePrefix, full)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s\n", line)
	return r, nil
}

// printResult prints every metric by name and unit, then the failed
// checks.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
	for _, set := range []map[string]metricValue{r.Metrics, r.Extra} {
		for _, name := range sortedKeys(set) {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, set[name].Value, set[name].Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// runAll runs every workload in its own child process (so each reports
// its own peak RSS) and collects their results.
func runAll(o options) ([]*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*result
	for _, w := range workloads {
		args := []string{
			"--workload", w.name,
			"--seed", strconv.FormatInt(o.seed, 10),
			"--trace", map[bool]string{false: "0", true: "1"}[o.trace],
		}
		r, err := runChild(exe, args)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// runChild runs one workload process, echoes its standard output and
// returns the result it reported. A child that failed an output check
// exits 1 after reporting; that is a result, not an error.
func runChild(exe string, args []string) (*result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var r *result
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte(resultLinePrefix)); ok {
			r = &result{}
			if err := json.Unmarshal(rest, r); err != nil {
				r = nil
			}
			continue
		}
		fmt.Printf("%s\n", line)
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	var exitErr *exec.ExitError
	switch {
	case scanErr != nil:
		return nil, scanErr
	case r == nil:
		return nil, fmt.Errorf("no result (%v)", waitErr)
	case waitErr != nil && !(errors.As(waitErr, &exitErr) && !r.Correct):
		return nil, waitErr
	}
	return r, nil
}

// envelope records the machine and settings a results file came from.
type envelope struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"num_cpu"`
	CPUModel   string    `json:"cpu_model"`
	Date       time.Time `json:"date"`
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      bool      `json:"trace"`
}

// resultsFile is the schema of a results file: one run of one or more
// workloads. bench/compare reads these.
type resultsFile struct {
	Envelope  envelope  `json:"envelope"`
	Workloads []*result `json:"workloads"`
}

func writeResults(path string, o options, results []*result) error {
	f := resultsFile{
		Envelope: envelope{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			CPUModel:   cpuModel(),
			Date:       time.Now().UTC().Truncate(time.Second),
			Seed:       o.seed,
			Seconds:    int(o.seconds / time.Second),
			Trace:      o.trace,
		},
		Workloads: results,
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cpuModel reads the CPU model name for the results envelope ("unknown"
// where /proc/cpuinfo is unavailable).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is this process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
