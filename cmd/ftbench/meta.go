package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchEnvelope is the shared metadata envelope of every benchmark
// report (BENCH_hotpath.json, BENCH_multifault.json, BENCH_sparse.json):
// toolchain and platform identity plus the knobs that change what a
// ns/op number means — GOMAXPROCS, the CPU model, and the measurement
// date. Embedded in each report type so the fields stay flattened in
// the JSON.
type benchEnvelope struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Date       string `json:"date"`
}

// newBenchEnvelope fills the envelope.
func newBenchEnvelope(date string) benchEnvelope {
	return benchEnvelope{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Date:       reportDate(date),
	}
}

// reportDate is the date stamp of every report. It comes from the -date
// flag so regenerated reports can be reproduced byte-for-byte in CI; an
// empty flag stamps the current UTC day.
func reportDate(date string) string {
	if date == "" {
		return time.Now().UTC().Format("2006-01-02")
	}
	return date
}

// cpuModel names the CPU the benchmarks ran on, best-effort: on Linux
// the first "model name" line of /proc/cpuinfo, empty elsewhere (the
// field is omitted from the JSON when unknown).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return ""
}

// reportPath is where experiment exp writes its report: -report, or
// BENCH_<exp>.json when the flag is empty.
func (r *runner) reportPath(exp string) string {
	if r.report != "" {
		return r.report
	}
	return "BENCH_" + exp + ".json"
}

// writeReport writes rep to path as indented JSON.
func (r *runner) writeReport(path string, rep any) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	r.printf("  wrote %s\n", path)
	return nil
}

// readReport decodes the JSON report at path into rep.
func readReport(path string, rep any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// missingKeys lists the keys the JSON object data lacks. A struct decode
// cannot tell a missing key from a zero value, and some reported values
// are legitimately zero.
func missingKeys(data []byte, keys ...string) ([]string, error) {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		return nil, err
	}
	var missing []string
	for _, k := range keys {
		if _, ok := obj[k]; !ok {
			missing = append(missing, k)
		}
	}
	return missing, nil
}

// record appends one testing.Benchmark result to rep as a named entry
// and prints it.
func (r *runner) record(rep *hotpathReport, name string, res testing.BenchmarkResult) error {
	// testing.Benchmark reports a zero result when the body aborts
	// (b.Fatal, or a Ctrl-C canceling r.ctx mid-run); 0/0 ns/op is NaN,
	// which would only surface later as a JSON marshal failure.
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if res.N == 0 {
		return fmt.Errorf("%s: benchmark failed (see log above)", name)
	}
	e := hotpathEntry{
		Name:        name,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		N:           res.N,
	}
	rep.Entries = append(rep.Entries, e)
	r.printf("  %-20s %14.0f ns/op %8d allocs/op %12d B/op  (n=%d)\n",
		e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp, e.N)
	return nil
}

// violations collects the invariants or gate clauses a report breaks.
type violations []string

func (v *violations) add(format string, args ...any) {
	*v = append(*v, fmt.Sprintf(format, args...))
}

// err joins the violations into one error, or returns nil when there
// are none.
func (v violations) err(what string) error {
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %s", what, strings.Join(v, "; "))
}
