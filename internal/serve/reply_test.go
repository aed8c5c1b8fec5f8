package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/replies.json from the running code")

// replyFixture holds the decoded replies of the fixed requests below,
// batch_size removed (it depends on how requests coalesce).
var replyFixture = filepath.Join("testdata", "replies.json")

// replyCase is one serving configuration and the /v1/diagnose bodies
// posted to it, one at a time and then as one /v1/diagnose/batch call.
type replyCase struct {
	name     string
	build    BuildConfig
	requests []map[string]any
}

func fault1(comp string, dev float64) map[string]any {
	return map[string]any{"component": comp, "deviation": dev}
}

var replyCases = []replyCase{
	{
		// The serving benchmark's shape: a single-fault map and a
		// tolerance cloud model on the two-frequency test vector.
		name: "single",
		build: BuildConfig{
			Workers: 1, Freqs: []float64{0.56, 4.55},
			ToleranceSigma: 0.05, MCSamples: 16, Seed: 9,
		},
		requests: []map[string]any{
			{"fault": fault1("R3", 0.25), "reject_ratio": 0.02},
			{"fault": fault1("C1", -0.3)},
			{"fault": fault1("R1", 0.17), "reject_ratio": 0.5},
			{"faults": []any{fault1("R1", 0.3), fault1("C1", -0.2)}, "reject_ratio": 0.02},
			{"faults": []any{fault1("R2", -0.15), fault1("C3", 0.35)}},
			{"point": []float64{0, 0}},
			{"point": []float64{0.05, -0.12}, "reject_ratio": 0.05},
			{"point": []float64{3, -3}, "reject_ratio": 0.02},
			{"fault": fault1("R99", 0.2)},
		},
	},
	{
		// A double-fault map (reduced pair universe) with clouds over
		// the pair sets too, on four frequencies.
		name: "double",
		build: BuildConfig{
			Workers: 1, Freqs: []float64{0.2, 0.56, 4.55, 12},
			DoubleFaults: true, MaxDoubleFaults: 64,
			ToleranceSigma: 0.05, MCSamples: 8, Seed: 3,
		},
		requests: []map[string]any{
			{"faults": []any{fault1("R1", 0.3), fault1("C1", -0.2)}, "reject_ratio": 0.02},
			{"faults": []any{fault1("R2", -0.25), fault1("C2", 0.15)}},
			{"fault": fault1("R3", 0.25), "reject_ratio": 0.02},
			{"point": []float64{0, 0, 0, 0}},
			{"point": []float64{0.01, -0.02, 0.05, 0.1}, "reject_ratio": 0.05},
		},
	},
}

// TestReplyFormatFixture posts fixed requests to /v1/diagnose and
// /v1/diagnose/batch and checks that every reply is one line of JSON
// whose values, batch_size aside, equal the fixture's. Regenerate the
// fixture with -update only when served values are meant to change.
func TestReplyFormatFixture(t *testing.T) {
	got := map[string]any{}
	for _, rc := range replyCases {
		_, ts := testServer(t, Config{Build: rc.build})
		var batch []map[string]any
		for i, req := range rc.requests {
			body := map[string]any{"cut": "nf-lowpass-7"}
			maps.Copy(body, req)
			status, reply := postJSON(t, ts.URL+"/v1/diagnose", body)
			got[fmt.Sprintf("%s/%d", rc.name, i)] = map[string]any{"status": float64(status), "reply": decodeReply(t, reply)}
			batch = append(batch, body)
		}
		status, reply := postJSON(t, ts.URL+"/v1/diagnose/batch", map[string]any{"cut": "nf-lowpass-7", "requests": batch})
		got[rc.name+"/batch"] = map[string]any{"status": float64(status), "reply": decodeReply(t, reply)}
	}
	if *update {
		// One case per line, keys sorted, so a diff names the case.
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b bytes.Buffer
		b.WriteString("{\n")
		for i, k := range keys {
			kv, _ := json.Marshal(k)
			v, err := json.Marshal(got[k])
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s: %s", kv, v)
			if i < len(keys)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("}\n")
		if err := os.WriteFile(replyFixture, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(replyFixture)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var want map[string]any
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if diff := replyDiff("$", got, want); diff != "" {
		t.Fatalf("served values drifted from %s at %s", replyFixture, diff)
	}
}

// decodeReply checks that body is one line of JSON and returns it
// decoded, with every batch_size removed.
func decodeReply(t *testing.T, body []byte) any {
	t.Helper()
	line, ok := bytes.CutSuffix(body, []byte("\n"))
	if !ok || bytes.IndexByte(line, '\n') >= 0 {
		t.Fatalf("reply is not one line of JSON: %q", body)
	}
	var v any
	if err := json.Unmarshal(line, &v); err != nil {
		t.Fatalf("reply does not decode: %v: %s", err, body)
	}
	dropBatchSize(v)
	return v
}

func dropBatchSize(v any) {
	switch v := v.(type) {
	case map[string]any:
		delete(v, "batch_size")
		for _, e := range v {
			dropBatchSize(e)
		}
	case []any:
		for _, e := range v {
			dropBatchSize(e)
		}
	}
}

// replyDiff returns the path of the first value where got and want
// differ, or "". Numbers must be equal: the fixture was written on
// amd64, where Go fuses no multiply-add. Elsewhere a fused LU solve may
// move a value by an ulp, so there they compare within 1e-9 relative.
func replyDiff(path string, got, want any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return path
		}
		for k, wv := range w {
			if d := replyDiff(path+"."+k, g[k], wv); d != "" {
				return d
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return path
		}
		for i := range w {
			if d := replyDiff(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); d != "" {
				return d
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			return path
		}
		if g != w && (runtime.GOARCH == "amd64" || math.Abs(g-w) > 1e-9*math.Max(math.Abs(g), math.Abs(w))) {
			return fmt.Sprintf("%s (%v, want %v)", path, g, w)
		}
	default:
		if got != want {
			return fmt.Sprintf("%s (%v, want %v)", path, got, want)
		}
	}
	return ""
}
