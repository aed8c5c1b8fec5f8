package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzDiagnoseHandlers posts each input to /v1/diagnose and, as the one
// item of a batch, to /v1/diagnose/batch on one server with the
// tolerance model on (nf-lowpass-7 at 0.56, 4.55; MaxBatch 1, so no
// call waits out a flush window). Whatever the input, no handler may
// panic, a 200 must carry one line holding one JSON object, and any
// other status a JSON object with an error. No body may get a 5xx: a
// bad one is the client's fault, so every status, and every batch
// item's status, is below 500.
func FuzzDiagnoseHandlers(f *testing.F) {
	for _, rc := range replyCases {
		for _, req := range rc.requests {
			body := map[string]any{"cut": "nf-lowpass-7"}
			maps.Copy(body, req)
			data, err := json.Marshal(body)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"cut":"nf-lowpass-7","point":[1e200,1e200]}`))
	// As the batch call's body, maxBatchItems requests: four times the
	// default queue, all from one call.
	f.Add(bytes.TrimSuffix(bytes.Repeat([]byte(`{"point":[0.1,0]},`), maxBatchItems), []byte(",")))

	build := NewEntryBuilder(BuildConfig{
		Workers: 1, Freqs: []float64{0.56, 4.55},
		ToleranceSigma: 0.05, MCSamples: 16, Seed: 9,
		Scheduler: SchedulerConfig{MaxBatch: 1},
	}, nil)
	srv := New(Config{BuildFunc: func(ctx context.Context, name string) (*Entry, error) {
		// Only the fuzzed CUT is served, so an input naming another one
		// cannot make each run build a large CUT's dictionary and clouds.
		if name != "nf-lowpass-7" {
			return nil, fmt.Errorf("%w: %q", ErrUnknownCUT, name)
		}
		return build(ctx, name)
	}})
	f.Cleanup(srv.Close)
	if err := srv.Preload(context.Background(), []string{"nf-lowpass-7"}); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		batch := append(append([]byte(`{"cut":"nf-lowpass-7","requests":[`), body...), "]}"...)
		for _, call := range []struct {
			path string
			body []byte
		}{{"/v1/diagnose", body}, {"/v1/diagnose/batch", batch}} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, call.path, bytes.NewReader(call.body)))
			reply := rec.Body.Bytes()
			line, ok := bytes.CutSuffix(reply, []byte("\n"))
			var obj map[string]any
			if !ok || bytes.IndexByte(line, '\n') >= 0 || json.Unmarshal(line, &obj) != nil || obj == nil {
				t.Fatalf("%s: status %d, reply %q is not one line holding one JSON object", call.path, rec.Code, reply)
			}
			if msg, _ := obj["error"].(string); rec.Code != http.StatusOK && msg == "" {
				t.Fatalf("%s: status %d without a JSON error: %s", call.path, rec.Code, reply)
			}
			if rec.Code >= 500 {
				t.Fatalf("%s: status %d: %s", call.path, rec.Code, reply)
			}
			var items struct {
				Results []struct {
					Status int `json:"status"`
				} `json:"results"`
			}
			if err := json.Unmarshal(line, &items); err != nil {
				t.Fatalf("%s: reply %s: %v", call.path, reply, err)
			}
			for i, item := range items.Results {
				if item.Status >= 500 {
					t.Fatalf("%s: item %d has status %d: %s", call.path, i, item.Status, reply)
				}
			}
		}
	})
}
