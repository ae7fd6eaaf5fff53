package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSampleRequest drives arbitrary /sample bodies through the request
// half of the serving path, decodeSampleRequest then checkDrawOptions,
// without drawing. diagnose marks a body sent to the stream endpoint,
// which diagnoses every draw. Nothing may panic. A rejected body is
// answered with a 4xx carrying a JSON error. Options that decode either
// fail checkDrawOptions or land inside its ranges.
//
// The seed corpus is in testdata/fuzz/FuzzSampleRequest. The seed over
// the 1 MiB body limit is built here instead of being checked in.
func FuzzSampleRequest(f *testing.F) {
	huge := append([]byte(`{"k": 1, "algorithm": "`), bytes.Repeat([]byte("a"), 1<<20)...)
	f.Add(append(huge, `"}`...), false)
	reg := NewRegistry(Config{})
	limits := reg.cfg
	f.Fuzz(func(t *testing.T, body []byte, diagnose bool) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/models/m/sample", bytes.NewReader(body))
		_, opts, ok := decodeSampleRequest(rec, req)
		if !ok {
			if rec.Code < 400 || rec.Code > 499 {
				t.Fatalf("rejected body answered %d, want a 4xx", rec.Code)
			}
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("rejected body answered %q, want a JSON error", rec.Body.String())
			}
			return
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("accepted body wrote a response: %q", rec.Body.String())
		}
		opts.Diagnose = diagnose
		if err := reg.checkDrawOptions(&opts); err != nil {
			return
		}
		switch {
		case opts.K < 1 || opts.K > limits.MaxK:
			t.Fatalf("accepted k = %d outside [1,%d]", opts.K, limits.MaxK)
		case opts.Shards < 0 || opts.Shards > limits.MaxShards:
			t.Fatalf("accepted shards = %d outside [0,%d]", opts.Shards, limits.MaxShards)
		case opts.Parallel < 0 || opts.Parallel > limits.MaxParallel:
			t.Fatalf("accepted parallel = %d outside [0,%d]", opts.Parallel, limits.MaxParallel)
		case opts.Rounds < 0:
			t.Fatalf("accepted rounds = %d", opts.Rounds)
		case opts.Epsilon < 0 || opts.Epsilon >= 1 || math.IsNaN(opts.Epsilon):
			t.Fatalf("accepted epsilon = %v outside [0,1)", opts.Epsilon)
		case opts.Trace && opts.Diagnose:
			t.Fatal("accepted a traced and diagnosed draw")
		case (opts.Trace || opts.Diagnose) && opts.K != 1:
			t.Fatalf("accepted a traced or diagnosed draw of k = %d", opts.K)
		}
	})
}
