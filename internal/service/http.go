package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"locsample"
	"locsample/internal/obs"
	"locsample/internal/spec"
)

// HTTP API of cmd/lserved, all JSON:
//
//	POST /v1/models              register a spec; body = Spec JSON
//	GET  /v1/models              list registered models
//	GET  /v1/models/{id}         one model's spec + counters
//	POST /v1/models/{id}/sample  draw k samples
//	POST /v1/models/{id}/sample/stream  draw one sample, streaming mixing
//	                             telemetry as SSE round events (final
//	                             event carries the draw)
//	GET  /healthz                liveness
//	GET  /statsz                 registry + cache + per-model counters
//	GET  /metrics                Prometheus text exposition
//	GET  /debug/trace/{id}       one draw's Chrome trace-event JSON
//	GET  /debug/traces           stored trace listing
//	GET  /debug/mixing/{id}      one model's latest mixing summary
//	GET  /debug/pprof/...        runtime profiles
//
// Model IDs are spec content hashes ("sha256:" + 64 hex digits), so
// registration is idempotent and clients may pre-compute IDs offline.

// RegisterResponse answers POST /v1/models.
type RegisterResponse struct {
	ID string `json:"id"`
	// Cached reports that the spec was already registered (and its
	// compiled sampler reused).
	Cached bool   `json:"cached"`
	Kind   string `json:"kind"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Q      int    `json:"q"`
}

// SampleRequest is the body of POST /v1/models/{id}/sample. All fields are
// optional.
type SampleRequest struct {
	// K is the number of independent samples (default 1).
	K int `json:"k,omitempty"`
	// Seed pins the draw: chain i of the response is bit-identical to a
	// local sample with seed ChainSeed(seed, i). When omitted the server
	// picks a random seed and echoes it.
	Seed *uint64 `json:"seed,omitempty"`
	// Algorithm overrides the chain (MRF models only).
	Algorithm string `json:"algorithm,omitempty"`
	// Rounds overrides the round budget. On the wire it also accepts the
	// string "auto" (see RoundsAuto); the typed field stays an int so
	// literal SampleRequest values keep working.
	Rounds int `json:"rounds,omitempty"`
	// RoundsAuto is the parsed form of rounds:"auto": the budget is
	// measured by a grand coupling at compile time instead of taken from
	// worst-case theory, capped by the budget the other options resolve.
	RoundsAuto bool `json:"-"`
	// Every is the round-event cadence of the streaming endpoint: one SSE
	// round event per Every rounds (default 16; ignored by plain sample).
	Every int `json:"every,omitempty"`
	// Epsilon overrides the total-variation target of the automatic
	// budget.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Shards overrides the shard count every chain runs with (default:
	// the spec's "shards" field, then the server's -shards flag). MRF
	// chains shard over graph partitions, CSP chains over
	// constraint-scope halos. Purely a latency knob: samples are
	// bit-identical at every shard count.
	Shards int `json:"shards,omitempty"`
	// Parallel overrides the vertex-parallel worker count every chain's
	// rounds run with, for MRF and CSP models alike (default: the spec's
	// "parallel" field, then the server's -parallel flag). Also purely a
	// latency knob — samples are bit-identical at every worker count —
	// and mutually exclusive with Shards.
	Parallel int `json:"parallel,omitempty"`
	// Trace records a per-round timing trace of the draw (k must be 1).
	// The response carries the trace ID; fetch the Chrome trace-event
	// JSON at /debug/trace/{id}. The sample is bit-identical to an
	// untraced draw with the same options.
	Trace bool `json:"trace,omitempty"`
}

// UnmarshalJSON accepts both spellings of rounds — a number, or the
// string "auto" for a coupling-measured budget.
func (sr *SampleRequest) UnmarshalJSON(data []byte) error {
	type alias SampleRequest
	aux := struct {
		*alias
		Rounds json.RawMessage `json:"rounds,omitempty"`
	}{alias: (*alias)(sr)}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	raw := strings.TrimSpace(string(aux.Rounds))
	if raw == "" || raw == "null" {
		return nil
	}
	if strings.HasPrefix(raw, `"`) {
		var s string
		if err := json.Unmarshal(aux.Rounds, &s); err != nil {
			return err
		}
		if s != "auto" {
			return fmt.Errorf("rounds must be a number or \"auto\", got %q", s)
		}
		sr.RoundsAuto = true
		return nil
	}
	return json.Unmarshal(aux.Rounds, &sr.Rounds)
}

// SampleResponse answers POST /v1/models/{id}/sample.
type SampleResponse struct {
	ID           string `json:"id"`
	Seed         uint64 `json:"seed"`
	K            int    `json:"k"`
	Algorithm    string `json:"algorithm"`
	Rounds       int    `json:"rounds"`
	TheoryRounds int    `json:"theoryRounds,omitempty"`
	// CapRounds is the worst-case budget a rounds:"auto" draw was capped
	// by (omitted for fixed-budget draws).
	CapRounds int `json:"capRounds,omitempty"`
	// Shards is the shard count each chain ran with; ShardStats profiles
	// the sharded runtime (both omitted for centralized draws).
	Shards     int                   `json:"shards,omitempty"`
	ShardStats *locsample.ShardStats `json:"shardStats,omitempty"`
	// Parallel is the vertex-parallel worker count each chain's rounds ran
	// with (omitted for sequential rounds).
	Parallel  int     `json:"parallel,omitempty"`
	ElapsedMS float64 `json:"elapsedMs"`
	// TraceID identifies the recorded trace of a traced draw; GET
	// /debug/trace/{id} returns it as Chrome trace-event JSON.
	TraceID string  `json:"traceId,omitempty"`
	Samples [][]int `json:"samples"`
}

// ModelListResponse answers GET /v1/models.
type ModelListResponse struct {
	Models []ModelStats `json:"models"`
}

// ModelResponse answers GET /v1/models/{id}.
type ModelResponse struct {
	ModelStats
	Spec *spec.Spec `json:"spec"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// NewServer returns the HTTP handler serving reg. Routing is hand-rolled
// on the standard library only. The handler includes the debug surface
// (/metrics, /debug/trace/{id}, /debug/pprof) over the registry's
// metrics registry and trace store, and wraps everything in a
// request-ID logging middleware over the registry's logger.
func NewServer(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	obs.RegisterDebug(mux, reg.obs, reg.traces, reg.mixing)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if !allowMethod(w, req, http.MethodGet) {
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, req *http.Request) {
		if !allowMethod(w, req, http.MethodGet) {
			return
		}
		writeJSON(w, http.StatusOK, reg.Stats())
	})
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, req *http.Request) {
		switch req.Method {
		case http.MethodGet:
			resp := ModelListResponse{Models: []ModelStats{}}
			for _, m := range reg.List() {
				resp.Models = append(resp.Models, m.Stats())
			}
			writeJSON(w, http.StatusOK, resp)
		case http.MethodPost:
			handleRegister(reg, w, req)
		default:
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", req.Method))
		}
	})
	mux.HandleFunc("/v1/models/", func(w http.ResponseWriter, req *http.Request) {
		rest := strings.TrimPrefix(req.URL.Path, "/v1/models/")
		id, sub, _ := strings.Cut(rest, "/")
		m, ok := reg.Lookup(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown model %q", id))
			return
		}
		switch sub {
		case "":
			if !allowMethod(w, req, http.MethodGet) {
				return
			}
			writeJSON(w, http.StatusOK, ModelResponse{ModelStats: m.Stats(), Spec: m.Spec})
		case "sample":
			if !allowMethod(w, req, http.MethodPost) {
				return
			}
			handleSample(reg, m, w, req)
		case "sample/stream":
			if !allowMethod(w, req, http.MethodPost) {
				return
			}
			handleSampleStream(reg, m, w, req)
		default:
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown endpoint %q", req.URL.Path))
		}
	})
	return requestLog(reg, mux)
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush forwards to the wrapped writer so SSE streaming works through
// the logging middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestLog assigns every request a random ID (echoed as
// X-Request-Id) and logs method, path, status, and duration at debug
// level — info for mutating calls. The debug/scrape surface
// (/metrics, /healthz, /debug/...) is never logged above debug, so a
// scraper's poll loop does not flood the log.
func requestLog(reg *Registry, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := obs.NewTraceID()
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, req)
		attrs := []any{
			"request", id,
			"method", req.Method,
			"path", req.URL.Path,
			"status", sw.status,
			"elapsed", time.Since(start),
		}
		if req.Method == http.MethodPost && !strings.HasPrefix(req.URL.Path, "/debug/") {
			reg.log.Info("request", attrs...)
		} else {
			reg.log.Debug("request", attrs...)
		}
	})
}

func handleRegister(reg *Registry, w http.ResponseWriter, req *http.Request) {
	body, err := readBody(w, req, spec.MaxSpecBytes)
	if err != nil {
		return
	}
	m, cached, err := reg.Register(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := m.Stats()
	status := http.StatusCreated
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, RegisterResponse{
		ID: m.Hash, Cached: cached, Kind: st.Kind, N: st.N, M: st.M, Q: st.Q,
	})
}

// decodeSampleRequest reads and decodes a sample request body and turns
// it into draw options, seeded by the request or, when it names no seed,
// by a random one the response echoes. On failure it has written the
// error response and returns ok = false.
func decodeSampleRequest(w http.ResponseWriter, req *http.Request) (sr SampleRequest, opts DrawOptions, ok bool) {
	body, err := readBody(w, req, 1<<20)
	if err != nil {
		return sr, opts, false
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &sr); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid sample request: %w", err))
			return sr, opts, false
		}
	}
	seed := rand.Uint64()
	if sr.Seed != nil {
		seed = *sr.Seed
	}
	return sr, DrawOptions{
		K:          sr.K,
		Seed:       seed,
		Algorithm:  sr.Algorithm,
		Rounds:     sr.Rounds,
		Epsilon:    sr.Epsilon,
		Shards:     sr.Shards,
		Parallel:   sr.Parallel,
		RoundsAuto: sr.RoundsAuto,
		Trace:      sr.Trace,
	}, true
}

func handleSample(reg *Registry, m *Model, w http.ResponseWriter, req *http.Request) {
	_, opts, ok := decodeSampleRequest(w, req)
	if !ok {
		return
	}
	// The request context cancels in-flight work when the client
	// disconnects or the server drains — local chains stop at the next
	// round boundary, coordinator sessions are torn down.
	res, err := reg.DrawContext(req.Context(), m, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, sampleResponseFor(m, opts.Seed, res))
}

// sampleResponseFor shapes a DrawResult into the wire response.
func sampleResponseFor(m *Model, seed uint64, res *DrawResult) SampleResponse {
	resp := SampleResponse{
		ID:           m.Hash,
		Seed:         seed,
		K:            len(res.Samples),
		Algorithm:    res.Algorithm,
		Rounds:       res.Rounds,
		TheoryRounds: res.TheoryRounds,
		CapRounds:    res.CapRounds,
		ElapsedMS:    float64(res.Elapsed.Nanoseconds()) / 1e6,
		TraceID:      res.TraceID,
		Samples:      res.Samples,
	}
	if res.Shards > 1 {
		resp.Shards = res.Shards
		st := res.Shard
		resp.ShardStats = &st
	}
	if res.Parallel > 1 {
		resp.Parallel = res.Parallel
	}
	return resp
}

// RoundEvent is the data of one SSE "round" event on the streaming
// endpoint: the coupling's live mixing signal at that round.
type RoundEvent struct {
	Round    int     `json:"round"`
	Disagree int     `json:"disagree"`
	Flips    int     `json:"flips"`
	FlipEWMA float64 `json:"flipEwma"`
}

// StreamDrawEvent is the data of the final SSE "draw" event: the full
// sample response plus the coupling's diagnosis.
type StreamDrawEvent struct {
	SampleResponse
	Diagnosis *locsample.Diagnosis `json:"diagnosis"`
}

// writeSSE emits one server-sent event and flushes it to the client.
func writeSSE(w io.Writer, fl http.Flusher, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	fl.Flush()
}

// sseProbe streams round events over an open SSE connection. It
// implements locsample.CouplingProbe; unlike metric probes it
// deliberately does IO on the round path — live telemetry is the point
// of the streaming endpoint, and the cadence bounds the cost.
type sseProbe struct {
	w     http.ResponseWriter
	fl    http.Flusher
	every int
}

func (p *sseProbe) CouplingRound(round, disagree, flips int, flipEWMA float64) {
	if round%p.every != 0 {
		return
	}
	writeSSE(p.w, p.fl, "round", RoundEvent{Round: round, Disagree: disagree, Flips: flips, FlipEWMA: flipEWMA})
}

// handleSampleStream serves POST /v1/models/{id}/sample/stream: a
// diagnosed single draw streamed as SSE — one "round" event per Every
// rounds (round 0 always fires, so every stream carries at least one),
// then a final "draw" event with the sample and its diagnosis. The
// sample is bit-identical to a plain draw with the same options.
func handleSampleStream(reg *Registry, m *Model, w http.ResponseWriter, req *http.Request) {
	sr, opts, ok := decodeSampleRequest(w, req)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	every := sr.Every
	if every <= 0 {
		every = 16
	}
	opts.Diagnose = true
	// Validate and compile before committing to the stream so invalid
	// options (k > 1 and trace included) still get a proper HTTP error
	// status instead of a broken event stream.
	if err := reg.checkDrawOptions(&opts); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := reg.getCompiled(m, opts); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	opts.Probe = &sseProbe{w: w, fl: fl, every: every}
	res, err := reg.DrawContext(req.Context(), m, opts)
	if err != nil {
		// The stream is already open (status sent); report in-band.
		writeSSE(w, fl, "error", errorResponse{Error: err.Error()})
		return
	}
	writeSSE(w, fl, "draw", StreamDrawEvent{SampleResponse: sampleResponseFor(m, opts.Seed, res), Diagnosis: res.Diagnosis})
}

func readBody(w http.ResponseWriter, req *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, limit))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", limit))
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		}
		return nil, err
	}
	return body, nil
}

func allowMethod(w http.ResponseWriter, req *http.Request, method string) bool {
	if req.Method != method {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", req.Method))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
