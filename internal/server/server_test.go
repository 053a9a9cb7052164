package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"subdex/internal/core"
	"subdex/internal/gen"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, err := gen.Yelp(gen.Config{Seed: 2, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.RecSampleSize = 300
	cfg.Limits.MaxCandidates = 20
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, out
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	var out map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &out)
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, out)
	}
}

func TestSessionLifecycle(t *testing.T) {
	ts := testServer(t)

	resp, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "rp"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, created)
	}
	id := int(created["id"].(float64))

	var step StepJSON
	resp = getJSON(t, fmt.Sprintf("%s/sessions/%d/step", ts.URL, id), &step)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step: %d", resp.StatusCode)
	}
	if step.Selection != "TRUE" || len(step.Maps) == 0 {
		t.Fatalf("unexpected step payload: %+v", step)
	}
	for _, m := range step.Maps {
		if m.GroupBy == "" || m.Dimension == "" || len(m.Bars) == 0 {
			t.Fatalf("incomplete map payload: %+v", m)
		}
		if m.WonBy == "" {
			t.Fatal("criterion attribution missing")
		}
	}
	if len(step.Recommendations) == 0 {
		t.Fatal("rp session must return recommendations")
	}

	// Follow recommendation 1.
	resp, applied := postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id),
		map[string]any{"recommendation": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply rec: %d %v", resp.StatusCode, applied)
	}
	if applied["selection"] == "TRUE" {
		t.Fatal("apply did not move the session")
	}

	// Jump via predicate.
	resp, _ = postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id),
		map[string]any{"predicate": "reviewers.gender = 'female'"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("apply predicate: %d", resp.StatusCode)
	}

	// Back twice: to the recommendation target, then to TRUE.
	resp, _ = postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id), map[string]any{"back": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("back: %d", resp.StatusCode)
	}
	resp, back2 := postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id), map[string]any{"back": true})
	if resp.StatusCode != http.StatusOK || back2["selection"] != "TRUE" {
		t.Fatalf("second back: %d %v", resp.StatusCode, back2)
	}

	// Summary reflects the executed step.
	var sum map[string]any
	resp = getJSON(t, fmt.Sprintf("%s/sessions/%d/summary", ts.URL, id), &sum)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary: %d", resp.StatusCode)
	}
	if int(sum["steps"].(float64)) < 1 {
		t.Fatalf("summary steps: %v", sum)
	}
}

func TestSessionStartingPredicate(t *testing.T) {
	ts := testServer(t)
	resp, created := postJSON(t, ts.URL+"/sessions",
		map[string]string{"mode": "ud", "predicate": "reviewers.gender = 'female'"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, created)
	}
	id := int(created["id"].(float64))
	var step StepJSON
	getJSON(t, fmt.Sprintf("%s/sessions/%d/step", ts.URL, id), &step)
	if step.Selection == "TRUE" {
		t.Fatal("starting predicate ignored")
	}
	if len(step.Recommendations) != 0 {
		t.Fatal("user-driven session must not return recommendations")
	}
}

func TestServerErrors(t *testing.T) {
	ts := testServer(t)

	// Bad mode.
	resp, _ := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "xx"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode: %d", resp.StatusCode)
	}
	// Bad predicate at creation.
	resp, _ = postJSON(t, ts.URL+"/sessions", map[string]string{"predicate": "!!"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad predicate: %d", resp.StatusCode)
	}
	// Unknown session.
	r, err := http.Get(ts.URL + "/sessions/999/step")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: %d", r.StatusCode)
	}
	// GET on /sessions.
	r, err = http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /sessions: %d", r.StatusCode)
	}
	// Empty apply.
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id := int(created["id"].(float64))
	resp, _ = postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id), map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty apply: %d", resp.StatusCode)
	}
	// Back with empty history.
	resp, _ = postJSON(t, fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id), map[string]any{"back": true})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("back on empty history: %d", resp.StatusCode)
	}
}

// TestMetricsEndpoint drives one exploration step and asserts the
// /metrics payload carries the whole observability surface: step-latency
// histogram, candidate/pruning counters split by strategy, HTTP request
// telemetry, and the in-flight gauges.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "rp"})
	id := int(created["id"].(float64))
	var step StepJSON
	getJSON(t, fmt.Sprintf("%s/sessions/%d/step", ts.URL, id), &step)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type: %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"subdex_step_duration_seconds_bucket",
		"subdex_step_duration_seconds_count 1",
		"subdex_generation_duration_seconds_bucket",
		"subdex_recommendation_duration_seconds_bucket",
		"subdex_engine_candidates_total",
		`subdex_engine_candidates_pruned_total{strategy="ci"}`,
		`subdex_engine_candidates_pruned_total{strategy="mab"}`,
		"subdex_engine_maps_finalized_total",
		"subdex_engine_topmaps_duration_seconds_bucket",
		"subdex_http_request_duration_seconds_bucket",
		`subdex_http_requests_total{route="/sessions",code="201"}`,
		"subdex_http_in_flight_requests",
		"subdex_sessions_in_flight 1",
		"subdex_sessions_started_total 1",
		"subdex_steps_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The in-flight gauge must include the /metrics request itself.
	if !strings.Contains(text, "subdex_http_in_flight_requests 1") {
		t.Errorf("in-flight gauge should read 1 while serving /metrics")
	}
	// A session step enumerates candidates; the counter must be non-zero.
	if strings.Contains(text, "subdex_engine_candidates_total 0\n") {
		t.Error("candidates counter still zero after a step")
	}
}

// TestDebugSpansEndpoint asserts one HTTP-driven step produces a span
// tree reaching from the request root through the engine.
func TestDebugSpansEndpoint(t *testing.T) {
	ts := testServer(t)
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id := int(created["id"].(float64))
	var step StepJSON
	getJSON(t, fmt.Sprintf("%s/sessions/%d/step", ts.URL, id), &step)

	var out struct {
		Spans []struct {
			Name       string  `json:"name"`
			DurationMS float64 `json:"duration_ms"`
			Children   []struct {
				Name     string `json:"name"`
				Children []struct {
					Name string `json:"name"`
				} `json:"children"`
			} `json:"children"`
		} `json:"spans"`
	}
	resp := getJSON(t, ts.URL+"/debug/spans", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/spans: %d", resp.StatusCode)
	}
	if len(out.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	// Newest-first: find the step request's root span.
	var found bool
	for _, s := range out.Spans {
		if s.Name != "http GET /sessions/{id}" {
			continue
		}
		for _, c := range s.Children {
			if c.Name != "core.step" {
				continue
			}
			found = true
			if len(c.Children) == 0 || c.Children[0].Name != "core.rmset" {
				t.Fatalf("core.step children wrong: %+v", c.Children)
			}
		}
	}
	if !found {
		t.Fatalf("no step span tree found in %+v", out.Spans)
	}
}

// TestMethodNotAllowed covers the 405-with-Allow contract on /sessions
// and /sessions/{id}/....
func TestMethodNotAllowed(t *testing.T) {
	ts := testServer(t)
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id := int(created["id"].(float64))

	check := func(method, url, wantAllow string) {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: got %d, want 405", method, url, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != wantAllow {
			t.Errorf("%s %s: Allow = %q, want %q", method, url, got, wantAllow)
		}
	}
	check(http.MethodGet, ts.URL+"/sessions", http.MethodPost)
	check(http.MethodDelete, ts.URL+"/sessions", http.MethodPost)
	check(http.MethodPost, fmt.Sprintf("%s/sessions/%d/step", ts.URL, id), http.MethodGet)
	check(http.MethodGet, fmt.Sprintf("%s/sessions/%d/apply", ts.URL, id), http.MethodPost)
	check(http.MethodPost, fmt.Sprintf("%s/sessions/%d/summary", ts.URL, id), http.MethodGet)
	check(http.MethodPost, ts.URL+"/metrics", http.MethodGet)
	check(http.MethodPost, ts.URL+"/debug/spans", http.MethodGet)

	// Unknown actions stay 404.
	resp, err := http.Get(fmt.Sprintf("%s/sessions/%d/nonsense", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown action: got %d, want 404", resp.StatusCode)
	}
}

// TestSessionDelete covers DELETE /sessions/{id}: the session is gone
// afterwards, a second delete is 404, the in-flight gauge returns to 0
// (while the started counter keeps the total), and the wrong method on
// /sessions/{id} answers 405 with Allow: DELETE.
func TestSessionDelete(t *testing.T) {
	ts := testServer(t)
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id := int(created["id"].(float64))

	do := func(method, url string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Wrong method on the bare session resource: 405 + Allow.
	resp := do(http.MethodGet, fmt.Sprintf("%s/sessions/%d", ts.URL, id))
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodDelete {
		t.Fatalf("GET /sessions/{id}: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}

	if resp = do(http.MethodDelete, fmt.Sprintf("%s/sessions/%d", ts.URL, id)); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	// The session is gone: step is 404, second delete is 404.
	if resp = do(http.MethodGet, fmt.Sprintf("%s/sessions/%d/step", ts.URL, id)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("step after delete: %d", resp.StatusCode)
	}
	if resp = do(http.MethodDelete, fmt.Sprintf("%s/sessions/%d", ts.URL, id)); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: %d", resp.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	text := string(body)
	if !strings.Contains(text, "subdex_sessions_in_flight 0") {
		t.Errorf("in-flight gauge should return to 0 after delete:\n%s", text)
	}
	if !strings.Contains(text, "subdex_sessions_started_total 1") {
		t.Errorf("started counter should keep the total:\n%s", text)
	}
}

// TestInstrumentPanicBookkeeping asserts the middleware's deferred
// bookkeeping survives a panicking handler: the in-flight gauge still
// decrements, the request is counted as a 500, and the root span is
// ended (appears in the ring) — then the panic is re-raised for
// net/http to handle.
func TestInstrumentPanicBookkeeping(t *testing.T) {
	db, err := gen.Yelp(gen.Config{Seed: 2, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.instrument("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("middleware must re-raise the handler panic")
			}
		}()
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/boom", nil))
	}()
	if got := s.httpInFlight.Value(); got != 0 {
		t.Errorf("in-flight gauge leaked: %v", got)
	}
	var b strings.Builder
	if err := s.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `subdex_http_requests_total{route="/boom",code="500"} 1`) {
		t.Errorf("panicking request not counted as 500:\n%s", b.String())
	}
	spans := s.spans.Snapshot()
	if len(spans) == 0 {
		t.Fatal("panicking request must still end its root span")
	}
	if spans[0].Name != "http GET /boom" {
		t.Errorf("unexpected root span %q", spans[0].Name)
	}
}

func TestVegaEndpoint(t *testing.T) {
	ts := testServer(t)
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "ud"})
	id := int(created["id"].(float64))

	// Before any step: conflict.
	r, err := http.Get(fmt.Sprintf("%s/sessions/%d/maps/1/vega", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("pre-step vega: %d", r.StatusCode)
	}

	var step StepJSON
	getJSON(t, fmt.Sprintf("%s/sessions/%d/step", ts.URL, id), &step)

	var spec map[string]any
	resp := getJSON(t, fmt.Sprintf("%s/sessions/%d/maps/1/vega", ts.URL, id), &spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vega: %d", resp.StatusCode)
	}
	if spec["$schema"] != "https://vega.github.io/schema/vega-lite/v5.json" {
		t.Fatalf("not a Vega-Lite spec: %v", spec["$schema"])
	}
	// Out-of-range index.
	r, err = http.Get(fmt.Sprintf("%s/sessions/%d/maps/99/vega", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range vega: %d", r.StatusCode)
	}
}

func TestDebugCacheEndpoint(t *testing.T) {
	ts := testServer(t)

	var out struct {
		EngineCache struct {
			Entries       int   `json:"entries"`
			UsedRecords   int   `json:"used_records"`
			BudgetRecords int   `json:"budget_records"`
			Hits          int64 `json:"hits"`
			Misses        int64 `json:"misses"`
		} `json:"engine_cache"`
		HitRate float64 `json:"hit_rate"`
		Enabled bool    `json:"enabled"`
		Query   struct {
			GroupCache struct {
				Entries       int   `json:"entries"`
				UsedRecords   int   `json:"used_records"`
				BudgetRecords int   `json:"budget_records"`
				Hits          int64 `json:"hits"`
				Misses        int64 `json:"misses"`
			} `json:"group_cache"`
			SelectorIndex struct {
				Selectors int   `json:"selectors"`
				Bytes     int64 `json:"bytes"`
			} `json:"selector_index"`
		} `json:"query"`
	}
	resp := getJSON(t, ts.URL+"/debug/cache", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache: %d", resp.StatusCode)
	}
	if !out.Enabled || out.EngineCache.BudgetRecords <= 0 {
		t.Fatalf("default server must enable the engine cache: %+v", out)
	}
	if out.EngineCache.Hits != 0 || out.EngineCache.Misses != 0 {
		t.Fatalf("fresh server has cache traffic: %+v", out)
	}
	qc := out.Query.GroupCache
	if qc.BudgetRecords <= 0 {
		t.Fatalf("default server must enable the group cache: %+v", out.Query)
	}
	if qc.Hits != 0 || qc.Misses != 0 || qc.Entries != 0 || out.Query.SelectorIndex.Selectors != 0 {
		t.Fatalf("fresh server has query-layer traffic: %+v", out.Query)
	}

	// One step populates the cache (recommendation evaluation revisits
	// candidate groups, so misses must move; revisited ops may also hit).
	_, created := postJSON(t, ts.URL+"/sessions", map[string]string{"mode": "rp"})
	id := int(created["id"].(float64))
	var step StepJSON
	getJSON(t, fmt.Sprintf("%s/sessions/%d/step", ts.URL, id), &step)

	resp = getJSON(t, ts.URL+"/debug/cache", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache after step: %d", resp.StatusCode)
	}
	if out.EngineCache.Misses == 0 || out.EngineCache.Entries == 0 {
		t.Fatalf("step produced no cache activity: %+v", out)
	}
	if out.EngineCache.UsedRecords > out.EngineCache.BudgetRecords {
		t.Fatalf("budget overrun: %+v", out)
	}
	// The step materialized its selection and the recommendation
	// candidates: the group cache missed and filled, and the selectors
	// those candidates bind were indexed.
	qc = out.Query.GroupCache
	if qc.Misses == 0 || qc.Entries == 0 || qc.UsedRecords == 0 || qc.UsedRecords > qc.BudgetRecords {
		t.Fatalf("step left no group-cache activity: %+v", qc)
	}
	si := out.Query.SelectorIndex
	if si.Selectors == 0 || si.Bytes <= 0 {
		t.Fatalf("step indexed no selectors: %+v", si)
	}
	// Repeating the step re-materializes the same selection from the
	// group cache.
	prevHits := qc.Hits
	getJSON(t, fmt.Sprintf("%s/sessions/%d/step", ts.URL, id), &step)
	getJSON(t, ts.URL+"/debug/cache", &out)
	if out.Query.GroupCache.Hits <= prevHits {
		t.Fatalf("repeated step produced no group-cache hit: %+v", out.Query.GroupCache)
	}

	// Method discipline.
	r, err := http.Post(ts.URL+"/debug/cache", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/cache: %d", r.StatusCode)
	}
}
