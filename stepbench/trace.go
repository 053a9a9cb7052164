package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"subdex/internal/core"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
	"subdex/internal/sessionstore"
	"subdex/internal/workload"
)

// stepTrace is what the traced phase learned about one step display.
type stepTrace struct {
	key sessionKey
	end time.Time
	// clientMS is the client-observed Step latency (0 for auto-pilot
	// steps, which share one call).
	clientMS float64
	// Span durations; spans reports whether a core.step tree was found.
	spans                           bool
	stepMS, rmsetMS, recMS, materMS float64
	selection                       string
	groupSize                       int
	profile                         *core.StepProfile
}

// tracer collects the traced phase's per-step records and resolves the
// counters it snapshots at the window edges. A nil *tracer is the
// untraced phase: every method is a no-op.
type tracer struct {
	env *env

	topmaps                           *obs.Histogram
	cacheHits, cacheMiss, cacheEvicts *obs.Counter

	mu    sync.Mutex
	steps []stepTrace
}

func newTracer(e *env) *tracer {
	return &tracer{
		env:         e,
		topmaps:     e.reg.Histogram("subdex_engine_topmaps_duration_seconds", "", nil),
		cacheHits:   e.reg.Counter("subdex_engine_cache_hits_total", ""),
		cacheMiss:   e.reg.Counter("subdex_engine_cache_misses_total", ""),
		cacheEvicts: e.reg.Counter("subdex_engine_cache_evictions_total", ""),
	}
}

// captureSink keeps the span trees of one in-process call.
type captureSink struct {
	mu    sync.Mutex
	roots []*obs.SpanData
}

func (c *captureSink) Collect(root *obs.SpanData) {
	c.mu.Lock()
	c.roots = append(c.roots, root)
	c.mu.Unlock()
}

// stepContext installs a capture sink for an in-process step call. Over
// HTTP the server records spans into its own ring, read back per step.
func (t *tracer) stepContext(ctx context.Context) (context.Context, *captureSink) {
	if t == nil || t.env.spec.HTTP {
		return ctx, nil
	}
	cs := &captureSink{}
	return obs.WithSink(ctx, cs), cs
}

// noteStep records the step displays one call returned.
func (t *tracer) noteStep(ctx context.Context, key sessionKey, cs *captureSink, views []*workload.StepView, client time.Duration, end time.Time) {
	if t == nil {
		return
	}
	var roots []*obs.SpanData
	if cs != nil {
		cs.mu.Lock()
		roots = append(roots, cs.roots...)
		cs.mu.Unlock()
	}
	recs := make([]stepTrace, 0, len(views))
	for i, v := range views {
		st := stepTrace{key: key, end: end, selection: v.Selection, groupSize: v.GroupSize, profile: v.Profile}
		if len(views) == 1 {
			st.clientMS = ms(client)
		}
		var root *obs.SpanData
		if cs != nil && i < len(roots) {
			root = roots[i]
		} else if cs == nil {
			root = t.fetchSpans(ctx, v.TraceID)
		}
		if s := findSpan(root, "core.step"); s != nil {
			st.spans = true
			st.stepMS = s.DurationMS
			st.rmsetMS = spanMS(s, "core.rmset")
			st.recMS = spanMS(s, "core.recommend")
			st.materMS = spanMS(s, "query.materialize")
		}
		recs = append(recs, st)
	}
	t.mu.Lock()
	t.steps = append(t.steps, recs...)
	t.mu.Unlock()
}

// fetchSpans reads a step's span tree back from the server's span ring.
// The root span ends after the response may already have reached the
// client, so a missing tree is retried briefly.
func (t *tracer) fetchSpans(ctx context.Context, traceID string) *obs.SpanData {
	if traceID == "" {
		return nil
	}
	u := t.env.base + "/debug/spans?limit=1&trace=" + url.QueryEscape(traceID)
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Millisecond)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil
		}
		resp, err := t.env.hc.Do(req)
		if err != nil {
			return nil
		}
		var body struct {
			Spans []*obs.SpanData `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err == nil && len(body.Spans) > 0 {
			return body.Spans[0]
		}
	}
	return nil
}

// findSpan returns the first span named name in a depth-first walk.
func findSpan(s *obs.SpanData, name string) *obs.SpanData {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

func spanMS(root *obs.SpanData, name string) float64 {
	if s := findSpan(root, name); s != nil {
		return s.DurationMS
	}
	return 0
}

// layerSnapshot holds the traced phase's cumulative counters at one edge
// of the measured window.
type layerSnapshot struct {
	topmapsCount                  int64
	topmapsSum                    float64
	cacheHits, cacheMiss, evicted int64
	scored, scoreNS               int64
	store                         sessionstore.Stats
}

func (t *tracer) snapshot() *layerSnapshot {
	if t == nil {
		return nil
	}
	s := &layerSnapshot{
		topmapsCount: t.topmaps.Count(),
		topmapsSum:   t.topmaps.Sum(),
		cacheHits:    t.cacheHits.Value(),
		cacheMiss:    t.cacheMiss.Value(),
		evicted:      t.cacheEvicts.Value(),
		scored:       t.env.scorer.n.Load(),
		scoreNS:      t.env.scorer.ns.Load(),
	}
	if t.env.store != nil {
		s.store = t.env.store.Stats()
	}
	return s
}

// timingScorer is the traced explorer's OperationScorer: Equation 2,
// timed per candidate.
type timingScorer struct {
	n, ns atomic.Int64
}

func (s *timingScorer) ScoreOperation(ex *core.Explorer, op query.Operation, seen *ratingmap.SeenSet) (float64, error) {
	start := time.Now()
	u, err := core.EquationTwoScorer{}.ScoreOperation(ex, op, seen)
	s.ns.Add(int64(time.Since(start)))
	s.n.Add(1)
	return u, err
}

// timedOp is one timed store or handler call.
type timedOp struct {
	start, end time.Time
	bytes      int64
}

// timedStore wraps the session store and times each op append. It also
// tracks the WAL file's growth per write (a compaction shrinks the file;
// that write's growth is not counted).
type timedStore struct {
	sessionstore.Store
	walPath string

	mu      sync.Mutex
	size    int64
	appends []timedOp
	grown   []timedOp
}

// noteWrite records one store write that started at start, with the WAL's
// growth since the previous write.
func (s *timedStore) noteWrite(start time.Time, appendOp bool) {
	end := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var grown int64
	if fi, err := os.Stat(s.walPath); err == nil {
		grown = max(fi.Size()-s.size, 0)
		s.size = fi.Size()
	}
	op := timedOp{start: start, end: end, bytes: grown}
	s.grown = append(s.grown, op)
	if appendOp {
		s.appends = append(s.appends, op)
	}
}

func (s *timedStore) Create(id int, snap *core.SessionSnapshot) error {
	start := time.Now()
	err := s.Store.Create(id, snap)
	s.noteWrite(start, false)
	return err
}

func (s *timedStore) AppendOp(id, seq int, op core.SessionOp) error {
	start := time.Now()
	err := s.Store.AppendOp(id, seq, op)
	s.noteWrite(start, true)
	return err
}

func (s *timedStore) Delete(id int) error {
	start := time.Now()
	err := s.Store.Delete(id)
	s.noteWrite(start, false)
	return err
}

// handlerLog times the server's handler per request kind and counts the
// bytes of each response.
type handlerLog struct {
	mu   sync.Mutex
	reqs map[string][]timedOp
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// requestKind names a session request: step, apply, back, or "" for
// anything else. Apply bodies are read and restored to tell a back from
// an apply.
func requestKind(r *http.Request) string {
	if !strings.HasPrefix(r.URL.Path, "/sessions/") {
		return ""
	}
	switch {
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/step"):
		return "step"
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/apply"):
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return ""
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct {
			Back bool `json:"back"`
		}
		if json.Unmarshal(body, &req) == nil && req.Back {
			return "back"
		}
		return "apply"
	}
	return ""
}

func (l *handlerLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind := requestKind(r)
		if kind == "" {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		op := timedOp{start: start, end: time.Now(), bytes: cw.n}
		l.mu.Lock()
		if l.reqs == nil {
			l.reqs = make(map[string][]timedOp)
		}
		l.reqs[kind] = append(l.reqs[kind], op)
		l.mu.Unlock()
	})
}
