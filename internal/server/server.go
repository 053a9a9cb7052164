// Package server exposes the SDE engine over HTTP with JSON payloads — the
// role the paper's web UI backend plays (Figure 4: the UI talks to the SDE
// Engine, which drives the RM-Set Generator and Recommendation Builder).
// A thin REST surface manages exploration sessions:
//
//	POST /sessions                {"mode":"rp"}             -> {"id":...}
//	GET  /sessions/{id}/step                                -> the step display
//	POST /sessions/{id}/apply     {"predicate":"..."}        -> move the session
//	POST /sessions/{id}/apply     {"recommendation":1}       -> follow rec #1
//	POST /sessions/{id}/apply     {"back":true}              -> previous selection
//	GET  /sessions/{id}/summary                              -> path summary
//	DELETE /sessions/{id}                                    -> drop the session
//	GET  /sessions/{id}/maps/{n}/vega                        -> Vega-Lite spec of map n
//	GET  /healthz
//	GET  /metrics                                            -> Prometheus text format
//	GET  /debug/spans?limit=N&trace=ID                       -> recent span trees (JSON)
//	GET  /debug/flightrecorder?limit=N&trace=ID              -> recent wide events (JSON)
//
// Every request runs through observability middleware: request latency
// and status are recorded in the obs registry, the request carries a
// span sink so one exploration step yields a full span tree, and
// in-flight requests and live sessions are tracked as gauges. The
// middleware also speaks W3C trace context: an incoming `traceparent`
// header's trace ID is installed in the request context (the root span,
// every engine phase span, the step profile, and the step's flight-
// recorder wide event all carry it), and the response echoes a
// `traceparent` so callers can log the correlation ID they were served
// under.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"subdex/internal/buildinfo"
	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
	"subdex/internal/sessionstore"
)

// spanRingSize bounds the /debug/spans buffer.
const spanRingSize = 64

// maxBodyBytes caps JSON request bodies; larger bodies answer 413.
const maxBodyBytes = 64 << 10

// Options configure the server's admission-control and session-lifecycle
// layer. The zero value disables all limits (the library-embedding
// default); subdexd wires its flags here.
type Options struct {
	// MaxSessions caps concurrently live sessions; 0 = unlimited. A POST
	// /sessions on a full server answers 429 with a Retry-After header.
	MaxSessions int
	// SessionTTL evicts sessions idle (no request touching them) for
	// longer than this; 0 disables eviction. Evictions decrement
	// subdex_sessions_in_flight and bump subdex_sessions_evicted_total.
	SessionTTL time.Duration
	// JanitorInterval overrides the eviction sweep cadence. 0 picks
	// SessionTTL/4 clamped to [1s, 1min]. Mostly useful in tests.
	JanitorInterval time.Duration
	// Clock overrides time.Now for the idle-TTL bookkeeping (tests).
	Clock func() time.Time
	// FlightDir enables triggered flight-recorder dumps (on 5xx responses
	// and degraded steps, rate-limited per reason) into the directory.
	// Empty keeps the ring recording and served at /debug/flightrecorder
	// but writes nothing to disk.
	FlightDir string
	// FlightMinInterval overrides the per-reason dump rate limit
	// (default 30s).
	FlightMinInterval time.Duration
	// Registry, when non-nil, receives the server's instruments instead
	// of a private registry — subdexd shares one registry between the
	// server and the cluster coordinator so a single /metrics scrape
	// covers both.
	Registry *obs.Registry
	// Store makes sessions durable: every committed operation is logged
	// to it before the response is sent, idle sessions are shed to it
	// (and transparently restored on their next request) instead of
	// destroyed, and stored sessions are recovered — replayed through
	// the real engine — at construction. Nil keeps the pre-durability
	// behavior: sessions live and die with the process.
	Store sessionstore.Store
}

// routes are the handler paths served by Handler. The per-route HTTP
// instruments are pre-registered over this list at construction, so the
// request hot path never performs a registry lookup (each lookup takes
// the registry mutex — the finding subdexvet's obsmetrics analyzer
// exists to catch).
var routes = []string{
	"/healthz", "/sessions", "/sessions/{id}", "/metrics", "/debug/spans", "/debug/cache",
	"/debug/flightrecorder",
}

// statusCodes are the response codes this server emits; one counter
// series per route×code is pre-registered. Codes outside this set (none
// today) fall back to the route's code="other" series, so the hot path
// stays registration-free no matter what a handler writes.
var statusCodes = []int{200, 201, 400, 404, 405, 409, 413, 429, 500, 504}

// routeInstruments bundles one route's pre-resolved HTTP instruments.
// The zero value is usable and inert: nil obs instruments are no-ops.
type routeInstruments struct {
	latency *obs.Histogram
	byCode  map[int]*obs.Counter
	other   *obs.Counter
}

// newRouteInstruments resolves one route's instruments against the
// registry. All registry lookups for the HTTP surface happen here, at
// construction time.
func newRouteInstruments(reg *obs.Registry, route string) *routeInstruments {
	const (
		latencyName = "subdex_http_request_duration_seconds"
		latencyHelp = "HTTP request latency by route."
		totalName   = "subdex_http_requests_total"
		totalHelp   = "HTTP requests by route and status code."
	)
	ri := &routeInstruments{
		latency: reg.Histogram(latencyName, latencyHelp, nil, obs.L("route", route)),
		byCode:  make(map[int]*obs.Counter, len(statusCodes)),
		other:   reg.Counter(totalName, totalHelp, obs.L("route", route), obs.L("code", "other")),
	}
	for _, code := range statusCodes {
		ri.byCode[code] = reg.Counter(totalName, totalHelp,
			obs.L("route", route), obs.L("code", strconv.Itoa(code)))
	}
	return ri
}

// observe records one finished request: latency plus the status-code
// counter (the pre-registered series, or "other" for a code outside
// statusCodes).
func (ri *routeInstruments) observe(d time.Duration, code int) {
	ri.latency.ObserveDuration(d)
	c, ok := ri.byCode[code]
	if !ok {
		c = ri.other
	}
	c.Inc()
}

// sessionEntry wraps one live session with its own lock: all computation
// on a session (step, apply, summary, vega) serializes on entry.mu, so a
// slow step on one session never blocks the rest of the server. The
// server's global mu guards only the sessions map and lastUsed.
type sessionEntry struct {
	//subdex:lockorder rank=20 per-session compute lock: taken after Server.mu (janitor TryLock), before any store append
	mu   sync.Mutex // serializes computation on this session
	sess *core.Session
	// detached is guarded by mu: set, with mu held, by whoever removes
	// the entry from Server.sessions (a janitor shed or a DELETE). A
	// request that locks an entry it looked up earlier checks it and
	// re-resolves the id instead of computing on a removed copy.
	detached bool
	// unlogged counts ops committed in memory whose WAL append has not
	// returned yet. It is raised before mu is released, so a janitor or
	// DELETE holding mu sees every op still on its way to the WAL and
	// leaves the entry alone.
	unlogged atomic.Int32
	// lastUsed is guarded by Server.mu (not entry.mu): the janitor reads
	// it while deciding evictions without taking the compute lock.
	lastUsed time.Time
}

// Server owns an explorer, its live sessions, and the observability
// surface (metrics registry + recent-span ring).
type Server struct {
	ex     *core.Explorer
	reg    *obs.Registry
	spans  *obs.RingSink
	flight *obs.FlightRecorder
	info   buildinfo.Info
	opts   Options
	now    func() time.Time

	httpInFlight      *obs.Gauge
	sessionsLive      *obs.Gauge
	sessionsEvicted   *obs.Counter
	admissionRejected *obs.Counter
	busyRejected      *obs.Counter
	stepTimeouts      *obs.Counter
	flightDumps       *obs.Counter
	flightSuppressed  *obs.Counter
	sessionsShed      *obs.Counter
	sessionsRestored  *obs.Counter
	sessionsRecovered *obs.Counter
	walFailures       *obs.Counter
	routeIns          map[string]*routeInstruments

	store sessionstore.Store

	//subdex:lockorder rank=10 outermost: guards the session map; held across store.Get during restore, so every store lock ranks above it
	mu       sync.Mutex
	sessions map[int]*sessionEntry
	// deleting holds a refcount of in-flight DELETEs per session id,
	// set in the same critical section that removes the map entry and
	// cleared after the durable delete lands. entryOrRestore refuses to
	// install while it is nonzero, so a concurrent restore can never
	// resurrect a session mid-delete (see handleDelete).
	deleting map[int]int
	nextID   int

	stopOnce sync.Once
	stop     chan struct{}
	// janitorDone is closed by the janitor goroutine on exit; nil when no
	// janitor was started. Close blocks on it so that after Close returns
	// no EvictIdle/Shed can still be running against a store the caller
	// is about to tear down.
	janitorDone chan struct{}
}

// New builds a server over a frozen database with no admission limits.
// The server owns a metrics registry (exposed at /metrics and via
// Registry) and instruments the explorer with it.
func New(db *dataset.DB, cfg core.Config) (*Server, error) {
	return NewWithOptions(db, cfg, Options{})
}

// NewWithOptions is New with the admission-control and session-lifecycle
// knobs. When opts.SessionTTL > 0 a janitor goroutine sweeps idle
// sessions; stop it with Close.
//
// NewWithOptions is an XCtx compatibility shim: a context-free wrapper F
// that delegates to FCtx with context.Background(), keeping the
// pre-context API alive.
func NewWithOptions(db *dataset.DB, cfg core.Config, opts Options) (*Server, error) {
	return NewWithOptionsCtx(context.Background(), db, cfg, opts)
}

// NewWithOptionsCtx is NewWithOptions under a caller-supplied context,
// which bounds the boot-time session recovery a durable Store triggers
// (every stored session is replayed through the engine before the first
// request is served).
func NewWithOptionsCtx(ctx context.Context, db *dataset.DB, cfg core.Config, opts Options) (*Server, error) {
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ex.Instrument(reg)
	now := opts.Clock
	if now == nil {
		now = time.Now
	}
	info := buildinfo.Get()
	s := &Server{
		ex:    ex,
		reg:   reg,
		spans: obs.NewRingSink(spanRingSize),
		flight: obs.NewFlightRecorder(obs.FlightOptions{
			Dir:         opts.FlightDir,
			Name:        "server",
			MinInterval: opts.FlightMinInterval,
			Clock:       now,
		}),
		info: info,
		opts: opts,
		now:  now,
		httpInFlight: reg.Gauge("subdex_http_in_flight_requests",
			"HTTP requests currently being served."),
		sessionsLive: reg.Gauge("subdex_sessions_in_flight",
			"Exploration sessions currently held by the server."),
		sessionsEvicted: reg.Counter("subdex_sessions_evicted_total",
			"Idle sessions evicted by the TTL janitor."),
		admissionRejected: reg.Counter("subdex_admission_rejected_total",
			"Session creations rejected by the max-sessions admission cap."),
		busyRejected: reg.Counter("subdex_session_busy_rejections_total",
			"Step/apply requests rejected because the session was mid-computation."),
		stepTimeouts: reg.Counter("subdex_step_timeouts_total",
			"Steps aborted by their deadline before any phase boundary (504s)."),
		flightDumps: reg.Counter("subdex_flight_dumps_total",
			"Flight-recorder dumps written to disk."),
		flightSuppressed: reg.Counter("subdex_flight_dumps_suppressed_total",
			"Flight-recorder triggers suppressed by the per-reason rate limit."),
		sessionsShed: reg.Counter("subdex_sessions_shed_total",
			"Idle sessions shed to the durable store by the TTL janitor."),
		sessionsRestored: reg.Counter("subdex_sessions_restored_total",
			"Sessions transparently restored from the durable store on request."),
		sessionsRecovered: reg.Counter("subdex_sessions_recovered_total",
			"Sessions recovered from the durable store at boot."),
		walFailures: reg.Counter("subdex_wal_append_failures_total",
			"Operations that committed in memory but failed to persist (the request answered 500)."),
		store:    opts.Store,
		sessions: make(map[int]*sessionEntry),
		deleting: make(map[int]int),
		routeIns: make(map[string]*routeInstruments, len(routes)),
		nextID:   1,
		stop:     make(chan struct{}),
	}
	for _, route := range routes {
		s.routeIns[route] = newRouteInstruments(reg, route)
	}
	// The standard build-info idiom: a constant-1 gauge whose labels carry
	// the identity, so scrapes and load-test artifacts can say exactly
	// which binary they measured.
	reg.Gauge("subdex_build_info",
		"Build metadata of the running binary (constant 1; identity in the labels).",
		obs.L("version", info.Version),
		obs.L("commit", info.Commit),
		obs.L("go_version", info.GoVersion)).Set(1)
	if s.store != nil {
		s.store.Instrument(sessionstore.Instruments{
			Appends: reg.Counter("subdex_wal_appends_total",
				"Durable records appended to the session write-ahead log."),
			Fsyncs: reg.Counter("subdex_wal_fsyncs_total",
				"fsync calls on the session write-ahead log."),
			ReplayRecords: reg.Counter("subdex_wal_replay_records_total",
				"Write-ahead-log records applied during open-time replay."),
			Truncations: reg.Counter("subdex_wal_truncations_total",
				"Corrupt write-ahead-log tails truncated during open-time replay."),
		})
		if err := s.recoverSessions(ctx); err != nil {
			return nil, err
		}
	}
	if opts.SessionTTL > 0 {
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s, nil
}

// recoverSessions resumes every stored session at boot: each snapshot is
// replayed through the real engine (rewarming the cross-step cache and
// verifying the recorded digests) and installed in the live map. A
// session that fails to replay is flight-recorded and left in the store
// for forensics, never served. A corrupt WAL tail found by the store's
// own open is likewise flight-recorded here, where a recorder exists.
func (s *Server) recoverSessions(ctx context.Context) error {
	snaps, nextID, err := s.store.All()
	if err != nil {
		return fmt.Errorf("server: reading session store: %w", err)
	}
	recovered := 0
	//subdex:orderinsensitive keyed map iteration: each session restores independently into its own map slot
	for id, snap := range snaps {
		sess, rerr := core.RestoreSession(ctx, s.ex, snap)
		if rerr != nil {
			s.flight.Record(obs.NewWideEvent().
				Set("op", "recover_session").
				Set("session", id).
				Set("status", http.StatusInternalServerError).
				Set("error", rerr.Error()))
			s.flightTrigger("session_recovery_failed")
			continue
		}
		s.mu.Lock()
		s.sessions[id] = &sessionEntry{sess: sess, lastUsed: s.now()}
		s.mu.Unlock()
		s.sessionsLive.Inc()
		recovered++
	}
	s.sessionsRecovered.Add(int64(recovered))
	s.mu.Lock()
	if nextID > s.nextID {
		s.nextID = nextID
	}
	s.mu.Unlock()
	if fs, ok := s.store.(*sessionstore.FileStore); ok {
		if rec := fs.Recovery(); rec.Truncated {
			s.flight.Record(obs.NewWideEvent().
				Set("op", "wal_truncation").
				Set("error", rec.Reason).
				Set("wal_valid_bytes", rec.TruncatedAt).
				Set("wal_records", rec.Records))
			s.flightTrigger("wal_corrupt_tail")
		}
	}
	return nil
}

// Flight exposes the server's flight recorder so embedders (sdeload's
// http mode, tests) can record client-side wide events into the same
// ring and fire their own triggers (e.g. an SLO breach).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// flightTrigger fires a rate-limited flight-recorder dump and keeps the
// dump/suppression counters in step. With no FlightDir configured it is
// free.
func (s *Server) flightTrigger(reason string) {
	if !s.flight.DumpsEnabled() {
		return
	}
	if _, dumped, err := s.flight.Trigger(reason); err == nil && dumped {
		s.flightDumps.Inc()
	} else if err == nil {
		s.flightSuppressed.Inc()
	}
}

// Close stops the TTL janitor (if any) and waits for it to exit, so no
// eviction or shed is still touching the session store once Close
// returns. It does not tear down live sessions; the process owns their
// lifetime from here.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.janitorDone != nil {
		<-s.janitorDone
	}
}

// janitor periodically evicts idle sessions until Close.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	iv := s.opts.JanitorInterval
	if iv <= 0 {
		iv = s.opts.SessionTTL / 4
		if iv < time.Second {
			iv = time.Second
		}
		if iv > time.Minute {
			iv = time.Minute
		}
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.EvictIdle()
		}
	}
}

// EvictIdle removes every session idle for longer than the configured
// SessionTTL and returns how many were removed. Sessions mid-computation
// (entry lock held) are skipped — they are in use by definition. With a
// durable store configured the removal is a *shed*: the session's
// snapshot is persisted (outside every lock — Shed does file I/O) and
// the next request for it restores transparently; without one it is the
// old destructive eviction. The janitor calls this on its interval;
// tests call it directly with a fake clock.
//
// The shared engine cache is deliberately untouched here: shedding moves
// one session's private state out of memory, and flushing the cross-
// session TopMapsCache would tax every other session's latency for it
// (a regression test pins cache hits across a shed/restore cycle).
func (s *Server) EvictIdle() int {
	ttl := s.opts.SessionTTL
	if ttl <= 0 {
		return 0
	}
	cutoff := s.now().Add(-ttl)
	type shedItem struct {
		id   int
		snap *core.SessionSnapshot
	}
	var shed []shedItem
	evicted := 0
	s.mu.Lock()
	for id, e := range s.sessions {
		if e.lastUsed.After(cutoff) {
			continue
		}
		if !e.mu.TryLock() {
			continue // a request is computing on it right now
		}
		if e.unlogged.Load() > 0 {
			// A committed op is still on its way to the WAL: a shed now
			// would log it first and fail that append's seq check.
			e.mu.Unlock()
			continue
		}
		if s.store != nil {
			shed = append(shed, shedItem{id, e.sess.Snapshot()})
		}
		delete(s.sessions, id)
		e.detached = true
		e.mu.Unlock()
		evicted++
	}
	s.mu.Unlock()
	for i := 0; i < evicted; i++ {
		s.sessionsLive.Dec()
	}
	if s.store == nil {
		s.sessionsEvicted.Add(int64(evicted))
		return evicted
	}
	for _, it := range shed {
		if err := s.store.Shed(it.id, it.snap); err != nil {
			if errors.Is(err, sessionstore.ErrStaleShed) {
				// The session moved on between the map removal above and
				// this append: a request restored it and durably committed
				// a newer op, or a DELETE removed it. Either way our
				// snapshot is obsolete and the store's refusal preserved
				// the newer state — dropping it is the correct outcome,
				// not a failure.
				continue
			}
			// The session left memory but its full snapshot missed the
			// log. The store's mirror still has it (mirror-ahead-of-log
			// heals at compaction); record the failure loudly.
			s.walFailures.Inc()
			s.flight.Record(obs.NewWideEvent().
				Set("op", "shed_session").
				Set("session", it.id).
				Set("error", err.Error()))
			s.flightTrigger("wal_append_failed")
			continue
		}
		s.sessionsShed.Inc()
	}
	return evicted
}

// Registry exposes the server's metrics registry, e.g. for registering
// process-level gauges next to the engine metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the HTTP handler with observability middleware
// installed on every route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{
			"status":     "ok",
			"database":   s.ex.DB.Name,
			"version":    s.info.Version,
			"commit":     s.info.Commit,
			"go_version": s.info.GoVersion,
		})
	}))
	mux.HandleFunc("/sessions", s.instrument("/sessions", s.handleCreateSession))
	mux.HandleFunc("/sessions/", s.instrument("/sessions/{id}", s.handleSession))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("/debug/spans", s.instrument("/debug/spans", s.handleSpans))
	mux.HandleFunc("/debug/cache", s.instrument("/debug/cache", s.handleCache))
	mux.HandleFunc("/debug/flightrecorder", s.instrument("/debug/flightrecorder", s.handleFlight))
	return mux
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the observability middleware: an
// in-flight gauge, a per-route latency histogram, a per-route/status
// request counter, and a root span (collected into the /debug/spans
// ring) covering the whole request. The histogram and counters are
// resolved once at construction (see newRouteInstruments), so the
// request hot path never takes the registry lock or re-hashes label
// sets — it only observes pre-bound instruments.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	ri := s.routeIns[route]
	if ri == nil {
		// A route outside the static table (tests wire ad-hoc handlers):
		// resolve its instruments now — instrument() runs at mux
		// construction time, never per request.
		ri = newRouteInstruments(s.reg, route)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		s.httpInFlight.Inc()
		start := time.Now()
		ctx := obs.WithSink(r.Context(), s.spans)
		// W3C trace context: honor a caller-supplied traceparent, mint an
		// ID otherwise. Installing it before StartSpan binds the root span
		// (and every profile downstream) to the caller's correlation ID.
		tid, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tid = obs.NewTraceID()
		}
		ctx = obs.WithTraceID(ctx, tid)
		w.Header().Set("traceparent", obs.Traceparent(tid, obs.NewSpanID()))
		ctx, span := obs.StartSpan(ctx, "http "+r.Method+" "+route)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// All bookkeeping is deferred so a panicking handler still ends
		// its span and is counted (net/http's recovery then sees the
		// panic as usual; the connection drops, which clients observe as
		// an aborted response).
		defer func() {
			if p := recover(); p != nil {
				sw.status = http.StatusInternalServerError
				span.SetAttr("panic", fmt.Sprint(p))
				defer panic(p)
			}
			s.httpInFlight.Dec()
			span.SetAttr("status", sw.status)
			span.SetAttr("path", r.URL.Path)
			span.End()
			ri.observe(time.Since(start), sw.status)
			if sw.status >= 500 {
				s.flightTrigger("http_5xx")
			}
		}()
		h(sw, r.WithContext(ctx))
	}
}

// handleMetrics serves the registry in the Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}

// handleCache serves a snapshot of the engine's cross-step accumulator
// cache: entry/record occupancy against the budget, hit/miss/eviction
// counters, and the derived hit rate. The same counters are exported as
// subdex_engine_cache_*_total on /metrics; this endpoint adds the
// occupancy view Prometheus counters cannot carry. Next to it, "query"
// reports the query layer: the whole-group cache (occupancy, hits,
// misses) and the per-selector index (selectors indexed, bytes held).
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	st := s.ex.EngineCacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"engine_cache": st,
		"hit_rate":     st.HitRate(),
		"enabled":      st.BudgetRecords > 0,
		"query":        s.ex.Query.Stats(),
	})
}

// debugFilters parses the shared ?limit=N and ?trace=<id> query filters
// of the /debug endpoints. It reports ok=false after writing a 400.
func debugFilters(w http.ResponseWriter, r *http.Request) (trace string, limit int, ok bool) {
	q := r.URL.Query()
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return "", 0, false
		}
		limit = n
	}
	return q.Get("trace"), limit, true
}

// handleSpans serves the most recent request span trees, newest first.
// ?trace=<id> keeps only roots collected under that trace ID; ?limit=N
// truncates to the newest N.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	trace, limit, ok := debugFilters(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"spans": s.spans.SnapshotFiltered(obs.TraceID(trace), limit),
	})
}

// handleFlight serves the live flight-recorder ring, newest first, with
// the same ?limit / ?trace filters as /debug/spans, plus the dump and
// rate-limit-suppression counts.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	trace, limit, ok := debugFilters(w, r)
	if !ok {
		return
	}
	dumps, suppressed := s.flight.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"events":        s.flight.Snapshot(trace, limit),
		"dumps":         dumps,
		"suppressed":    suppressed,
		"dumps_enabled": s.flight.DumpsEnabled(),
	})
}

// createSessionRequest selects the exploration mode.
type createSessionRequest struct {
	Mode string `json:"mode"` // "ud" | "rp" | "fa"
	// Predicate optionally starts the session at a selection.
	Predicate string `json:"predicate"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req createSessionRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	var mode core.Mode
	switch strings.ToLower(req.Mode) {
	case "", "rp":
		mode = core.RecommendationPowered
	case "ud":
		mode = core.UserDriven
	case "fa":
		mode = core.FullyAutomated
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q", req.Mode))
		return
	}
	start := query.Description{}
	if req.Predicate != "" {
		d, err := s.ex.ParseDescription(req.Predicate)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		start = d
	}
	// Admission control, session creation, map insert and the live-session
	// gauge share one critical section: the cap can never be overshot by
	// concurrent creates, and the gauge can never transiently disagree
	// with the map.
	s.mu.Lock()
	if s.opts.MaxSessions > 0 && len(s.sessions) >= s.opts.MaxSessions {
		s.mu.Unlock()
		s.admissionRejected.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.SessionTTL))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session limit reached (%d); retry later or delete a session", s.opts.MaxSessions))
		return
	}
	sess, err := core.NewSession(s.ex, mode, start)
	if err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := s.nextID
	s.nextID++
	s.sessions[id] = &sessionEntry{sess: sess, lastUsed: s.now()}
	s.sessionsLive.Inc()
	s.mu.Unlock()
	// Log before respond: the session is durable before the client learns
	// its id. On failure the insert is rolled back — a 500 must not leak
	// a half-created session.
	if s.store != nil {
		if err := s.store.Create(id, sess.BaseSnapshot()); err != nil {
			s.mu.Lock()
			if _, ok := s.sessions[id]; ok {
				delete(s.sessions, id)
				s.sessionsLive.Dec()
			}
			s.mu.Unlock()
			s.walFailures.Inc()
			writeError(w, http.StatusInternalServerError, "failed to persist session: "+err.Error())
			return
		}
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": id, "mode": mode.String()})
}

// retryAfterSeconds derives a Retry-After hint from the idle TTL: with a
// janitor configured, capacity frees up within a sweep or two; without
// one, only explicit deletes free capacity, so suggest a short poll.
func retryAfterSeconds(ttl time.Duration) string {
	if ttl <= 0 {
		return "1"
	}
	secs := int(ttl / (4 * time.Second))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// entry looks up a live session and refreshes its idle timestamp.
func (s *Server) entry(id int) (*sessionEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.sessions[id]
	if ok {
		e.lastUsed = s.now()
	}
	return e, ok
}

// entryOrRestore is entry with the durable-store fallback: a session the
// janitor shed (or one created before a restart that boot recovery
// skipped restoring) is replayed through the engine and re-installed
// transparently. It returns the entry, or an HTTP status to answer with
// (404 for a genuinely unknown session, 500 for one that exists in the
// store but failed to replay).
func (s *Server) entryOrRestore(ctx context.Context, id int) (*sessionEntry, int, string) {
	if e, ok := s.entry(id); ok {
		return e, 0, ""
	}
	if s.store == nil {
		return nil, http.StatusNotFound, "no such session"
	}
	snap, ok, err := s.store.Get(id)
	if err != nil {
		return nil, http.StatusInternalServerError, "session store: " + err.Error()
	}
	if !ok {
		return nil, http.StatusNotFound, "no such session"
	}
	// The replay runs outside every server lock: it is real engine work
	// (that is the point — the cache rewarms) and must not stall other
	// sessions.
	sess, err := core.RestoreSession(ctx, s.ex, snap)
	if err != nil {
		s.flight.Record(obs.NewWideEvent().
			Set("op", "restore_session").
			Set("session", id).
			Set("status", http.StatusInternalServerError).
			Set("error", err.Error()))
		s.flightTrigger("session_restore_failed")
		return nil, http.StatusInternalServerError, "session restore failed: " + err.Error()
	}
	s.mu.Lock()
	if e, ok := s.sessions[id]; ok {
		// Lost a concurrent restore race; the winner's copy is as exact
		// as ours (replay is deterministic) — use it and drop ours.
		e.lastUsed = s.now()
		s.mu.Unlock()
		return e, 0, ""
	}
	// A concurrent DELETE may have removed the session while we were
	// replaying it; installing now would resurrect a session the client
	// was told is gone. Both checks run under s.mu: the tombstone covers
	// a delete whose durable removal is still in flight, the store
	// re-read covers one that already finished. Get is a pure mirror
	// read, so no file I/O happens under the lock.
	if s.deleting[id] > 0 {
		s.mu.Unlock()
		return nil, http.StatusNotFound, "no such session"
	}
	if _, still, serr := s.store.Get(id); serr != nil || !still {
		s.mu.Unlock()
		if serr != nil {
			return nil, http.StatusInternalServerError, "session store: " + serr.Error()
		}
		return nil, http.StatusNotFound, "no such session"
	}
	e := &sessionEntry{sess: sess, lastUsed: s.now()}
	s.sessions[id] = e
	s.mu.Unlock()
	s.sessionsLive.Inc()
	s.sessionsRestored.Inc()
	return e, 0, ""
}

// maxRelockAttempts bounds how often lockInstalled re-resolves a session
// that keeps being shed under it before answering busy.
const maxRelockAttempts = 3

// lockInstalled takes the compute lock of the entry a step or apply
// resolved, and makes sure it is still the installed copy. Between the
// lookup and the lock, the janitor may have shed the entry or a DELETE
// removed it. Computing on that detached copy would race a restored copy
// for the session's WAL sequence, so a detached entry is unlocked and the
// id resolved again through entryOrRestore. It returns the locked entry,
// or the HTTP status and message to answer: 409 when another request
// holds the lock, or entryOrRestore's status.
func (s *Server) lockInstalled(ctx context.Context, id int, e *sessionEntry) (*sessionEntry, int, string) {
	for attempt := 0; ; attempt++ {
		// One session is single-threaded: a second concurrent step/apply
		// on it is a client bug, rejected immediately instead of queued.
		if !e.mu.TryLock() {
			s.busyRejected.Inc()
			return nil, http.StatusConflict, "session busy: a step or apply is already in flight"
		}
		if !e.detached {
			return e, 0, ""
		}
		e.mu.Unlock()
		if attempt == maxRelockAttempts {
			s.busyRejected.Inc()
			return nil, http.StatusConflict, "session busy: it is being shed; retry"
		}
		var status int
		var msg string
		if e, status, msg = s.entryOrRestore(ctx, id); status != 0 {
			return nil, status, msg
		}
	}
}

// handleDelete removes a session and decrements the in-flight gauge.
// Presence is rechecked under the lock so two concurrent DELETEs of the
// same id cannot double-decrement, and the entry lock is TryLocked
// before removal so a DELETE can never yank a session out from under an
// in-flight step (the same discipline the janitor follows); a busy
// session answers 409 and the client retries. With a durable store the
// delete is persisted too — a deleted session must stay deleted across
// a restart.
func (s *Server) handleDelete(w http.ResponseWriter, id int) {
	s.mu.Lock()
	e, ok := s.sessions[id]
	if ok {
		if !e.mu.TryLock() {
			s.mu.Unlock()
			s.busyRejected.Inc()
			writeError(w, http.StatusConflict, "session busy: a step or apply is already in flight")
			return
		}
		if e.unlogged.Load() > 0 {
			e.mu.Unlock()
			s.mu.Unlock()
			s.busyRejected.Inc()
			writeError(w, http.StatusConflict, "session busy: a step or apply is still being logged")
			return
		}
		delete(s.sessions, id)
		e.detached = true
		e.mu.Unlock()
	}
	// Tombstone the id in the same critical section as the removal:
	// until the durable delete below lands, a concurrent entryOrRestore
	// must not re-install a copy it restored from the still-present
	// store record — a 200 here must never leave a live session whose
	// record is gone (it would serve without durability and 500 on its
	// next committed op). Restores that finish after the tombstone
	// clears re-read the store under s.mu and find the record deleted.
	s.deleting[id]++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.deleting[id]--; s.deleting[id] <= 0 {
			delete(s.deleting, id)
		}
		s.mu.Unlock()
	}()
	inStore := false
	if s.store != nil && !ok {
		// A shed session is still deletable: check the store before 404ing.
		// The read error must surface as a 500, not be folded into "absent":
		// answering 404 on a store fault would tell the client the delete is
		// moot while the durable record (and its tombstone obligation) still
		// exists.
		_, found, serr := s.store.Get(id)
		if serr != nil {
			writeError(w, http.StatusInternalServerError, "store read failed: "+serr.Error())
			return
		}
		inStore = found
	}
	if !ok && !inStore {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	if ok {
		s.sessionsLive.Dec()
	}
	if s.store != nil {
		if err := s.store.Delete(id); err != nil {
			s.walFailures.Inc()
			writeError(w, http.StatusInternalServerError, "failed to persist delete: "+err.Error())
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
	parts := strings.Split(rest, "/")
	id, err := strconv.Atoi(parts[0])
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad session id")
		return
	}
	action := ""
	if len(parts) > 1 {
		action = parts[1]
	}
	if action == "" && r.Method == http.MethodDelete {
		// Deletion never restores: replaying a whole session through the
		// engine just to discard it would be pure waste. handleDelete
		// checks the store itself.
		s.handleDelete(w, id)
		return
	}
	e, status, errMsg := s.entryOrRestore(r.Context(), id)
	if status != 0 {
		writeError(w, status, errMsg)
		return
	}
	// Known actions answer 405 (with Allow) on the wrong method instead
	// of falling through to 404.
	allowed := map[string]string{"": http.MethodDelete, "step": http.MethodGet,
		"apply": http.MethodPost, "summary": http.MethodGet, "maps": http.MethodGet}
	switch {
	case action == "step" && r.Method == http.MethodGet:
		s.handleStep(w, r, id, e)
	case action == "apply" && r.Method == http.MethodPost:
		s.handleApply(w, r, id, e)
	case action == "summary" && r.Method == http.MethodGet:
		e.mu.Lock()
		sum := e.sess.Summarize()
		e.mu.Unlock()
		writeJSON(w, http.StatusOK, summaryJSON(sum))
	case action == "maps" && len(parts) == 4 && parts[3] == "vega" && r.Method == http.MethodGet:
		s.handleVega(w, e, parts[2])
	default:
		if method, known := allowed[action]; known && r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, method+" only")
			return
		}
		writeError(w, http.StatusNotFound, "unknown action "+action)
	}
}

// handleVega serves the Vega-Lite specification of one displayed map of the
// session's latest step (1-based index). The spec is computed under the
// session's own lock (never the server-global one) in vegaSpec; the
// response is written only after that lock is released, so a slow or
// stalled client can never hold the session hostage.
func (s *Server) handleVega(w http.ResponseWriter, e *sessionEntry, idx string) {
	n, err := strconv.Atoi(idx)
	if err != nil || n < 1 {
		writeError(w, http.StatusBadRequest, "bad map index")
		return
	}
	spec, status, errMsg := s.vegaSpec(e, n)
	if errMsg != "" {
		writeError(w, status, errMsg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(spec)
}

// vegaSpec computes the Vega-Lite spec for the n-th map of the session's
// latest step under the session lock. It performs no network writes while
// holding the lock (the lockblock analyzer enforces this discipline).
func (s *Server) vegaSpec(e *sessionEntry, n int) (spec []byte, status int, errMsg string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	steps := e.sess.Steps()
	if len(steps) == 0 {
		return nil, http.StatusConflict, "no step executed yet"
	}
	last := steps[len(steps)-1]
	if n > len(last.Maps) {
		return nil, http.StatusNotFound, "map index out of range"
	}
	rm := last.Maps[n-1]
	spec, err := rm.VegaLiteSpec(s.ex.DictFor(rm))
	if err != nil {
		return nil, http.StatusInternalServerError, err.Error()
	}
	return spec, http.StatusOK, ""
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request, id int, e *sessionEntry) {
	// One session is single-threaded: the paper's UI issues one step at a
	// time. A second concurrent step/apply on the same session is a
	// client bug — reject it immediately with 409 instead of queueing
	// compute. The per-session lock means a slow step here never blocks
	// other sessions or /healthz. The request context carries the span
	// sink installed by the middleware (so the step's span tree hangs off
	// the HTTP root span), the trace ID (so the step profile and wide
	// event correlate with the caller's traceparent), and the request's
	// cancellation, which the engine honors at phase boundaries.
	e, status, msg := s.lockInstalled(r.Context(), id, e)
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	opid := r.URL.Query().Get("opid")
	explain := r.URL.Query().Get("explain") == "1"
	// Idempotent retry: if the client re-sends an op the session already
	// committed (the connection died before the response — e.g. across a
	// crash), re-render the committed step instead of executing a new
	// one. This is the client half of exactly-once step semantics; the
	// log-before-respond below is the server half. The committed op must
	// actually be a step — a client reusing an apply's opid here would
	// otherwise have us index an empty or unrelated step list — so any
	// other kind falls through to normal execution.
	if last, ok := e.sess.LastOp(); opid != "" && ok && last.OpID == opid && last.Kind == core.OpStep {
		if steps := e.sess.Steps(); len(steps) > 0 {
			payload := s.stepJSON(e.sess, steps[len(steps)-1], explain)
			e.mu.Unlock()
			writeJSON(w, http.StatusOK, payload)
			return
		}
	}
	stepStart := time.Now()
	step, err := e.sess.StepCtx(r.Context())
	var payload StepJSON
	var op core.SessionOp
	var seq int
	if err == nil {
		e.sess.TagLastOp(opid)
		op, _ = e.sess.LastOp()
		seq = e.sess.NumOps() - 1
		payload = s.stepJSON(e.sess, step, explain)
		e.unlogged.Add(1)
	}
	// Everything below — the WAL append, the wide event, dump triggers,
	// the response — happens outside the session lock: the WAL fsync and
	// flight dumps do file I/O and the response write blocks on the
	// client.
	e.mu.Unlock()
	durMS := float64(time.Since(stepStart).Microseconds()) / 1000
	tid := string(obs.TraceIDFrom(r.Context()))
	if err != nil {
		status := http.StatusInternalServerError
		msg := err.Error()
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// The deadline fired before the engine completed a single
			// phase: there is no prefix to degrade to.
			s.stepTimeouts.Inc()
			status = http.StatusGatewayTimeout
			msg = "step deadline exceeded before any phase boundary; retry or raise -step-timeout"
		}
		s.flight.Record(obs.NewWideEvent().
			Set("op", "step").
			Set("session", id).
			Set("trace_id", tid).
			Set("status", status).
			Set("duration_ms", durMS).
			Set("error", msg))
		// The middleware's 5xx trigger fires the dump once this error is
		// written; recording first puts the failing step in the dumped ring.
		writeError(w, status, msg)
		return
	}
	// Log before respond: the step is durable before the client sees it,
	// so a crash after this point loses nothing a client has acted on.
	if !s.persistOp(w, e, id, seq, op, "step") {
		return
	}
	s.flight.Record(obs.NewWideEvent().
		Set("op", "step").
		Set("session", id).
		Set("trace_id", tid).
		Set("status", http.StatusOK).
		Set("duration_ms", durMS).
		Set("degraded", step.Degraded).
		Set("selection", payload.Selection).
		Set("gen_ms", payload.GenMillis).
		Set("rec_ms", payload.RecMillis).
		Set("records_processed", step.RecordsProcessed))
	if step.Degraded {
		s.flightTrigger("degraded_step")
	}
	writeJSON(w, http.StatusOK, payload)
}

// persistOp appends one committed op of entry e to the durable store,
// reporting whether to proceed with the success response, and then
// lowers e's unlogged count. On failure it answers 500: the op is
// applied in memory (and the store's mirror; the gap heals at the next
// compaction), but the client must not act on a response the log never
// saw.
func (s *Server) persistOp(w http.ResponseWriter, e *sessionEntry, id, seq int, op core.SessionOp, what string) bool {
	defer e.unlogged.Add(-1)
	if s.store == nil {
		return true
	}
	if err := s.store.AppendOp(id, seq, op); err != nil {
		s.walFailures.Inc()
		s.flight.Record(obs.NewWideEvent().
			Set("op", "wal_append").
			Set("session", id).
			Set("error", err.Error()))
		s.flightTrigger("wal_append_failed")
		writeError(w, http.StatusInternalServerError, "failed to persist "+what+": "+err.Error())
		return false
	}
	return true
}

// applyRequest moves a session: exactly one of the move fields is used.
// Recommendation is a pointer so an explicit {"recommendation": 0} is
// distinguishable from an absent field and gets a targeted error.
type applyRequest struct {
	Predicate      string `json:"predicate,omitempty"`
	Recommendation *int   `json:"recommendation,omitempty"` // 1-based
	Back           bool   `json:"back,omitempty"`
	// OpID is an optional client idempotency tag: re-sending a request
	// whose op the session already committed (a retry after a lost
	// response) answers from state instead of re-applying.
	OpID string `json:"op_id,omitempty"`
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request, id int, e *sessionEntry) {
	var req applyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	e, status, msg := s.lockInstalled(r.Context(), id, e)
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	sess := e.sess
	// Idempotent retry, mirroring handleStep: an already-committed op is
	// answered from state, not re-applied. The kind check mirrors
	// handleStep's: an opid that tags a committed *step* is not a
	// committed apply, however the client mislabeled it.
	if last, ok := sess.LastOp(); req.OpID != "" && ok && last.OpID == req.OpID && last.Kind != core.OpStep {
		sel := sess.Current().String()
		e.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]string{"selection": sel})
		return
	}
	status, msg = s.applyLocked(sess, req)
	var op core.SessionOp
	var seq int
	var sel string
	if status == 0 {
		sess.TagLastOp(req.OpID)
		op, _ = sess.LastOp()
		seq = sess.NumOps() - 1
		sel = sess.Current().String()
		e.unlogged.Add(1)
	}
	// The WAL append and the response write stay outside the session
	// lock (file I/O and client-paced I/O respectively).
	e.mu.Unlock()
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	if !s.persistOp(w, e, id, seq, op, "apply") {
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"selection": sel})
}

// applyLocked commits one apply operation on the locked session. It
// returns (0, "") on success or the HTTP status and message to answer.
func (s *Server) applyLocked(sess *core.Session, req applyRequest) (int, string) {
	switch {
	case req.Back:
		if !sess.Back() {
			return http.StatusConflict, "history empty"
		}
	case req.Recommendation != nil:
		if *req.Recommendation < 1 {
			return http.StatusBadRequest, "recommendation must be ≥ 1 (1-based index)"
		}
		if err := sess.ApplyRecommendation(*req.Recommendation - 1); err != nil {
			return http.StatusBadRequest, err.Error()
		}
	case req.Predicate != "":
		d, err := s.ex.ParseDescription(req.Predicate)
		if err != nil {
			return http.StatusBadRequest, err.Error()
		}
		if err := sess.ApplyDescription(d); err != nil {
			return http.StatusBadRequest, err.Error()
		}
	default:
		return http.StatusBadRequest, "one of predicate, recommendation, back required"
	}
	return 0, ""
}

// decodeJSON reads a JSON body with the hardening defaults: a 64 KiB
// size cap (413 on breach) and unknown-field rejection (a targeted 400).
// It reports whether decoding succeeded; on failure the response has
// been written.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
	case strings.HasPrefix(err.Error(), "json: unknown field"):
		writeError(w, http.StatusBadRequest,
			"unknown field "+strings.TrimPrefix(err.Error(), "json: unknown field "))
	default:
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
	}
	return false
}

// JSON shapes ------------------------------------------------------------

// StepJSON is the display payload of one exploration step.
type StepJSON struct {
	Selection       string               `json:"selection"`
	GroupSize       int                  `json:"group_size"`
	Reviewers       int                  `json:"reviewers"`
	Items           int                  `json:"items"`
	Maps            []MapJSON            `json:"maps"`
	Recommendations []RecommendationJSON `json:"recommendations,omitempty"`
	GenMillis       float64              `json:"generation_ms"`
	RecMillis       float64              `json:"recommendation_ms"`
	// Degraded marks an anytime result: the step deadline cut the scan
	// short after a phase boundary, so the maps rank candidates over the
	// first RecordsProcessed records of the group (and recommendations
	// may be missing). Clients should render it as a best-effort answer.
	Degraded         bool `json:"degraded"`
	RecordsProcessed int  `json:"records_processed,omitempty"`
	// TraceID is the correlation ID the step ran under — the caller's
	// traceparent trace ID, or a server-minted one. Resolve it against
	// /debug/spans?trace= and /debug/flightrecorder?trace=.
	TraceID string `json:"trace_id,omitempty"`
	// Profile is the step's EXPLAIN record, present only under ?explain=1.
	Profile *core.StepProfile `json:"profile,omitempty"`
}

// MapJSON is one rating map.
type MapJSON struct {
	GroupBy   string    `json:"group_by"` // side.attr
	Dimension string    `json:"dimension"`
	Utility   float64   `json:"utility"`
	WonBy     string    `json:"won_by"` // winning interestingness criterion
	Bars      []BarJSON `json:"bars"`
	// Digest is the canonical byte-stable fingerprint of the rating map
	// (ratingmap.Digest): two maps digest equally iff their accumulated
	// counts are identical. The workload harness uses it to prove that an
	// HTTP-driven session shows byte-identical displays to an in-process
	// one, and golden-trace regression tests pin it across releases.
	Digest string `json:"digest"`
}

// BarJSON is one subgroup bar.
type BarJSON struct {
	Value    string  `json:"value"`
	Records  int     `json:"records"`
	Counts   []int   `json:"distribution"` // index i = rating i+1
	AvgScore float64 `json:"avg_score"`
	Mode     int     `json:"mode_score"`
}

// RecommendationJSON is one ranked next-step operation.
type RecommendationJSON struct {
	Utility   float64 `json:"utility"`
	Operation string  `json:"operation"`
	Target    string  `json:"target"`
}

func (s *Server) stepJSON(sess *core.Session, step *core.StepResult, explain bool) StepJSON {
	out := StepJSON{
		Selection:        step.Desc.String(),
		GroupSize:        step.GroupSize,
		Reviewers:        step.NumMatched.Reviewers,
		Items:            step.NumMatched.Items,
		GenMillis:        float64(step.GenDuration.Microseconds()) / 1000,
		RecMillis:        float64(step.RecDuration.Microseconds()) / 1000,
		Degraded:         step.Degraded,
		RecordsProcessed: step.RecordsProcessed,
		TraceID:          step.TraceID,
	}
	if explain {
		out.Profile = step.Profile
	}
	for i, rm := range step.Maps {
		out.Maps = append(out.Maps, s.mapJSON(sess, rm, step.Utilities[i]))
	}
	for _, rec := range step.Recommendations {
		out.Recommendations = append(out.Recommendations, RecommendationJSON{
			Utility:   rec.Utility,
			Operation: rec.Op.String(),
			Target:    rec.Op.Target.String(),
		})
	}
	return out
}

func (s *Server) mapJSON(sess *core.Session, rm *ratingmap.RatingMap, utility float64) MapJSON {
	_, winner := s.ex.ExplainMap(rm, sess.Seen())
	mj := MapJSON{
		GroupBy:   rm.Side.String() + "." + rm.Attr,
		Dimension: rm.DimName,
		Utility:   utility,
		WonBy:     winner.String(),
		Digest:    rm.Digest(),
	}
	dict := s.ex.DictFor(rm)
	for i := range rm.Subgroups {
		sg := &rm.Subgroups[i]
		mj.Bars = append(mj.Bars, BarJSON{
			Value:    dict.Value(sg.Value),
			Records:  sg.N,
			Counts:   sg.Counts,
			AvgScore: sg.AvgScore(),
			Mode:     sg.ModeScore(),
		})
	}
	return mj
}

func summaryJSON(sum core.PathSummary) map[string]any {
	return map[string]any{
		"steps":               sum.Steps,
		"total_utility":       sum.TotalUtility,
		"distinct_attributes": sum.DistinctAttributes,
		"avg_diversity":       sum.AvgDiversity,
		"maps_per_dimension":  sum.MapsPerDimension,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
