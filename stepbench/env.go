package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"subdex"
	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/gen"
	"subdex/internal/obs"
	"subdex/internal/server"
	"subdex/internal/sessionstore"
	"subdex/internal/workload"
)

// multiValued declares the generators' multi-valued attributes to the CSV
// loader, as subdexd -data does.
var multiValued = map[string]dataset.Kind{
	"genre": dataset.MultiValued, "cuisine": dataset.MultiValued,
	"amenity": dataset.MultiValued,
}

// buildDir is where every generated or scratch file of a run lives.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// datasetSeed is the yelp generator seed of every workload's dataset. The
// dataset is the served table and stays fixed; the workload seed drives
// the simulated users. At yelp 0.05 (12 items) the dataset draw alone
// moves per-step cost by about 15% between generator seeds.
const datasetSeed = 1

// ensureInputs generates the workload's dataset and saves it as CSV (the
// subdexd -data format), reusing an earlier run's copy. This is untimed:
// only loading counts as set-up.
func ensureInputs(opt options, scale float64) (string, error) {
	dir := filepath.Join(buildDir(opt.Root), "inputs",
		fmt.Sprintf("yelp-s%s-seed%d", strconv.FormatFloat(scale, 'g', -1, 64), datasetSeed))
	if _, err := os.Stat(filepath.Join(dir, "complete")); err == nil {
		return dir, nil
	}
	db, err := gen.Yelp(gen.Config{Seed: datasetSeed, Scale: scale})
	if err != nil {
		return "", fmt.Errorf("generating inputs: %w", err)
	}
	tmp := dir + fmt.Sprintf(".tmp%d", os.Getpid())
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := dataset.SaveDir(db, tmp); err != nil {
		return "", fmt.Errorf("saving inputs: %w", err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "complete"), nil, 0o644); err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", fmt.Errorf("saving inputs: %w", err)
	}
	return dir, nil
}

// servedConfig is the configuration subdexd serves: subdex.DefaultConfig()
// with no scanner, no step timeout and the default k/o/l.
func servedConfig() core.Config { return subdex.DefaultConfig() }

// env is one constructed system under test: a loaded database and either
// an in-process explorer or a loopback HTTP server with a file-backed
// session store.
type env struct {
	spec workloadSpec
	db   *dataset.DB
	cfg  core.Config
	ex   *core.Explorer

	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	hc     *http.Client
	store  sessionstore.Store
	walDir string

	// Traced environments only.
	reg    *obs.Registry
	scorer *timingScorer
	tstore *timedStore
	hlog   *handlerLog
}

// newEnv builds the system under test and reports how long loading and
// the whole set-up took. With traced set, the explorer or server is
// instrumented and wrapped for the per-layer metrics.
func newEnv(ctx context.Context, spec workloadSpec, dataDir, walDir string, traced bool) (*env, time.Duration, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	db, err := dataset.LoadDir(dataDir, "loaded", multiValued)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("loading inputs: %w", err)
	}
	load := time.Since(start)
	e := &env{spec: spec, db: db, cfg: servedConfig()}
	if traced {
		e.reg = obs.NewRegistry()
		e.scorer = &timingScorer{}
		e.cfg.Scorer = e.scorer
	}
	if !spec.HTTP {
		e.ex, err = core.NewExplorer(db, e.cfg)
		if err != nil {
			return nil, 0, 0, err
		}
		if traced {
			e.ex.Instrument(e.reg)
		}
		return e, load, time.Since(start), nil
	}
	if err := e.startServer(ctx, walDir, traced); err != nil {
		e.close()
		return nil, 0, 0, err
	}
	return e, load, time.Since(start), nil
}

// startServer opens the session store, builds the server and serves it on
// a loopback port, returning once /healthz answers.
func (e *env) startServer(ctx context.Context, walDir string, traced bool) error {
	if err := os.RemoveAll(walDir); err != nil {
		return err
	}
	fs, err := sessionstore.Open(walDir)
	if err != nil {
		return err
	}
	e.walDir = walDir
	e.store = fs
	if traced {
		e.tstore = &timedStore{Store: fs, walPath: filepath.Join(walDir, sessionstore.WALFileName)}
		e.store = e.tstore
	}
	e.srv, err = server.NewWithOptionsCtx(ctx, e.db, e.cfg, server.Options{Store: e.store, Registry: e.reg})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = e.srv.Handler()
	if traced {
		e.hlog = &handlerLog{}
		h = e.hlog.wrap(h)
	}
	e.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	resp, err := e.hc.Get(e.base + "/healthz")
	if err != nil {
		return fmt.Errorf("server health check: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server health check: status %d", resp.StatusCode)
	}
	return nil
}

// factory mints one user's client for this environment.
func (e *env) factory() workload.ClientFactory {
	if e.spec.HTTP {
		return workload.HTTPFactory(e.base, e.hc, e.spec.Mode, "")
	}
	return workload.InprocFactory(e.ex, e.spec.Mode, "")
}

// close stops the server and its goroutines, closes the store and removes
// the WAL directory. It is safe on a partly built env.
func (e *env) close() error {
	var errs []error
	if e.hs != nil {
		errs = append(errs, e.hs.Close())
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if e.hc != nil {
		e.hc.CloseIdleConnections()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.store != nil {
		errs = append(errs, e.store.Close())
	}
	if e.walDir != "" {
		errs = append(errs, os.RemoveAll(e.walDir))
	}
	return errors.Join(errs...)
}

// cacheState renders the in-process explorer's engine-cache fill for
// progress lines ("" over HTTP, where the explorer is the server's).
func (e *env) cacheState() string {
	if e.ex == nil {
		return ""
	}
	st := e.ex.EngineCacheStats()
	return fmt.Sprintf(", engine cache %d entries %d/%d records, hit rate %.2f, %d evictions",
		st.Entries, st.UsedRecords, st.BudgetRecords, st.HitRate(), st.Evictions)
}
