package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"subdex/internal/core"
	"subdex/internal/diversity"
	"subdex/internal/engine"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
)

// Isolation-pass sizes: how many recorded selections are replayed, how
// many candidate targets per selection, and how often each batch runs.
const (
	isoSelections = 6
	isoTargets    = 12
	isoReps       = 3
)

// isoItem is one isolated call's cost per operation.
type isoItem struct {
	ops               int
	ns, allocs, bytes float64
}

// isolation is the isolation pass's outcome, keyed by metric prefix
// (e.g. "engine.topmaps_cold").
type isolation struct {
	items map[string]isoItem
	// scanNSPerRecord is (cold TopMaps total − finalize) / records over
	// the unphased target scans; scanRecords is its sample size.
	scanNSPerRecord float64
	scanRecords     int
}

// measure runs fn over n inputs once untimed, so lazily built state exists,
// then isoReps more times timed, reading allocations around the batch.
func measure(n int, fn func(i int) error) (isoItem, error) {
	if n == 0 {
		return isoItem{}, nil
	}
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return isoItem{}, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for r := 0; r < isoReps; r++ {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return isoItem{}, err
			}
		}
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	ops := float64(n * isoReps)
	return isoItem{
		ops:    n * isoReps,
		ns:     float64(el.Nanoseconds()) / ops,
		allocs: float64(m1.Mallocs-m0.Mallocs) / ops,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / ops,
	}, nil
}

// recordedSelections lists the distinct selections the traced phase
// displayed, in session order, so the same seed picks the same ones.
func recordedSelections(tr *tracer) []string {
	tr.mu.Lock()
	steps := append([]stepTrace(nil), tr.steps...)
	tr.mu.Unlock()
	sort.SliceStable(steps, func(i, j int) bool {
		a, b := steps[i].key, steps[j].key
		if a.k != b.k {
			return a.k < b.k
		}
		return a.user < b.user
	})
	var out []string
	seen := map[string]bool{}
	for _, st := range steps {
		if !seen[st.selection] {
			seen[st.selection] = true
			out = append(out, st.selection)
		}
	}
	return out
}

// sampleGroup caps a group at n records, evenly spaced — the sampling the
// recommendation pass applies to candidate groups.
func sampleGroup(g *query.RatingGroup, n int) *query.RatingGroup {
	if n <= 0 || len(g.Records) <= n {
		return g
	}
	recs := make([]int32, 0, n)
	step := float64(len(g.Records)) / float64(n)
	for i := 0; i < n; i++ {
		recs = append(recs, g.Records[int(float64(i)*step)])
	}
	return &query.RatingGroup{Desc: g.Desc, Records: recs, Reviewers: g.Reviewers, Items: g.Items}
}

// isolate replays the traced phase's recorded inputs through each layer's
// public functions on fresh, uninstrumented instances: Query.Materialize
// of candidate targets, RecommendationBuilder.CandidateOps,
// Generator.TopMapsCtx cold (no cache) and warm (cache hit), and
// diversity.SelectDiverse over the recorded map sets.
func isolate(ctx context.Context, e *env, tr *tracer) (*isolation, error) {
	ex, err := core.NewExplorer(e.db, servedConfig())
	if err != nil {
		return nil, err
	}
	cfg := ex.Cfg
	kPrime := cfg.K * cfg.L
	cold := engine.NewGenerator(e.db)
	warm := engine.NewGenerator(e.db)
	warm.Cache = engine.NewTopMapsCache(1 << 24)
	coldQuery, err := query.NewEngine(e.db)
	if err != nil {
		return nil, err
	}
	rb := &core.RecommendationBuilder{Ex: ex}

	type selInput struct {
		desc query.Description
		maps []*ratingmap.RatingMap
	}
	var sels []selInput
	var mapSets [][]*ratingmap.RatingMap
	var targets []query.Description
	for _, s := range recordedSelections(tr) {
		if len(sels) == isoSelections {
			break
		}
		desc, err := ex.ParseDescription(orTrue(s))
		if err != nil {
			return nil, fmt.Errorf("isolation: recorded selection %q: %w", s, err)
		}
		group, err := ex.Query.Materialize(desc)
		if err != nil {
			return nil, err
		}
		res, err := cold.TopMapsCtx(ctx, group, cold.Candidates(ex.Query, desc), ratingmap.NewSeenSet(), kPrime, cfg.Engine)
		if err != nil {
			return nil, err
		}
		shown := diversity.SelectDiverse(res.Maps, cfg.K, cfg.Distance)
		sels = append(sels, selInput{desc, shown})
		mapSets = append(mapSets, res.Maps)
		ops, err := rb.CandidateOps(desc, shown)
		if err != nil {
			return nil, err
		}
		for i := 0; i < isoTargets && i < len(ops); i++ {
			targets = append(targets, ops[i*len(ops)/min(isoTargets, len(ops))].Target)
		}
	}
	type targetInput struct {
		group *query.RatingGroup
		cands []ratingmap.Key
	}
	var tins []targetInput
	for _, t := range targets {
		g, err := ex.Query.Materialize(t)
		if err != nil {
			return nil, err
		}
		if g.Len() == 0 {
			continue
		}
		tin := targetInput{sampleGroup(g, cfg.RecSampleSize), cold.Candidates(ex.Query, t)}
		res, err := cold.TopMapsCtx(ctx, tin.group, tin.cands, ratingmap.NewSeenSet(), kPrime, cfg.Engine)
		if err != nil {
			return nil, err
		}
		tins = append(tins, tin)
		mapSets = append(mapSets, res.Maps)
	}

	iso := &isolation{items: map[string]isoItem{}}
	add := func(name string, n int, fn func(i int) error) error {
		it, err := measure(n, fn)
		iso.items[name] = it
		return err
	}
	if err := add("query.materialize_target", len(targets), func(i int) error {
		_, err := coldQuery.Materialize(targets[i])
		return err
	}); err != nil {
		return nil, err
	}
	if err := add("core.candidate_ops", len(sels), func(i int) error {
		_, err := rb.CandidateOps(sels[i].desc, sels[i].maps)
		return err
	}); err != nil {
		return nil, err
	}
	var scanNS float64
	var scanRecs int
	if err := add("engine.topmaps_cold", len(tins), func(i int) error {
		res, err := cold.TopMapsCtx(ctx, tins[i].group, tins[i].cands, ratingmap.NewSeenSet(), kPrime, cfg.Engine)
		if err != nil {
			return err
		}
		if p := res.Profile; !p.Phased && p.RecordsScanned > 0 {
			scanNS += (p.TotalMS - p.FinalizeMS) * 1e6
			scanRecs += p.RecordsScanned
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if scanRecs > 0 {
		iso.scanNSPerRecord = scanNS / float64(scanRecs)
		iso.scanRecords = scanRecs
	}
	if err := add("engine.topmaps_warm", len(tins), func(i int) error {
		_, err := warm.TopMapsCtx(ctx, tins[i].group, tins[i].cands, ratingmap.NewSeenSet(), kPrime, cfg.Engine)
		return err
	}); err != nil {
		return nil, err
	}
	if err := add("diversity.select", len(mapSets), func(i int) error {
		diversity.SelectDiverse(mapSets[i], cfg.K, cfg.Distance)
		return nil
	}); err != nil {
		return nil, err
	}
	return iso, nil
}

// orTrue maps the root selection's empty rendering to the parser's
// whole-database literal.
func orTrue(s string) string {
	if s == "" {
		return "TRUE"
	}
	return s
}
