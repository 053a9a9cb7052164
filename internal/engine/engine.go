// Package engine implements the RM-Generator of SubDEx (§4.2.1): the
// phase-based execution framework of Algorithm 1 with the paper's two
// sharing optimizations (combined aggregates via the shared accumulator,
// parallel execution via a worker pool) and its two pruning schemes — the
// confidence-interval pruning of Algorithm 3 built on Hoeffding-Serfling
// worst-case intervals, and the multi-armed-bandit pruning built on the
// Successive Accepts and Rejects strategy. Given a rating group, it returns
// (w.h.p.) the k×l rating maps with the highest dimension-weighted
// utilities.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subdex/internal/bandit"
	"subdex/internal/dataset"
	"subdex/internal/obs"
	"subdex/internal/query"
	"subdex/internal/ratingmap"
	"subdex/internal/stats"
)

// Pruning selects which pruning schemes run at phase boundaries.
type Pruning int

const (
	// PruneNone disables pruning (the No-Pruning baseline of §5.1).
	PruneNone Pruning = iota
	// PruneCI uses only confidence-interval pruning (the CI baseline).
	PruneCI
	// PruneMAB uses only bandit pruning (the MAB baseline).
	PruneMAB
	// PruneBoth runs both schemes, SubDEx's default.
	PruneBoth
)

func (p Pruning) String() string {
	switch p {
	case PruneNone:
		return "none"
	case PruneCI:
		return "ci"
	case PruneMAB:
		return "mab"
	case PruneBoth:
		return "ci+mab"
	default:
		return fmt.Sprintf("Pruning(%d)", int(p))
	}
}

// Config parameterizes the generator. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Phases is n in Algorithm 1; the paper follows SeeDB in using 10.
	Phases int
	// Delta is the CI confidence parameter (intervals hold w.p. 1−Delta).
	Delta float64
	// Pruning selects the pruning schemes.
	Pruning Pruning
	// Workers bounds parallel per-phase estimation; ≤1 disables
	// parallelism (the No-Parallelism and Naive baselines).
	Workers int
	// Utility configures scoring (max-aggregation, normalization, DW).
	Utility ratingmap.UtilityConfig
	// MinPhaseRecords skips phased execution for groups smaller than this:
	// pruning overhead would exceed the scan cost.
	MinPhaseRecords int
	// ShardMinRecords is the per-shard record floor of the parallel scan:
	// a scan is split into at most len(records)/ShardMinRecords shards, so
	// small ranges stay sequential no matter how many Workers are
	// configured. ≤ 0 means the conservative default (2048). Tests set 1
	// to force multi-shard merges on tiny inputs through the public
	// TopMaps path.
	ShardMinRecords int
	// ExactOnCacheMiss, with a Generator.Cache installed, disables the
	// phase/pruning machinery on cache misses and runs the exact sharded
	// scan instead, so every completed scan is cacheable. One exact scan
	// costs a small constant factor more than a pruned one; every revisit
	// of the group then skips the scan entirely. Leave false (the default)
	// to preserve pure Algorithm 1 semantics on misses — sub-threshold
	// groups and recommendation evaluation still populate the cache.
	ExactOnCacheMiss bool
	// PhaseHook, when non-nil, runs at the start of every phase (and once,
	// with phase 0, before the single-pass scan of the unphased path) with
	// the TopMaps context and the phase index. It is a test-only
	// fault-injection seam: tests use it to force slow or cancelled phases
	// deterministically instead of sleeping on wall-clock data sizes.
	// Production configs leave it nil.
	PhaseHook func(ctx context.Context, phase int)
}

// DefaultConfig returns the paper's defaults (n=10 phases, both pruning
// schemes, utility per §3.2.3).
func DefaultConfig() Config {
	return Config{
		Phases:          10,
		Delta:           0.05,
		Pruning:         PruneBoth,
		Workers:         1,
		Utility:         ratingmap.DefaultUtilityConfig(),
		MinPhaseRecords: 5000,
		ShardMinRecords: defaultShardMinRecords,
	}
}

// Result carries the generator's output: the top maps ranked by descending
// DW utility, aligned utilities, and observability counters.
type Result struct {
	Maps      []*ratingmap.RatingMap
	Utilities []float64
	// PrunedCI and PrunedMAB count candidates dropped by each scheme.
	PrunedCI  int
	PrunedMAB int
	// Considered is the initial candidate count.
	Considered int
	// Degraded reports anytime semantics: the scan (or the final scoring
	// pass) was cut short by context cancellation after at least one phase
	// boundary, so Maps ranks candidates over the RecordsProcessed-record
	// prefix only. Every phase boundary is a consistent prefix of the
	// group's records, so a degraded result is still a valid
	// Hoeffding-Serfling estimate — just a wider-interval one.
	Degraded bool
	// RecordsProcessed counts the group records folded into the
	// accumulator before finalization (== len(group.Records) for a
	// complete scan).
	RecordsProcessed int
	// Profile is the per-call EXPLAIN profile (always populated by
	// TopMapsCtx, even for degraded or cache-hit runs).
	Profile *Profile
}

// Generator produces top-utility rating maps for rating groups of one
// database.
type Generator struct {
	DB      *dataset.DB
	Builder ratingmap.Builder
	// Metrics, when non-nil, receives hot-path telemetry (candidate,
	// pruning and finalization counters, latency and worker-utilization
	// histograms). Leave nil for a zero-overhead generator.
	Metrics *Metrics
	// Cache, when non-nil, memoizes completed unpruned accumulators
	// across TopMaps calls (see TopMapsCache). Safe for concurrent use;
	// all sessions of one explorer share it.
	Cache *TopMapsCache
	// Scanner, when non-nil, replaces the local sharded scan with a
	// distributed one (see RangeScanner and internal/cluster): every
	// record range TopMaps would fold locally is partitioned across
	// worker processes and the partial accumulators merged back in
	// partition order — bit-identical by Merge associativity. A lost
	// partition degrades the call to the same anytime semantics a
	// deadline does. Scheduling-only, like Workers: deliberately
	// excluded from the engine-config fingerprint.
	Scanner RangeScanner
}

// NewGenerator wraps a frozen database.
func NewGenerator(db *dataset.DB) *Generator {
	return &Generator{DB: db, Builder: ratingmap.Builder{DB: db}}
}

// Candidates enumerates all possible rating maps for a group description:
// every unbound grouping attribute × every rating dimension (line 1 of
// Algorithm 1). The unbound attributes are counted first so the key slice
// is one exactly sized allocation.
func (g *Generator) Candidates(qe *query.Engine, desc query.Description) []ratingmap.Key {
	n := 0
	qe.EachGroupingCandidate(desc, func(query.GroupingCandidate) { n++ })
	dims := len(g.DB.Ratings.Dimensions)
	keys := make([]ratingmap.Key, 0, n*dims)
	qe.EachGroupingCandidate(desc, func(gc query.GroupingCandidate) {
		for d := 0; d < dims; d++ {
			keys = append(keys, ratingmap.Key{Side: gc.Side, Attr: gc.Attr, Dim: d})
		}
	})
	return keys
}

// TopMaps runs Algorithm 1: it returns w.h.p. the kPrime = k×l candidates
// with the highest DW utilities over the group's records, ranked by exact
// utility, pruning low-utility candidates at phase boundaries.
//
// TopMaps is an XCtx compatibility shim: a context-free wrapper F that
// delegates to FCtx with context.Background(), keeping the pre-context
// API alive. Shims like this (TopMaps, core.Session.Step,
// core.Explorer.RMSet) are the only non-main, non-test call sites where
// the ctxflow analyzer permits minting a root context.
func (g *Generator) TopMaps(group *query.RatingGroup, candidates []ratingmap.Key,
	seen *ratingmap.SeenSet, kPrime int, cfg Config) (*Result, error) {
	return g.TopMapsCtx(context.Background(), group, candidates, seen, kPrime, cfg)
}

// TopMapsCtx is TopMaps with span propagation and cooperative
// cancellation. Under a context carrying an obs sink it emits an
// "engine.topmaps" span with one "engine.phase" child per executed phase,
// and — when Generator.Metrics is installed — records the hot-path
// counters and histograms. Both instruments are no-ops when absent.
//
// The context is consulted at every phase boundary and inside the
// estimate worker chunk loops; the final scoring pass reads accumulated
// statistics, not records, and always completes. Cancellation before the
// first phase completes returns ctx.Err(). Cancellation after that degrades
// instead of failing: the scan stops at the last completed phase boundary
// and the survivors are finalized over the records processed so far —
// Algorithm 1 is an anytime algorithm, every phase boundary is a
// consistent record prefix — yielding a Result with Degraded set and
// RecordsProcessed reporting the prefix length.
func (g *Generator) TopMapsCtx(ctx context.Context, group *query.RatingGroup, candidates []ratingmap.Key,
	seen *ratingmap.SeenSet, kPrime int, cfg Config) (*Result, error) {
	if kPrime <= 0 {
		return nil, fmt.Errorf("engine: kPrime must be positive, got %d", kPrime)
	}
	if cfg.Phases <= 0 {
		cfg.Phases = 1
	}
	if cfg.ShardMinRecords <= 0 {
		cfg.ShardMinRecords = defaultShardMinRecords
	}
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "engine.topmaps")
	span.SetAttr("candidates", len(candidates))
	span.SetAttr("records", len(group.Records))
	span.SetAttr("k_prime", kPrime)
	span.SetAttr("pruning", cfg.Pruning.String())
	g.Metrics.addCandidates(len(candidates))
	res := &Result{Considered: len(candidates)}
	prof := &Profile{Cache: "off", Workers: cfg.Workers, GroupRecords: len(group.Records)}
	if prof.Workers < 1 {
		prof.Workers = 1
	}
	defer func() {
		g.Metrics.addPruned(res.PrunedCI, res.PrunedMAB)
		g.Metrics.addFinalized(len(res.Maps))
		g.Metrics.observeTopMaps(time.Since(start))
		if res.Degraded {
			g.Metrics.addDegraded()
			span.SetAttr("degraded", true)
		}
		prof.Considered = res.Considered
		prof.PrunedCI = res.PrunedCI
		prof.PrunedMAB = res.PrunedMAB
		if prof.Cache != "hit" {
			prof.RecordsScanned = res.RecordsProcessed
		}
		prof.TotalMS = msSince(start)
		res.Profile = prof
		span.SetAttr("pruned_ci", res.PrunedCI)
		span.SetAttr("pruned_mab", res.PrunedMAB)
		span.SetAttr("maps", len(res.Maps))
		span.End()
	}()
	if len(candidates) == 0 {
		return res, nil
	}

	n := len(group.Records)

	// Cross-step cache: a completed unpruned accumulator for this exact
	// (group, candidate set, utility config) lets the step skip the scan
	// and finalize the exact ranking directly. The cached accumulator is
	// shared and read-only; finalize never mutates it.
	var key cacheKey
	cacheable := false
	if g.Cache != nil {
		key, cacheable = newCacheKey(g.DB, group, candidates, cfg.Utility)
	}
	if cacheable {
		if cached, base, ok := g.Cache.get(key); ok {
			g.Metrics.addCacheHit()
			span.SetAttr("cache", "hit")
			prof.Cache = "hit"
			if cfg.PhaseHook != nil {
				cfg.PhaseHook(ctx, 0)
			}
			if err := ctx.Err(); err != nil {
				return nil, err // nothing served yet: fail, don't degrade
			}
			res.RecordsProcessed = n
			fstart := time.Now()
			g.finalize(cached, base, seen, kPrime, cfg, res)
			prof.FinalizeMS = msSince(fstart)
			return res, nil
		}
		g.Metrics.addCacheMiss()
		span.SetAttr("cache", "miss")
		prof.Cache = "miss"
	}

	acc := g.Builder.NewAccumulator(group.Desc, candidates)

	usePhases := cfg.Pruning != PruneNone && cfg.Phases > 1 &&
		n >= cfg.MinPhaseRecords && len(candidates) > kPrime &&
		!(g.Cache != nil && cfg.ExactOnCacheMiss)
	span.SetAttr("phased", usePhases)
	prof.Phased = usePhases

	if !usePhases {
		if cfg.PhaseHook != nil {
			cfg.PhaseHook(ctx, 0)
		}
		if err := ctx.Err(); err != nil {
			return nil, err // nothing processed yet: fail, don't degrade
		}
		folded, lost, err := g.scanRange(ctx, acc, group, 0, n, cfg, prof)
		if err != nil {
			return nil, err
		}
		if lost && folded == 0 {
			return nil, fmt.Errorf("engine: distributed scan lost every partition")
		}
		res.RecordsProcessed = folded
		if lost {
			// Same anytime contract as a deadline: the merged partition
			// prefix is a consistent record prefix, so finalize it
			// (detached below) instead of failing the step.
			res.Degraded = true
			prof.DegradedReason = "partition_lost"
		}
		fstart := time.Now()
		base := ratingmap.NewBaseSet(acc, cfg.Utility.Peculiarity)
		g.finalize(acc, base, seen, kPrime, cfg, res)
		prof.FinalizeMS = msSince(fstart)
		g.maybeCache(cacheable, key, acc, base, res, n)
		return res, nil
	}

	var sar *bandit.SAR
	if cfg.Pruning == PruneMAB || cfg.Pruning == PruneBoth {
		ids := make([]int, len(candidates))
		for i := range ids {
			ids[i] = i
		}
		var err error
		sar, err = bandit.NewSAR(ids, kPrime)
		if err != nil {
			return nil, err
		}
	}
	// alive maps candidate index → key for candidates still accumulated.
	alive := make(map[int]ratingmap.Key, len(candidates))
	for i, k := range candidates {
		alive[i] = k
	}

	processed := 0
	for phase := 0; phase < cfg.Phases; phase++ {
		lo := phase * n / cfg.Phases
		hi := (phase + 1) * n / cfg.Phases
		if lo >= hi {
			continue
		}
		if cfg.PhaseHook != nil {
			cfg.PhaseHook(ctx, phase)
		}
		// Anytime degradation: a deadline hitting at a phase boundary stops
		// the scan and finalizes the consistent prefix accumulated so far.
		// Before the first phase there is no prefix — fail outright.
		if err := ctx.Err(); err != nil {
			if processed == 0 {
				return nil, err
			}
			res.Degraded = true
			prof.DegradedReason = "deadline_at_phase_boundary"
			break
		}
		phaseStart := time.Now()
		_, pspan := obs.StartSpan(ctx, "engine.phase")
		pspan.SetAttr("phase", phase)
		ciBefore, mabBefore := res.PrunedCI, res.PrunedMAB
		startProcessed := processed
		endPhase := func() {
			g.Metrics.observePhase(time.Since(phaseStart))
			pspan.SetAttr("alive", len(alive))
			pspan.SetAttr("pruned_ci", res.PrunedCI-ciBefore)
			pspan.SetAttr("pruned_mab", res.PrunedMAB-mabBefore)
			pspan.End()
			prof.Phases = append(prof.Phases, PhaseProfile{
				Phase:      phase,
				DurationMS: msSince(phaseStart),
				Records:    processed - startProcessed,
				Alive:      len(alive),
				PrunedCI:   res.PrunedCI - ciBefore,
				PrunedMAB:  res.PrunedMAB - mabBefore,
			})
		}
		folded, lostPart, err := g.scanRange(ctx, acc, group, lo, hi, cfg, prof)
		if err != nil {
			endPhase()
			return nil, err
		}
		processed += folded
		if lostPart {
			// A partition lost mid-phase leaves a consistent prefix
			// shorter than the phase boundary: degrade exactly as a
			// deadline at this point would.
			if processed == 0 {
				endPhase()
				return nil, fmt.Errorf("engine: distributed scan lost every partition")
			}
			res.Degraded = true
			prof.DegradedReason = "partition_lost"
			endPhase()
			break
		}
		if phase == cfg.Phases-1 {
			endPhase()
			break // nothing to prune after the last fraction; finalize below
		}

		est, aborted := g.estimate(ctx, acc, alive, seen, cfg, processed, n)
		if aborted {
			// Cancelled mid-estimate: the phase's records are accumulated (a
			// consistent prefix), the estimates are not — skip pruning and
			// degrade to finalizing the prefix.
			res.Degraded = true
			prof.DegradedReason = "deadline_mid_estimate"
			endPhase()
			break
		}

		if cfg.Pruning == PruneCI || cfg.Pruning == PruneBoth {
			pruned := ciPrune(est, processed, n, kPrime, cfg.Delta, sar)
			for _, idx := range pruned {
				acc.Remove(alive[idx])
				delete(alive, idx)
				res.PrunedCI++
			}
		}
		if sar != nil {
			//subdex:orderinsensitive SetMean writes are keyed by candidate index; no write touches another index's state
			for idx, e := range est {
				if _, ok := alive[idx]; ok {
					if err := sar.SetMean(idx, e.dwMean); err != nil {
						return nil, err
					}
				}
			}
			// Successive Accepts and Rejects makes one decision per round
			// and needs (#arms − k') rounds in total; with n phases the
			// per-phase decision budget spreads the remaining decisions
			// over the remaining phases.
			remaining := len(alive) - kPrime
			phasesLeft := cfg.Phases - 1 - phase
			if phasesLeft < 1 {
				phasesLeft = 1
			}
			budget := (remaining + phasesLeft - 1) / phasesLeft
			for d := 0; d < budget; d++ {
				id, st, ok := sar.Step()
				if !ok {
					break
				}
				if st == bandit.Rejected {
					if k, live := alive[id]; live {
						acc.Remove(k)
						delete(alive, id)
						res.PrunedMAB++
					}
				}
			}
		}
		if len(alive) <= kPrime {
			// Survivors all fit in the answer; stop pruning, finish the scan
			// (still honoring the deadline at each phase-sized stride).
			for p := phase + 1; p < cfg.Phases; p++ {
				if ctx.Err() != nil {
					res.Degraded = true
					prof.DegradedReason = "deadline_mid_tail_scan"
					break
				}
				lo := p * n / cfg.Phases
				hi := (p + 1) * n / cfg.Phases
				if lo < hi {
					folded, lostPart, err := g.scanRange(ctx, acc, group, lo, hi, cfg, prof)
					if err != nil {
						endPhase()
						return nil, err
					}
					processed += folded
					if lostPart {
						res.Degraded = true
						prof.DegradedReason = "partition_lost"
						break
					}
				}
			}
			endPhase()
			break
		}
		endPhase()
	}
	res.RecordsProcessed = processed
	// Finalize over whatever prefix was accumulated.
	fstart := time.Now()
	base := ratingmap.NewBaseSet(acc, cfg.Utility.Peculiarity)
	g.finalize(acc, base, seen, kPrime, cfg, res)
	prof.FinalizeMS = msSince(fstart)
	g.maybeCache(cacheable, key, acc, base, res, n)
	return res, nil
}

// estimateEntry carries one candidate's per-criterion estimates and its
// dimension-weighted mean at a phase boundary.
type estimateEntry struct {
	idx    int
	key    ratingmap.Key
	scores ratingmap.Scores
	weight float64
	dwMean float64
}

// estimate snapshots the alive candidates and computes bounded criterion
// estimates in parallel (the "parallel query execution" sharing
// optimization: up to cfg.Workers candidates are scored simultaneously).
// The workers consult ctx between candidates; on cancellation the whole
// estimate is abandoned (aborted = true) — partial estimates must never
// feed pruning decisions.
func (g *Generator) estimate(ctx context.Context, acc *ratingmap.Accumulator, alive map[int]ratingmap.Key,
	seen *ratingmap.SeenSet, cfg ratingmapConfigCarrier, processed, total int) (est map[int]estimateEntry, aborted bool) {
	recordScale := 1.0
	if processed > 0 {
		recordScale = float64(total) / float64(processed)
	}
	idxs := make([]int, 0, len(alive))
	for i := range alive {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]estimateEntry, len(idxs))
	workers := cfg.workers()
	if workers < 1 {
		workers = 1
	}
	poolStart := time.Now()
	busy := make([]time.Duration, workers)
	var abort atomic.Bool
	var wg sync.WaitGroup
	chunk := (len(idxs) + workers - 1) / workers
	for w := 0; w < workers && w*chunk < len(idxs); w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(idxs) {
			hi = len(idxs)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			t0 := time.Now()
			defer func() { busy[w] = time.Since(t0) }()
			for p := lo; p < hi; p++ {
				if ctx.Err() != nil {
					abort.Store(true)
					return
				}
				idx := idxs[p]
				key := alive[idx]
				scores, _ := acc.CriteriaEstimateOpt(key, seen, recordScale, cfg.utility().Peculiarity)
				w := seen.Weight(key.Dim)
				if cfg.utility().DisableDimensionWeights {
					w = 1
				}
				out[p] = estimateEntry{
					idx:    idx,
					key:    key,
					scores: scores,
					weight: w,
					dwMean: w * scores.Aggregate(cfg.utility()),
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var totalBusy time.Duration
	for _, b := range busy {
		totalBusy += b
	}
	g.Metrics.observeUtilization(totalBusy, time.Since(poolStart), workers)
	if abort.Load() {
		return nil, true
	}
	m := make(map[int]estimateEntry, len(out))
	for _, e := range out {
		m[e.idx] = e
	}
	return m, false
}

// ratingmapConfigCarrier lets estimate share Config without an import cycle
// risk; Config satisfies it.
type ratingmapConfigCarrier interface {
	workers() int
	utility() ratingmap.UtilityConfig
}

func (c Config) workers() int                     { return c.Workers }
func (c Config) utility() ratingmap.UtilityConfig { return c.Utility }

// ciPrune applies Algorithm 3. Each candidate's interval is built per
// criterion from the Hoeffding-Serfling radius at (processed, total), then
// collapsed for the max-of-criteria utility: the interval of a maximum of
// quantities is [max of lower bounds, max of upper bounds] — every criterion
// interval lying entirely below another is discarded, exactly the loop of
// lines 2-9. Both bounds are then scaled by the dimension weight (lines
// 10-11). A candidate is pruned when its upper bound falls below the lowest
// lower bound of the current top-kPrime (lines 12-17). Arms already accepted
// by the bandit are exempt. Returns the pruned candidate indexes.
func ciPrune(est map[int]estimateEntry, processed, total, kPrime int, delta float64, sar *bandit.SAR) []int {
	if len(est) <= kPrime {
		return nil
	}
	radius := stats.HoeffdingSerflingRadius(processed, total, delta)
	type bound struct {
		idx    int
		lo, hi float64
	}
	accepted := make(map[int]bool)
	if sar != nil {
		for _, id := range sar.Accepted() {
			accepted[id] = true
		}
	}
	// Iterate candidates in sorted index order and break ranking ties by
	// index: bounds built straight off the map range fed an *unstable*
	// sort, so candidates with equal upper bounds straddling the k'
	// cutoff made the pruned set depend on map iteration order — a
	// nondeterminism the detorder analyzer now rejects statically.
	idxs := make([]int, 0, len(est))
	for idx := range est {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	bounds := make([]bound, 0, len(est))
	for _, idx := range idxs {
		e := est[idx]
		lo, hi := -1.0, -1.0
		for _, s := range e.scores {
			l := stats.Clamp(s-radius, 0, 1)
			h := stats.Clamp(s+radius, 0, 1)
			if l > lo {
				lo = l
			}
			if h > hi {
				hi = h
			}
		}
		bounds = append(bounds, bound{idx: idx, lo: lo * e.weight, hi: hi * e.weight})
	}
	sort.Slice(bounds, func(i, j int) bool {
		if bounds[i].hi != bounds[j].hi {
			return bounds[i].hi > bounds[j].hi
		}
		return bounds[i].idx < bounds[j].idx
	})
	lowest := bounds[0].lo
	for _, b := range bounds[1:min(kPrime, len(bounds))] {
		if b.lo < lowest {
			lowest = b.lo
		}
	}
	var pruned []int
	for _, b := range bounds[min(kPrime, len(bounds)):] {
		if b.hi < lowest && !accepted[b.idx] {
			pruned = append(pruned, b.idx)
		}
	}
	return pruned
}

// maybeCache admits a finalized accumulator and its BaseSet into the
// cross-step cache when the accumulator is a complete, unpruned scan of
// the whole group: no candidate was removed mid-scan (every histogram
// covers every record) and the scan reached the final record. cacheable
// is false when no cache is installed or the call bypasses it. The
// accumulator is sealed before it is published.
func (g *Generator) maybeCache(cacheable bool, key cacheKey, acc *ratingmap.Accumulator, base *ratingmap.BaseSet, res *Result, n int) {
	if !cacheable || res.PrunedCI > 0 || res.PrunedMAB > 0 || res.RecordsProcessed != n {
		return
	}
	acc.Seal()
	evicted := g.Cache.put(key, acc, base, n)
	if evicted > 0 {
		g.Cache.addEvictions(evicted)
		g.Metrics.addCacheEvictions(evicted)
	}
}

// finalize scores all remaining candidates on their full accumulated
// data, ranks them, and materializes only the top kPrime as rating maps.
// The seen-independent criteria come from base, built once per completed
// scan (a miss) or taken from the cache (a hit); only global peculiarity
// is computed against the current history, once per distinct pooled
// distribution. With normalization enabled in the utility config,
// criterion columns are min-max normalized across the survivors before
// aggregation, per Somech et al. [51].
//
// finalize reads accumulated statistics, not records, and does not
// consult a context: it always runs to completion, so a deadline that
// expires after the scan still yields a fully scored anytime result.
func (g *Generator) finalize(acc *ratingmap.Accumulator, base *ratingmap.BaseSet, seen *ratingmap.SeenSet,
	kPrime int, cfg Config, res *Result) {
	keys := acc.Keys()
	bound := base.Against(seen)
	scores := make([]ratingmap.Scores, len(keys))
	for i := range scores {
		scores[i] = bound.At(i)
	}
	if cfg.Utility.Normalize && len(keys) > 1 {
		col := make([]float64, len(keys))
		for c := ratingmap.Criterion(0); c < ratingmap.NumCriteria; c++ {
			for i := range scores {
				col[i] = scores[i][c]
			}
			stats.MinMaxNormalize(col)
			for i := range scores {
				scores[i][c] = col[i]
			}
		}
	}
	utils := make([]float64, len(keys))
	for i := range keys {
		utils[i] = ratingmap.DWUtility(scores[i].Aggregate(cfg.Utility), keys[i].Dim, seen, cfg.Utility)
	}
	top := topK(utils, kPrime)
	res.Utilities = make([]float64, len(top))
	for j, i := range top {
		res.Utilities[j] = utils[i]
	}
	res.Maps = acc.SnapshotsAt(top)
}

// topK returns the indices of the k largest utilities in descending
// order, equal utilities in index order: the first k entries of a stable
// descending sort, found by insertion into a k-long ranked prefix
// instead of sorting every candidate.
func topK(utils []float64, k int) []int {
	k = min(k, len(utils))
	top := make([]int, 0, k)
	for i, u := range utils {
		n := len(top)
		if n == k {
			// Full: u enters only by beating the last entry, which drops
			// out. An equal utility loses to the earlier index.
			if k == 0 || !(u > utils[top[n-1]]) {
				continue
			}
			n--
		} else {
			top = append(top, 0)
		}
		j := n
		for j > 0 && utils[top[j-1]] < u {
			j--
		}
		copy(top[j+1:], top[j:n])
		top[j] = i
	}
	return top
}
