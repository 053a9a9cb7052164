package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"subdex/internal/core"
)

// Set-up repetitions: set-up repeats until opt.SetupReps calm repetitions
// (see calmSteal) are in hand and setupBudget is spent, so that their
// median settles, but stops at maxSetupReps or once setupCap is spent.
const (
	setupBudget  = 2 * time.Second
	setupCap     = 8 * time.Second
	maxSetupReps = 40
)

// runBenchmark runs one workload end to end: inputs, timed set-up, the
// untraced phase, the reference replay and digest checks, and with
// opt.Trace the traced phase and isolation pass.
func runBenchmark(ctx context.Context, spec workloadSpec, opt options) (*report, error) {
	opt = opt.withDefaults()
	scale := spec.Scale
	if opt.ScaleOverride > 0 {
		scale = opt.ScaleOverride
	}
	dataDir, err := ensureInputs(opt, scale)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(buildDir(opt.Root), fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	// Set-up is timed from scratch until opt.SetupReps repetitions ran
	// with calm host steal and all took setupBudget, within the caps; the
	// last system built is the one the users drive.
	var e *env
	var setups, loads []time.Duration
	var setupSteal []float64
	var spent time.Duration
	calm := 0
	for i := 0; i < maxSetupReps && spent < setupCap && (calm < opt.SetupReps || spent < setupBudget); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
		}
		var load, total time.Duration
		steal0, total0 := cpuTicks()
		e, load, total, err = newEnv(ctx, spec, dataDir, filepath.Join(runDir, fmt.Sprintf("wal-%d", i)), false)
		if err != nil {
			return nil, err
		}
		steal1, total1 := cpuTicks()
		setupSteal = append(setupSteal, stealShare(steal0, total0, steal1, total1))
		if setupSteal[i] <= calmSteal {
			calm++
		}
		setups = append(setups, total)
		loads = append(loads, load)
		spent += total
	}
	var calmSetups []time.Duration
	for _, i := range calmest(setupSteal) {
		calmSetups = append(calmSetups, setups[i])
	}
	fmt.Fprintf(opt.Log, "stepbench: %s: %d ratings, set-up %.3fs (%d of %d repetitions calm); %d users, %v warm-up, %v measured\n",
		spec.Name, e.db.Ratings.Len(), median(durationsMS(calmSetups))/1000, len(calmSetups), len(setups), users(), opt.Warmup, opt.Measure)
	plain, err := drive(ctx, e, opt, nil)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	rep := &report{Workload: spec.Name, Seed: opt.Seed, Trace: opt.Trace,
		Config: newConfigRecord(spec, scale, opt, e.cfg)}
	problems := plain.problems
	must, spread := replayPlan(plain)
	ref, err := replayReference(ctx, e.db, spec, opt, must, spread)
	if err != nil {
		return nil, err
	}
	rep.Verified = len(ref)
	for k := range ref {
		if sp := plain.spans[k]; sp.start.Before(plain.w1.at) && sp.end.After(plain.w0.at) {
			rep.VerifiedInWindow++
		}
	}
	problems = append(problems, compareDigests("reference replay", ref, plain.sessions)...)
	e = nil // drop the untraced system before building the traced one

	shown := plain
	if opt.Trace {
		te, _, _, err := newEnv(ctx, spec, dataDir, filepath.Join(runDir, "wal-traced"), true)
		if err != nil {
			return nil, err
		}
		tr := newTracer(te)
		traced, err := drive(ctx, te, opt, tr)
		var iso *isolation
		if err == nil {
			iso, err = isolate(ctx, te, tr)
		}
		if cerr := te.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		problems = append(problems, traced.problems...)
		problems = append(problems, compareDigests("traced vs untraced", plain.sessions, traced.sessions)...)
		rep.Metrics = layerMetrics(tr, traced, plain, iso, loads)
		shown = traced
	} else {
		rep.Metrics = endToEndMetrics(calmSetups, plain)
	}
	recorded, err := checkDigestRecord(digestRecordPath(opt, spec, scale), shown.sessions)
	if err != nil {
		return nil, err
	}
	problems = append(problems, recorded...)

	rep.SliceSteal = shown.sliceSteal()
	rep.SetupSteal = setupSteal
	rep.Digests = make(map[string]string, len(shown.sessions))
	for k, d := range shown.sessions {
		rep.Digests[k.String()] = d
	}
	for _, c := range shown.calls {
		if c.kind == callStep && !c.failed && shown.inWindow(c) {
			rep.StepMS = append(rep.StepMS, ms(c.end.Sub(c.start)))
		}
		rep.Attempted++
		if c.failed {
			rep.Failed++
		}
	}
	if len(shown.sessions) == 0 {
		problems = append(problems, "no session completed")
	}
	rep.Problems = problems
	rep.Correct = len(problems) == 0
	return rep, writeResultFile(opt, rep)
}

// endToEndMetrics computes what a user of the system sees, from the
// untraced phase's measured window: the success ratio from the whole
// window, every other metric from its calm slices. setups are the calm
// set-up repetitions.
func endToEndMetrics(setups []time.Duration, ph *phaseResult) []metric {
	kept := make([]bool, len(ph.edges)-1)
	var seconds, cpuMS, allocs float64
	for _, i := range calmest(ph.sliceSteal()) {
		kept[i] = true
		a, b := ph.edges[i], ph.edges[i+1]
		seconds += b.at.Sub(a.at).Seconds()
		cpuMS += ms(b.cpu - a.cpu)
		allocs += float64(b.mem.Mallocs - a.mem.Mallocs)
	}
	steps := 0
	var stepMS, writeMS []float64
	attempted, failed := 0, 0
	for _, c := range ph.calls {
		if ph.inWindow(c) {
			attempted++
			if c.failed {
				failed++
			}
		}
		i := ph.sliceOf(c.end)
		if c.failed || i < 0 || !kept[i] {
			continue
		}
		steps += c.steps
		if c.start.Before(ph.w0.at) {
			continue
		}
		switch c.kind {
		case callStep:
			stepMS = append(stepMS, ms(c.end.Sub(c.start)))
		case callWrite:
			writeMS = append(writeMS, ms(c.end.Sub(c.start)))
		}
	}
	okRatio := 0.0
	if attempted > 0 {
		okRatio = float64(attempted-failed) / float64(attempted)
	}
	return []metric{
		{Name: "setup_s", Value: median(durationsMS(setups)) / 1000, Unit: "s", Samples: len(setups)},
		{Name: "steps_per_s", Value: float64(steps) / seconds, Unit: "1/s", Samples: steps},
		{Name: "step_p50_ms", Value: quantile(stepMS, 0.5), Unit: "ms", Samples: len(stepMS)},
		{Name: "step_p90_ms", Value: quantile(stepMS, 0.9), Unit: "ms", Samples: len(stepMS)},
		{Name: "write_p50_ms", Value: quantile(writeMS, 0.5), Unit: "ms", Samples: len(writeMS)},
		{Name: "cpu_ms_per_step", Value: perStep(cpuMS, steps), Unit: "ms", Samples: steps},
		{Name: "allocs_per_step", Value: perStep(allocs, steps), Unit: "count", Samples: steps},
		{Name: "op_success_ratio", Value: okRatio, Unit: "ratio", Samples: attempted},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func perStep(v float64, steps int) float64 {
	if steps == 0 {
		return 0
	}
	return v / float64(steps)
}

// quantile is the q-quantile of raw samples, interpolating linearly
// between the two closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// configRecord is the effective configuration a result was measured
// under, written into every result.
type configRecord struct {
	Workload           string  `json:"workload"`
	Dataset            string  `json:"dataset"`
	Scale              float64 `json:"scale"`
	Transport          string  `json:"transport"`
	Mode               string  `json:"mode"`
	Mix                string  `json:"mix"`
	Users              int     `json:"users"`
	SessionSteps       int     `json:"session_steps"`
	WarmupS            float64 `json:"warmup_s"`
	MeasureS           float64 `json:"measure_s"`
	K                  int     `json:"k"`
	O                  int     `json:"o"`
	L                  int     `json:"l"`
	RecWorkers         int     `json:"rec_workers"`
	EngineWorkers      int     `json:"engine_workers"`
	RecSampleSize      int     `json:"rec_sample_size"`
	IncludeCombined    bool    `json:"limits_include_combined"`
	MaxCandidates      int     `json:"limits_max_candidates"`
	MaxValuesPerAttr   int     `json:"limits_max_values_per_attribute"`
	GroupCacheRecords  int     `json:"group_cache_records"`
	EngineCacheRecords int     `json:"engine_cache_records"`
	Scanner            string  `json:"scanner"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	NumCPU             int     `json:"nproc"`
	GoVersion          string  `json:"go_version"`
}

func newConfigRecord(spec workloadSpec, scale float64, opt options, cfg core.Config) configRecord {
	transport, scanner := "inproc", "local"
	if spec.HTTP {
		transport = "http+filestore"
	}
	if cfg.Scanner != nil {
		scanner = "distributed"
	}
	return configRecord{
		Workload:           spec.Name,
		Dataset:            "yelp",
		Scale:              scale,
		Transport:          transport,
		Mode:               spec.Mode.String(),
		Mix:                fmt.Sprintf("recommend=%g,drill=%g,back=%g,auto=%g", spec.Mix.Recommend, spec.Mix.Drill, spec.Mix.Back, spec.Mix.Auto),
		Users:              users(),
		SessionSteps:       spec.SessionSteps,
		WarmupS:            opt.Warmup.Seconds(),
		MeasureS:           opt.Measure.Seconds(),
		K:                  cfg.K,
		O:                  cfg.O,
		L:                  cfg.L,
		RecWorkers:         cfg.RecWorkers,
		EngineWorkers:      cfg.Engine.Workers,
		RecSampleSize:      cfg.RecSampleSize,
		IncludeCombined:    cfg.Limits.IncludeCombined,
		MaxCandidates:      cfg.Limits.MaxCandidates,
		MaxValuesPerAttr:   cfg.Limits.MaxValuesPerAttribute,
		GroupCacheRecords:  cfg.GroupCacheRecords,
		EngineCacheRecords: cfg.EngineCacheRecords,
		Scanner:            scanner,
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NumCPU:             runtime.NumCPU(),
		GoVersion:          runtime.Version(),
	}
}

// writeResultFile keeps the full report — configuration, metrics with
// sample counts, digests and problems — under .bench_build/results.
func writeResultFile(opt options, rep *report) error {
	dir := filepath.Join(buildDir(opt.Root), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rep.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
