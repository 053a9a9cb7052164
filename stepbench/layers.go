package main

import (
	"time"
)

// layerDef is one per-layer metric and the end-to-end metric (at the
// workloads named) it should move when its layer gets faster.
type layerDef struct {
	name, unit, better string
	moves              string
}

// layerDefs lists the traced run's metrics in output order. A metric of a
// layer a workload does not exercise reads 0 there (no server or session
// store in-process, no recommendation pass in User-Driven mode).
var layerDefs = []layerDef{
	{"core.step_ms", "ms", "lower", "step_p50_ms @ all"},
	{"core.step_self_ms", "ms", "lower", "step_p50_ms @ all"},
	{"core.rmset_ms", "ms", "lower", "step_p50_ms @ ud-scan-http"},
	{"core.recommend_ms", "ms", "lower", "steps_per_s, cpu_ms_per_step @ rp-walk"},
	{"core.rec_candidates_per_step", "count", "lower", "steps_per_s, cpu_ms_per_step @ rp-walk"},
	{"core.score_op_us", "us", "lower", "steps_per_s, cpu_ms_per_step @ rp-walk"},
	{"core.candidate_ops_us", "us", "lower", "step_p50_ms @ rp-walk"},
	{"core.candidate_ops_allocs", "count", "lower", "allocs_per_step @ rp-walk"},
	{"core.candidate_ops_bytes", "B", "lower", "allocs_per_step @ rp-walk"},
	{"query.materialize_us", "us", "lower", "step_p50_ms @ ud-scan-http"},
	{"query.group_records", "count", "lower", "step_p50_ms @ ud-scan-http"},
	{"query.materialize_target_us", "us", "lower", "cpu_ms_per_step @ rp-walk"},
	{"query.materialize_target_allocs", "count", "lower", "allocs_per_step @ rp-walk"},
	{"query.materialize_target_bytes", "B", "lower", "allocs_per_step @ rp-walk"},
	{"engine.topmaps_calls_per_step", "count", "lower", "cpu_ms_per_step @ rp-walk, ud-scan-http"},
	{"engine.topmaps_ms_per_step", "ms", "lower", "cpu_ms_per_step @ rp-walk, ud-scan-http"},
	{"engine.cache_hit_ratio", "ratio", "higher", "steps_per_s @ rp-walk"},
	{"engine.cache_evictions", "count", "lower", "steps_per_s @ rp-walk"},
	{"engine.records_scanned_per_step", "count", "lower", "step_p50_ms @ ud-scan-http"},
	{"engine.phases_per_step", "count", "lower", "step_p50_ms @ ud-scan-http"},
	{"engine.phase_ms", "ms", "lower", "step_p50_ms @ ud-scan-http"},
	{"engine.pruned_ratio", "ratio", "higher", "step_p50_ms @ ud-scan-http"},
	{"engine.finalize_ms", "ms", "lower", "cpu_ms_per_step, allocs_per_step @ rp-walk"},
	{"engine.topmaps_cold_us", "us", "lower", "cpu_ms_per_step @ rp-walk"},
	{"engine.topmaps_cold_allocs", "count", "lower", "allocs_per_step @ rp-walk"},
	{"engine.topmaps_cold_bytes", "B", "lower", "allocs_per_step @ rp-walk"},
	{"engine.topmaps_warm_us", "us", "lower", "cpu_ms_per_step @ rp-walk"},
	{"engine.topmaps_warm_allocs", "count", "lower", "allocs_per_step @ rp-walk"},
	{"engine.topmaps_warm_bytes", "B", "lower", "allocs_per_step @ rp-walk"},
	{"ratingmap.scan_ns_per_record", "ns", "lower", "cpu_ms_per_step @ rp-walk, ud-scan-http"},
	{"diversity.select_us", "us", "lower", "cpu_ms_per_step @ rp-walk"},
	{"diversity.select_allocs", "count", "lower", "allocs_per_step @ rp-walk"},
	{"diversity.select_bytes", "B", "lower", "allocs_per_step @ rp-walk"},
	{"server.request_ms.step", "ms", "lower", "step_p50_ms @ ud-scan-http"},
	{"server.request_ms.apply", "ms", "lower", "write_p50_ms @ ud-scan-http"},
	{"server.request_ms.back", "ms", "lower", "write_p50_ms @ ud-scan-http"},
	{"server.overhead_ms", "ms", "lower", "step_p50_ms @ ud-scan-http"},
	{"server.step_response_bytes", "B", "lower", "step_p50_ms @ ud-scan-http"},
	{"sessionstore.appends_per_op", "count", "lower", "write_p50_ms, steps_per_s @ ud-scan-http"},
	{"sessionstore.fsyncs_per_op", "count", "lower", "write_p50_ms, steps_per_s @ ud-scan-http"},
	{"sessionstore.wal_bytes_per_op", "B", "lower", "write_p50_ms, steps_per_s @ ud-scan-http"},
	{"sessionstore.append_us", "us", "lower", "write_p50_ms, steps_per_s @ ud-scan-http"},
	{"sessionstore.append_p90_us", "us", "lower", "write_p50_ms, steps_per_s @ ud-scan-http"},
	{"dataset.load_s", "s", "lower", "setup_s @ ud-scan-http"},
	{"runtime.heap_live_mb", "MiB", "lower", "none gated: process memory @ all"},
	{"runtime.gc_cycles_per_step", "count", "lower", "step_p90_ms, cpu_ms_per_step @ all"},
	{"runtime.gc_pause_ms_per_step", "ms", "lower", "step_p90_ms, cpu_ms_per_step @ all"},
	{"obs.tracing_overhead", "ratio", "higher", "none: traced over untraced steps_per_s, in-process only (0 over HTTP)"},
}

// layerMetrics computes the per-layer metrics from the traced phase's
// window, the isolation pass and the set-up loads. plain is the untraced
// phase of the same run, for the tracing overhead.
func layerMetrics(tr *tracer, ph, plain *phaseResult, iso *isolation, loads []time.Duration) []metric {
	w0, w1 := ph.w0, ph.w1
	inWin := func(start, end time.Time) bool { return !start.Before(w0.at) && !end.After(w1.at) }
	steps := ph.windowSteps()
	ops := 0
	for _, c := range ph.calls {
		if ph.inWindow(c) && (c.kind == callStep || c.kind == callWrite) {
			ops++
		}
	}

	vals := map[string]metric{}
	set := func(name string, v float64, n int) { vals[name] = metric{Name: name, Value: v, Samples: n} }

	var stepMS, selfMS, rmsetMS, recMS, materUS, groupRecs, cands, overhead []float64
	var scanned, phases, phaseMS, finalizeMS []float64
	var pruned, considered float64
	tr.mu.Lock()
	for _, st := range tr.steps {
		if st.end.Before(w0.at) || st.end.After(w1.at) {
			continue
		}
		groupRecs = append(groupRecs, float64(st.groupSize))
		if st.spans {
			stepMS = append(stepMS, st.stepMS)
			selfMS = append(selfMS, st.stepMS-st.rmsetMS-st.recMS)
			rmsetMS = append(rmsetMS, st.rmsetMS)
			recMS = append(recMS, st.recMS)
			materUS = append(materUS, st.materMS*1000)
			if st.clientMS > 0 {
				overhead = append(overhead, st.clientMS-st.stepMS)
			}
		}
		if p := st.profile; p != nil {
			cands = append(cands, float64(p.RecCandidates))
			if ep := p.Engine; ep != nil {
				scanned = append(scanned, float64(ep.RecordsScanned))
				phases = append(phases, float64(len(ep.Phases)))
				finalizeMS = append(finalizeMS, ep.FinalizeMS)
				for _, ph := range ep.Phases {
					phaseMS = append(phaseMS, ph.DurationMS)
				}
				pruned += float64(ep.PrunedCI + ep.PrunedMAB)
				considered += float64(ep.Considered)
			}
		}
	}
	tr.mu.Unlock()

	set("core.step_ms", mean(stepMS), len(stepMS))
	set("core.step_self_ms", mean(selfMS), len(selfMS))
	set("core.rmset_ms", mean(rmsetMS), len(rmsetMS))
	set("core.recommend_ms", mean(recMS), len(recMS))
	set("core.rec_candidates_per_step", mean(cands), len(cands))
	l0, l1 := w0.layer, w1.layer
	scored := int(l1.scored - l0.scored)
	if scored > 0 {
		set("core.score_op_us", float64(l1.scoreNS-l0.scoreNS)/float64(scored)/1000, scored)
	} else {
		set("core.score_op_us", 0, 0)
	}
	isoSet := func(prefix string) {
		it := iso.items[prefix]
		set(prefix+"_us", it.ns/1000, it.ops)
		set(prefix+"_allocs", it.allocs, it.ops)
		set(prefix+"_bytes", it.bytes, it.ops)
	}
	isoSet("core.candidate_ops")
	set("query.materialize_us", mean(materUS), len(materUS))
	set("query.group_records", mean(groupRecs), len(groupRecs))
	isoSet("query.materialize_target")

	topCalls := int(l1.topmapsCount - l0.topmapsCount)
	set("engine.topmaps_calls_per_step", perStep(float64(topCalls), steps), topCalls)
	set("engine.topmaps_ms_per_step", perStep((l1.topmapsSum-l0.topmapsSum)*1000, steps), topCalls)
	hits, misses := l1.cacheHits-l0.cacheHits, l1.cacheMiss-l0.cacheMiss
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	set("engine.cache_hit_ratio", hitRatio, int(hits+misses))
	set("engine.cache_evictions", float64(l1.evicted-l0.evicted), int(hits+misses))
	set("engine.records_scanned_per_step", mean(scanned), len(scanned))
	set("engine.phases_per_step", mean(phases), len(phases))
	set("engine.phase_ms", mean(phaseMS), len(phaseMS))
	prunedRatio := 0.0
	if considered > 0 {
		prunedRatio = pruned / considered
	}
	set("engine.pruned_ratio", prunedRatio, len(scanned))
	set("engine.finalize_ms", mean(finalizeMS), len(finalizeMS))
	isoSet("engine.topmaps_cold")
	isoSet("engine.topmaps_warm")
	set("ratingmap.scan_ns_per_record", iso.scanNSPerRecord, iso.scanRecords)
	isoSet("diversity.select")

	reqMS := func(kind string) {
		var xs, bytes []float64
		if tr.env.hlog != nil {
			tr.env.hlog.mu.Lock()
			for _, op := range tr.env.hlog.reqs[kind] {
				if inWin(op.start, op.end) {
					xs = append(xs, ms(op.end.Sub(op.start)))
					bytes = append(bytes, float64(op.bytes))
				}
			}
			tr.env.hlog.mu.Unlock()
		}
		set("server.request_ms."+kind, mean(xs), len(xs))
		if kind == "step" {
			set("server.step_response_bytes", mean(bytes), len(bytes))
		}
	}
	reqMS("step")
	reqMS("apply")
	reqMS("back")
	if tr.env.spec.HTTP {
		set("server.overhead_ms", mean(overhead), len(overhead))
	} else {
		set("server.overhead_ms", 0, 0)
	}

	var appendUS []float64
	var walBytes float64
	if ts := tr.env.tstore; ts != nil {
		ts.mu.Lock()
		for _, op := range ts.appends {
			if inWin(op.start, op.end) {
				appendUS = append(appendUS, ms(op.end.Sub(op.start))*1000)
			}
		}
		for _, op := range ts.grown {
			if inWin(op.start, op.end) {
				walBytes += float64(op.bytes)
			}
		}
		ts.mu.Unlock()
	}
	set("sessionstore.appends_per_op", perStep(float64(l1.store.Appends-l0.store.Appends), ops), ops)
	set("sessionstore.fsyncs_per_op", perStep(float64(l1.store.Fsyncs-l0.store.Fsyncs), ops), ops)
	set("sessionstore.wal_bytes_per_op", perStep(walBytes, ops), ops)
	set("sessionstore.append_us", mean(appendUS), len(appendUS))
	set("sessionstore.append_p90_us", quantile(appendUS, 0.9), len(appendUS))

	set("dataset.load_s", median(durationsMS(loads))/1000, len(loads))
	set("runtime.heap_live_mb", ph.heapLiveMB, len(ph.heapSamples))
	set("runtime.gc_cycles_per_step", perStep(float64(w1.mem.NumGC-w0.mem.NumGC), steps), steps)
	set("runtime.gc_pause_ms_per_step", perStep(float64(w1.mem.PauseTotalNs-w0.mem.PauseTotalNs)/1e6, steps), steps)
	// Over HTTP the traced phase also reads span trees back from the
	// server after every step, so its throughput would measure mostly the
	// benchmark's own instrumentation; the overhead is reported in-process
	// only.
	set("obs.tracing_overhead", 0, 0)
	if ps := float64(plain.windowSteps()) / plain.windowSeconds(); ps > 0 && !tr.env.spec.HTTP {
		set("obs.tracing_overhead", float64(steps)/ph.windowSeconds()/ps, steps)
	}

	out := make([]metric, 0, len(layerDefs))
	for _, d := range layerDefs {
		m := vals[d.name]
		m.Name, m.Unit, m.Moves = d.name, d.unit, d.moves
		out = append(out, m)
	}
	return out
}
