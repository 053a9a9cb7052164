package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"subdex/internal/workload"
)

// benchmarkFile is the slice of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// toyOptions shrinks a run to a few seconds on the smallest dataset. The
// window must hold whole recommendation-powered steps under -race.
func toyOptions(t *testing.T, trace bool) options {
	return options{
		Root:          t.TempDir(),
		Seed:          7,
		Measure:       3 * time.Second,
		Warmup:        100 * time.Millisecond,
		Trace:         trace,
		SetupReps:     2,
		ReplayBudget:  100 * time.Millisecond,
		ScaleOverride: 0.002,
	}
}

// TestEveryMetricEmitted runs each workload at toy size, untraced and
// traced, and checks that the printed result line is correct and carries
// exactly the metrics BENCHMARK.json declares, each with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	if len(bf.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(layerDefs))
	}
	for i, d := range layerDefs {
		if p := bf.PerLayer[i]; p.Name != d.name || p.Unit != d.unit || p.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, p, d)
		}
	}
	for _, w := range bf.Workloads {
		spec, ok := findWorkload(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
		for _, trace := range []bool{false, true} {
			rep, err := runBenchmark(context.Background(), spec, toyOptions(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			if rep.VerifiedInWindow == 0 {
				t.Errorf("%s trace=%v: none of the %d replayed sessions ran in the measured window", w.Name, trace, rep.Verified)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			if len(res) != 4 {
				t.Errorf("result keys = %d, want correct/attempted/failed/metrics", len(res))
			}
			var metrics map[string]metricValue
			if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(metrics), len(want))
			}
			for name, unit := range want {
				got, ok := metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, name, got, unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, got.Value)
				}
			}
		}
	}
}

// TestDigestGateTrips perturbs one map digest of a recorded session and
// checks that every digest comparison the benchmark makes reports it.
func TestDigestGateTrips(t *testing.T) {
	spec, _ := findWorkload("rp-walk")
	opt := toyOptions(t, false).withDefaults()
	dataDir, err := ensureInputs(opt, opt.ScaleOverride)
	if err != nil {
		t.Fatal(err)
	}
	e, _, _, err := newEnv(context.Background(), spec, dataDir, filepath.Join(opt.Root, "wal"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	res, err := workload.Run(context.Background(), workload.Config{
		Users: 1, Seed: sessionSeed(opt.Seed, 0, 0), StepsPerUser: spec.SessionSteps,
		Mix: spec.Mix, Mode: spec.Mode, Record: true,
	}, e.factory())
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Users[0].Records
	if len(recs) == 0 || len(recs[0].MapDigests) == 0 {
		t.Fatal("session recorded no maps")
	}
	good, err := sessionDigest(recs)
	if err != nil {
		t.Fatal(err)
	}
	key := sessionKey{0, 0}
	ref, err := replayReference(context.Background(), e.db, spec, opt, []sessionKey{key}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := compareDigests("reference replay", ref, map[sessionKey]string{key: good}); len(p) != 0 {
		t.Fatalf("unperturbed session diverges from its replay: %v", p)
	}

	recs[len(recs)-1].MapDigests[0] += "x"
	bad, err := sessionDigest(recs)
	if err != nil {
		t.Fatal(err)
	}
	if p := compareDigests("reference replay", ref, map[sessionKey]string{key: bad}); len(p) != 1 {
		t.Errorf("perturbed trace passed the replay check: %v", p)
	}
	path := filepath.Join(opt.Root, "digests.json")
	if p, err := checkDigestRecord(path, map[sessionKey]string{key: good}); err != nil || len(p) != 0 {
		t.Fatalf("first record: %v %v", p, err)
	}
	if p, err := checkDigestRecord(path, map[sessionKey]string{key: bad}); err != nil || len(p) != 1 {
		t.Errorf("perturbed trace passed the cross-run check: %v %v", p, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}
