// Command stepbench is the end-to-end benchmark of SubDEx's exploration
// step loop. It generates a workload's inputs, builds the
// system exactly as subdexd serves it (subdex.DefaultConfig(), single
// node), drives it with closed-loop simulated users for a fixed time, and
// prints what those users waited for: step latency, step throughput, CPU
// and allocations per step, live heap and set-up time. Every session's
// trace is digested and checked against an independent replay, so a run
// whose outputs diverge reports correct=false and exits non-zero.
//
// With -trace 1 the same workload runs a second time with tracing on and
// the benchmark reports per-layer numbers instead: span timings, engine
// profiles, registry counters, benchmark-side wrappers around the
// scorer, the session store and the HTTP handler, plus an isolation pass
// that replays recorded inputs through each layer's public functions.
//
// Usage, from the root of a checkout:
//
//	bash stepbench/run.sh --workload rp-walk --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"subdex/internal/core"
	"subdex/internal/workload"
)

// workloadSpec is one named exploration workload.
type workloadSpec struct {
	Name string
	// Scale is the yelp generator scale of the workload's dataset.
	Scale float64
	Mode  core.Mode
	Mix   workload.Mix
	// HTTP drives the sessions over loopback HTTP against a server with
	// a file-backed session store, instead of in-process.
	HTTP bool
	// SessionSteps is the length of one simulated session in step
	// displays. Users run fixed-length sessions back to back, so every
	// session's trace is a deterministic function of (seed, user, index).
	SessionSteps int
}

var workloads = []workloadSpec{
	{
		Name:         "rp-walk",
		Scale:        0.05,
		Mode:         core.RecommendationPowered,
		Mix:          workload.DefaultMix(),
		SessionSteps: 8,
	},
	{
		Name:         "ud-scan-http",
		Scale:        1.0,
		Mode:         core.UserDriven,
		Mix:          workload.Mix{Drill: 0.5, Back: 0.5},
		HTTP:         true,
		SessionSteps: 8,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// options are one run's settings. The command line sets the first four;
// the rest have fixed defaults that the self-test shrinks to toy sizes.
type options struct {
	Root    string
	Seed    int64
	Measure time.Duration
	Trace   bool

	// Warmup runs before the measured window opens.
	Warmup time.Duration
	// SetupReps is the least number of times set-up is timed; setup_s is
	// the median.
	SetupReps int
	// ReplayBudget bounds the reference replay of sessions sampled across
	// the run; the last sessions of every user replay regardless.
	ReplayBudget time.Duration
	// ScaleOverride, when > 0, replaces the workload's dataset scale.
	ScaleOverride float64
	// Log receives progress lines (standard error in the command).
	Log io.Writer
}

func (o options) withDefaults() options {
	if o.SetupReps <= 0 {
		o.SetupReps = 5
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stepbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	wl := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed: drives every simulated user's session scripts")
	seconds := fs.Float64("seconds", 40, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced pass and reports per-layer metrics")
	root := fs.String("root", ".", "checkout root; inputs and scratch files go under ROOT/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := findWorkload(*wl)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "stepbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	opt := options{
		Root:         *root,
		Seed:         *seed,
		Measure:      time.Duration(*seconds * float64(time.Second)),
		Trace:        *trace == 1,
		Warmup:       3 * time.Second,
		ReplayBudget: 5 * time.Second,
		Log:          stderr,
	}
	rep, err := runBenchmark(context.Background(), spec, opt)
	if err != nil {
		fmt.Fprintln(stderr, "stepbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "stepbench:", err)
		return 1
	}
	if !rep.Correct {
		for _, p := range rep.Problems {
			fmt.Fprintln(stderr, "stepbench: correctness:", p)
		}
		return 1
	}
	return 0
}

// metric is one reported number with its unit and the number of raw
// samples it was computed from.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move.
	Moves string
}

// report is one run's outcome.
type report struct {
	Workload  string
	Seed      int64
	Trace     bool
	Config    configRecord
	Metrics   []metric
	Attempted int
	Failed    int
	Correct   bool
	Problems  []string
	// Digests are the per-session trace digests of the reported phase,
	// keyed "user/index".
	Digests map[string]string
	// Verified counts sessions checked against the reference replay, and
	// VerifiedInWindow those of them that ran during the measured window.
	Verified, VerifiedInWindow int
	// SliceSteal is the machine's CPU share stolen by the hypervisor in
	// each slice of the reported window, and SetupSteal in each set-up
	// repetition.
	SliceSteal, SetupSteal []float64
	// StepMS holds the raw client-observed Step latencies of the measured
	// window, in completion order.
	StepMS []float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable lines (configuration, every metric by
// name, value, unit and sample count) and, last, the JSON result line.
func (r *report) print(w io.Writer) error {
	cfg, err := json.Marshal(r.Config)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", r.Workload, r.Seed, r.Trace)
	fmt.Fprintf(w, "config %s\n", cfg)
	fmt.Fprintf(w, "digest sessions=%d verified_against_replay=%d of_them_in_window=%d correct=%v\n",
		len(r.Digests), r.Verified, r.VerifiedInWindow, r.Correct)
	calm := calmest(r.SliceSteal)
	fmt.Fprintf(w, "host cpu_steal_ratio median=%.4f max=%.4f; calm slices %d of %d\n",
		median(r.SliceSteal), slices.Max(append([]float64{0}, r.SliceSteal...)), len(calm), len(r.SliceSteal))
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(r.Metrics))}
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s n=%d", m.Name, m.Value, m.Unit, m.Samples)
		if m.Moves != "" {
			fmt.Fprintf(w, "  moves %s", m.Moves)
		}
		fmt.Fprintln(w)
		line.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
