package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"subdex/internal/workload"
)

// callKind classifies a client call for the latency metrics.
type callKind int

const (
	// callStep is Client.Step: one step display.
	callStep callKind = iota
	// callAuto is Client.Auto: several step displays in one call.
	callAuto
	// callWrite is a session-mutating call: Apply, ApplyRecommendation
	// or Back.
	callWrite
	// callOther is session creation, Summary and Close.
	callOther
)

// call is one timed client call.
type call struct {
	kind       callKind
	start, end time.Time
	// steps is the number of step displays the call returned.
	steps  int
	failed bool
}

// sessionKey names one simulated session: user u's k-th session.
type sessionKey struct{ user, k int }

func (k sessionKey) String() string { return fmt.Sprintf("%d/%d", k.user, k.k) }

// timeSpan is when one session ran.
type timeSpan struct{ start, end time.Time }

// sessionSeed derives the workload.Run seed of one session from the
// benchmark seed, so each session's script depends on (seed, user, k)
// only, never on timing.
func sessionSeed(seed int64, user, k int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(user)<<40 ^ uint64(k)
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>2) + 1
}

// sessionDigest fingerprints a session's golden-trace records: selections,
// group sizes, map digests and utilities, the chosen operations, and the
// rendered recommendations with their exact utilities.
func sessionDigest(recs []workload.Record) (string, error) {
	b, err := workload.MarshalGolden(recs)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// userLog is one user's record of a phase. Only its own goroutine writes
// it until the phase ends.
type userLog struct {
	calls    []call
	sessions map[sessionKey]string
	spans    map[sessionKey]timeSpan
	problems []string
}

func (l *userLog) add(kind callKind, start, end time.Time, steps int, err error) {
	l.calls = append(l.calls, call{kind: kind, start: start, end: end, steps: steps, failed: err != nil})
}

// timedClient times every call a simulated user makes, as the user
// observes it, and hands step results to the tracer in traced phases.
type timedClient struct {
	inner workload.Client
	log   *userLog
	done  *atomic.Int64
	tr    *tracer
	key   sessionKey
}

func (c *timedClient) Step(ctx context.Context) (*workload.StepView, error) {
	ctx, capture := c.tr.stepContext(ctx)
	start := time.Now()
	sv, err := c.inner.Step(ctx)
	end := time.Now()
	steps := 0
	if err == nil {
		steps = 1
		c.tr.noteStep(ctx, c.key, capture, []*workload.StepView{sv}, end.Sub(start), end)
	}
	c.log.add(callStep, start, end, steps, err)
	c.done.Add(int64(steps))
	return sv, err
}

func (c *timedClient) Apply(ctx context.Context, predicate string) error {
	start := time.Now()
	err := c.inner.Apply(ctx, predicate)
	c.log.add(callWrite, start, time.Now(), 0, err)
	return err
}

func (c *timedClient) ApplyRecommendation(ctx context.Context, i int) error {
	start := time.Now()
	err := c.inner.ApplyRecommendation(ctx, i)
	c.log.add(callWrite, start, time.Now(), 0, err)
	return err
}

func (c *timedClient) Back(ctx context.Context) (bool, error) {
	start := time.Now()
	moved, err := c.inner.Back(ctx)
	c.log.add(callWrite, start, time.Now(), 0, err)
	return moved, err
}

func (c *timedClient) Auto(ctx context.Context, m int) ([]*workload.StepView, error) {
	ctx, capture := c.tr.stepContext(ctx)
	start := time.Now()
	views, err := c.inner.Auto(ctx, m)
	end := time.Now()
	if len(views) > 0 {
		c.tr.noteStep(ctx, c.key, capture, views, 0, end)
	}
	c.log.add(callAuto, start, end, len(views), err)
	c.done.Add(int64(len(views)))
	return views, err
}

func (c *timedClient) Summary(ctx context.Context) (*workload.SummaryView, error) {
	start := time.Now()
	sv, err := c.inner.Summary(ctx)
	c.log.add(callOther, start, time.Now(), 0, err)
	return sv, err
}

func (c *timedClient) Close(ctx context.Context) error {
	start := time.Now()
	err := c.inner.Close(ctx)
	c.log.add(callOther, start, time.Now(), 0, err)
	return err
}

// procSnapshot is the process state at one edge of the measured window.
type procSnapshot struct {
	at  time.Time
	cpu time.Duration
	mem runtime.MemStats
	// steal and total are the machine's stolen and total CPU ticks from
	// /proc/stat (zero where it cannot be read).
	steal, total int64
	// layer holds the traced phase's counters (nil when untraced).
	layer *layerSnapshot
}

func takeSnapshot(tr *tracer) (procSnapshot, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procSnapshot{}, fmt.Errorf("getrusage: %w", err)
	}
	s := procSnapshot{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	s.steal, s.total = cpuTicks()
	runtime.ReadMemStats(&s.mem)
	s.layer = tr.snapshot()
	s.at = time.Now()
	return s, nil
}

// users is the number of closed-loop users: two, or one on a single CPU.
func users() int { return min(2, runtime.NumCPU()) }

// The measured window is cut into slices of sliceLen, and the host's CPU
// steal is read at every slice edge. On a shared virtual machine a slice
// in which the hypervisor stole CPU time runs slow for reasons outside the
// program, so the wall-clock end-to-end metrics use only the calm slices:
// those with steal at most calmSteal, and never fewer than the calmest
// half. Set-up repetitions are chosen the same way.
const (
	sliceLen  = 2 * time.Second
	calmSteal = 0.02
)

// calmest returns, in ascending order, the indices of the samples whose
// steal is at most calmSteal, or of the calmest half when fewer are.
func calmest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	keep := (len(idx) + 1) / 2
	for keep < len(idx) && steal[idx[keep]] <= calmSteal {
		keep++
	}
	kept := idx[:keep]
	sort.Ints(kept)
	return kept
}

// stealShare is the share of the machine's CPU ticks stolen between two
// /proc/stat readings (0 where it cannot be read).
func stealShare(steal0, total0, steal1, total1 int64) float64 {
	if d := total1 - total0; d > 0 {
		return float64(steal1-steal0) / float64(d)
	}
	return 0
}

// phaseResult is what one driven phase measured.
type phaseResult struct {
	// edges are the snapshots at the measured window's slice edges; w0
	// and w1, the first and the last, open and close the window.
	edges  []procSnapshot
	w0, w1 procSnapshot
	calls  []call
	// sessions maps every completed session to its trace digest, and
	// spans to when it ran.
	sessions map[sessionKey]string
	spans    map[sessionKey]timeSpan
	problems []string
	// heapLiveMB is the mean of the live heap (as of the latest garbage
	// collection) over heapSamples taken across the window. The engine
	// cache churns at its record budget, so the heap at any one instant
	// swings widely.
	heapLiveMB  float64
	heapSamples []float64
}

// window reports whether a call ran entirely inside the measured window.
func (p *phaseResult) inWindow(c call) bool {
	return !c.start.Before(p.w0.at) && !c.end.After(p.w1.at)
}

// sliceSteal is the share of the machine's CPU time the hypervisor stole
// in each slice of the window: wall-clock metrics slow down with it.
func (p *phaseResult) sliceSteal() []float64 {
	out := make([]float64, len(p.edges)-1)
	for i := range out {
		a, b := p.edges[i], p.edges[i+1]
		out[i] = stealShare(a.steal, a.total, b.steal, b.total)
	}
	return out
}

// sliceOf returns the index of the window slice in which t falls, or -1
// outside the window. A slice holds its end edge, not its start.
func (p *phaseResult) sliceOf(t time.Time) int {
	if !t.After(p.w0.at) || t.After(p.w1.at) {
		return -1
	}
	return sort.Search(len(p.edges)-1, func(i int) bool { return !t.After(p.edges[i+1].at) })
}

// windowSeconds is the measured window's length.
func (p *phaseResult) windowSeconds() float64 { return p.w1.at.Sub(p.w0.at).Seconds() }

// windowSteps counts step displays completed inside the window.
func (p *phaseResult) windowSteps() int {
	n := 0
	for _, c := range p.calls {
		if !c.end.Before(p.w0.at) && !c.end.After(p.w1.at) {
			n += c.steps
		}
	}
	return n
}

// drive runs one phase: users() closed-loop users, each running
// fixed-length sessions back to back with no think time. The window opens
// after opt.Warmup and lasts opt.Measure, cut into slices of at most
// sliceLen; users then finish the session in hand and stop, so every
// recorded session is complete and comparable.
func drive(ctx context.Context, e *env, opt options, tr *tracer) (*phaseResult, error) {
	spec := e.spec
	base := e.factory()
	var stop atomic.Bool
	var done atomic.Int64
	logs := make([]*userLog, users())
	var wg sync.WaitGroup
	start := time.Now()
	for u := range logs {
		logs[u] = &userLog{sessions: make(map[sessionKey]string), spans: make(map[sessionKey]timeSpan)}
		wg.Add(1)
		go func(u int, log *userLog) {
			defer wg.Done()
			for k := 0; !stop.Load(); k++ {
				key := sessionKey{u, k}
				began := time.Now()
				factory := func(ctx context.Context, id int) (workload.Client, error) {
					t0 := time.Now()
					c, err := base(ctx, id)
					log.add(callOther, t0, time.Now(), 0, err)
					if err != nil {
						return nil, err
					}
					return &timedClient{inner: c, log: log, done: &done, tr: tr, key: key}, nil
				}
				res, err := workload.Run(ctx, workload.Config{
					Users:        1,
					Seed:         sessionSeed(opt.Seed, u, k),
					StepsPerUser: spec.SessionSteps,
					Mix:          spec.Mix,
					Mode:         spec.Mode,
					Record:       true,
				}, factory)
				if err != nil {
					log.problems = append(log.problems, fmt.Sprintf("session %s: %v", key, err))
					return
				}
				ur := res.Users[0]
				if ur.Failure != "" {
					log.problems = append(log.problems, fmt.Sprintf("session %s failed: %s", key, ur.Failure))
				}
				d, err := sessionDigest(ur.Records)
				if err != nil {
					log.problems = append(log.problems, fmt.Sprintf("session %s: %v", key, err))
					return
				}
				log.sessions[key] = d
				log.spans[key] = timeSpan{began, time.Now()}
			}
		}(u, logs[u])
	}

	ph := &phaseResult{sessions: make(map[sessionKey]string), spans: make(map[sessionKey]timeSpan)}
	var snapErr error
	// wait sleeps until the given time, sampling the live heap every
	// heapSampleEvery and logging progress every five seconds.
	var heap []float64
	wait := func(until time.Time) {
		next := time.Now().Add(5 * time.Second)
		for {
			d := time.Until(until)
			if d <= 0 {
				return
			}
			time.Sleep(min(d, heapSampleEvery))
			heap = append(heap, liveHeapMB())
			if time.Now().After(next) {
				next = next.Add(5 * time.Second)
				fmt.Fprintf(opt.Log, "stepbench: %5.1fs %6d steps, live heap %.0f MiB%s\n",
					time.Since(start).Seconds(), done.Load(), liveHeapMB(), e.cacheState())
			}
		}
	}
	wait(start.Add(opt.Warmup))
	edge, snapErr := takeSnapshot(tr)
	ph.edges = append(ph.edges, edge)
	heap = heap[:0]
	end := edge.at.Add(opt.Measure)
	for snapErr == nil && edge.at.Before(end) {
		wait(minTime(edge.at.Add(sliceLen), end))
		edge, snapErr = takeSnapshot(tr)
		ph.edges = append(ph.edges, edge)
	}
	ph.w0, ph.w1 = ph.edges[0], ph.edges[len(ph.edges)-1]
	ph.heapLiveMB, ph.heapSamples = mean(heap), heap
	stop.Store(true)
	wg.Wait()
	if snapErr != nil {
		return nil, snapErr
	}
	for _, l := range logs {
		ph.calls = append(ph.calls, l.calls...)
		ph.problems = append(ph.problems, l.problems...)
		for k, d := range l.sessions {
			ph.sessions[k] = d
			ph.spans[k] = l.spans[k]
		}
	}
	return ph, nil
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// heapSampleEvery is the live-heap sampling period in the window.
const heapSampleEvery = 100 * time.Millisecond

// liveHeapMB reads the heap that survived the latest garbage collection,
// without forcing one.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// cpuTicks reads the stolen and total CPU ticks from the first line of
// /proc/stat ("cpu user nice system idle iowait irq softirq steal ...").
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
