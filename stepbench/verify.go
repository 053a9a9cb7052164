package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"subdex/internal/core"
	"subdex/internal/dataset"
	"subdex/internal/workload"
)

// compareDigests lists every session whose digest differs between two
// runs of the same seed; sessions present in only one of them are not
// compared.
func compareDigests(what string, want, got map[sessionKey]string) []string {
	var out []string
	for _, k := range sortedSessionKeys(got) {
		if w, ok := want[k]; ok && w != got[k] {
			out = append(out, fmt.Sprintf("%s: session %s digest %s, want %s", what, k, got[k], w))
		}
	}
	return out
}

func sortedSessionKeys(m map[sessionKey]string) []sessionKey {
	keys := make([]sessionKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].k != keys[j].k {
			return keys[i].k < keys[j].k
		}
		return keys[i].user < keys[j].user
	})
	return keys
}

// replaySpread is how many sessions, spread evenly over the run, the
// reference replay aims to check besides the ones it always checks.
const replaySpread = 8

// replayPlan chooses the sessions the reference replay checks. must holds,
// for every user, the last session, which ran at the end of the measured
// window with the engine cache full, evicting and shared between users,
// and the last session that ran wholly inside the window. spread holds
// sessions at an even stride through the run, from warm-up to the end.
func replayPlan(ph *phaseResult) (must, spread []sessionKey) {
	last := map[int]sessionKey{}
	inside := map[int]sessionKey{}
	keys := sortedSessionKeys(ph.sessions)
	for _, k := range keys {
		last[k.user] = k
		if sp := ph.spans[k]; !sp.start.Before(ph.w0.at) && !sp.end.After(ph.w1.at) {
			inside[k.user] = k
		}
	}
	chosen := map[sessionKey]bool{}
	add := func(list *[]sessionKey, k sessionKey) {
		if !chosen[k] {
			chosen[k] = true
			*list = append(*list, k)
		}
	}
	for _, k := range keys {
		if last[k.user] == k || inside[k.user] == k {
			add(&must, k)
		}
	}
	stride := max(1, len(keys)/replaySpread)
	for i := 0; i < len(keys); i += stride {
		add(&spread, keys[i])
	}
	return must, spread
}

// replayReference re-runs sessions of the phase sequentially in-process,
// on a fresh explorer whose cross-step engine cache is disabled, and
// returns their digests. That reference shares no cache, no concurrency
// and (for the HTTP workload) no transport or store with the measured
// run. Every session in must replays; those in spread replay in order
// until the budget is spent.
func replayReference(ctx context.Context, db *dataset.DB, spec workloadSpec, opt options, must, spread []sessionKey) (map[sessionKey]string, error) {
	cfg := servedConfig()
	cfg.EngineCacheRecords = -1
	ex, err := core.NewExplorer(db, cfg)
	if err != nil {
		return nil, err
	}
	out := make(map[sessionKey]string)
	start := time.Now()
	for i, key := range append(must[:len(must):len(must)], spread...) {
		if i >= len(must) && time.Since(start) > opt.ReplayBudget {
			break
		}
		res, err := workload.Run(ctx, workload.Config{
			Users:        1,
			Seed:         sessionSeed(opt.Seed, key.user, key.k),
			StepsPerUser: spec.SessionSteps,
			Mix:          spec.Mix,
			Mode:         spec.Mode,
			Record:       true,
		}, workload.InprocFactory(ex, spec.Mode, ""))
		if err != nil {
			return nil, err
		}
		if f := res.Users[0].Failure; f != "" {
			return nil, fmt.Errorf("reference replay of session %s failed: %s", key, f)
		}
		d, err := sessionDigest(res.Users[0].Records)
		if err != nil {
			return nil, err
		}
		out[key] = d
	}
	return out, nil
}

// digestRecordPath names the file that keeps every digest seen for one
// (workload, seed) across runs in a checkout, so a later run — traced or
// not — is checked against earlier ones.
func digestRecordPath(opt options, spec workloadSpec, scale float64) string {
	return filepath.Join(buildDir(opt.Root), "digests",
		fmt.Sprintf("%s-s%g-data%d-seed%d.json", spec.Name, scale, datasetSeed, opt.Seed))
}

// checkDigestRecord compares the phase's digests with the recorded ones,
// then adds the new sessions to the record.
func checkDigestRecord(path string, got map[sessionKey]string) ([]string, error) {
	rec := map[string]string{}
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, err
	default:
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("digest record %s: %w", path, err)
		}
	}
	var problems []string
	for _, k := range sortedSessionKeys(got) {
		if w, ok := rec[k.String()]; ok && w != got[k] {
			problems = append(problems, fmt.Sprintf("earlier run: session %s digest %s, want %s", k, got[k], w))
		} else if !ok {
			rec[k.String()] = got[k]
		}
	}
	out, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return nil, err
	}
	return problems, os.Rename(tmp, path)
}
