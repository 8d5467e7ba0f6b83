package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"patty/internal/corpus"
	"patty/internal/evalcache"
	"patty/internal/jobs"
	"patty/internal/obs"
)

// TestRunTuneWarmCacheBitIdentical is the CLI half of the determinism
// gate: a `patty tune -cache-dir` run answered from a warm store must
// produce the bit-identical outcome of a cache-free run of the same
// spec. The store is warmed by a cold run of the same spec or, over
// the same objective, of another algorithm; a faulting objective must
// read its faults back as faults, never as cost 0.
func TestRunTuneWarmCacheBitIdentical(t *testing.T) {
	faulting := tuneSpec{Algo: "tabu", Budget: 120, Cores: 8, FaultRate: 10, FaultSeed: 3}
	linear := faulting
	linear.Algo = "linear"
	for _, tc := range []struct {
		name       string
		cold, warm tuneSpec
	}{
		{"linear", tuneSpec{Algo: "linear", Budget: 60, Cores: 8}, tuneSpec{Algo: "linear", Budget: 60, Cores: 8}},
		{"faulting", faulting, faulting},
		{"linear_then_tabu", linear, faulting},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cas")
			want, err := runTune(context.Background(), tc.warm)
			if err != nil {
				t.Fatal(err)
			}
			before := metrics.Snapshot().Counters["cache.hits"]
			cold := tc.cold
			cold.CacheDir = dir
			if _, err := runTune(context.Background(), cold); err != nil {
				t.Fatal(err)
			}
			if d := metrics.Snapshot().Counters["cache.hits"] - before; d != 0 {
				t.Fatalf("cold run hit the cache %d times", d)
			}
			warm := tc.warm
			warm.CacheDir = dir
			got, err := runTune(context.Background(), warm)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("warm outcome diverged from the cache-free run:\n got %+v\nwant %+v", got, want)
			}
			if d := metrics.Snapshot().Counters["cache.hits"] - before; d == 0 {
				t.Fatal("warm run never hit the cache")
			}
			if tc.cold.Algo == tc.warm.Algo {
				if d := metrics.Snapshot().Counters["cache.hits"] - before; d < int64(want.Evaluations) {
					t.Fatalf("warm run hit only %d of %d evaluations", d, want.Evaluations)
				}
			}
			if tc.warm.FaultRate > 0 && (len(want.Quarantined) == 0 || want.Cost != 81993) {
				t.Fatalf("faulting reference: cost %.0f, quarantined %v; want 81993 and a non-empty set",
					want.Cost, want.Quarantined)
			}
		})
	}
}

// TestTuneCacheIdentity pins what the workload address does and does
// not depend on.
func TestTuneCacheIdentity(t *testing.T) {
	base := tuneSpec{Algo: "linear", Budget: 60, Cores: 8, FaultSeed: 3}
	prog, seed := base.cacheIdentity()
	if prog == "" {
		t.Fatal("empty identity")
	}
	if seed != 3 {
		t.Fatalf("seed slot = %d, want FaultSeed 3", seed)
	}

	delayed := base
	delayed.EvalDelayMs = 50
	if p, _ := delayed.cacheIdentity(); p != prog {
		t.Fatal("EvalDelayMs changed the identity; a kill-harness run should warm the plain cache")
	}
	algo := base
	algo.Algo = "tabu" // the algorithm walks the space, it doesn't define costs
	if p, _ := algo.cacheIdentity(); p != prog {
		t.Fatal("Algo changed the workload identity")
	}
	cores := base
	cores.Cores = 4
	if p, _ := cores.cacheIdentity(); p == prog {
		t.Fatal("Cores did not change the identity, but it changes every cost")
	}
	faulty := base
	faulty.FaultRate = 20
	if p, _ := faulty.cacheIdentity(); p == prog {
		t.Fatal("FaultRate did not change the identity, but it changes which configs fault")
	}
}

// TestJobCacheKey pins the serve-level address: semantics in, noise
// out.
func TestJobCacheKey(t *testing.T) {
	req := jobRequest{Kind: "study", Seed: 5, Tenant: "alice"}
	k1, ok := jobCacheKey(req)
	if !ok {
		t.Fatal("study job not cacheable")
	}
	req.Tenant = "bob"
	if k2, _ := jobCacheKey(req); k2 != k1 {
		t.Fatal("tenant leaked into the job address")
	}
	req.Seed = 6
	if k3, _ := jobCacheKey(req); k3 == k1 {
		t.Fatal("seed did not change the job address")
	}
	if _, ok := jobCacheKey(jobRequest{Kind: "bench", SleepMs: 5}); ok {
		t.Fatal("bench jobs must never be memoized")
	}

	// A program travels by canonical hash: reformatting and comments
	// keep the address; a different program changes it.
	src := corpus.All()[0].Source
	a := jobRequest{Kind: "tune", Sources: map[string]string{"p.go": src}}
	b := jobRequest{Kind: "tune", Sources: map[string]string{"p.go": "// resubmitted\n" + src}}
	ka, ok := jobCacheKey(a)
	if !ok {
		t.Fatal("tune job with sources not cacheable")
	}
	kb, _ := jobCacheKey(b)
	if ka != kb {
		t.Fatal("a comment changed the program address")
	}
	c := jobRequest{Kind: "tune", Sources: map[string]string{"p.go": corpus.All()[1].Source}}
	if kc, _ := jobCacheKey(c); kc == ka {
		t.Fatal("distinct programs share an address")
	}
}

// TestServeJobMemoization drives runnerFor the way handleSubmit and
// recovery do: the first run executes and records, the identical
// resubmission — other tenant, other server instance, reopened store —
// answers the recorded bytes without running. Two jobs take that path:
// a study job resubmitted verbatim, and a tune job about a corpus
// program resubmitted with comment lines added to its sources, which
// only the canonical program hash can match.
func TestServeJobMemoization(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cas")
	cache, err := evalcache.Open(dir, evalcache.Options{Collector: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	svc := jobs.New(jobs.Options{Workers: 1, QueueDepth: 4})
	defer svc.Close()
	srv := newServer(svc, "")
	srv.cache = cache

	p := corpus.All()[0]
	tune := jobRequest{Kind: "tune", Tenant: "alice",
		Sources:  map[string]string{p.Name + ".go": p.Source},
		tuneSpec: tuneSpec{Algo: "linear", Budget: 60, Cores: 4}}
	perturbed := tune
	perturbed.Tenant = "bob"
	perturbed.Sources = map[string]string{
		p.Name + ".go": "// resubmitted by bob\n" + p.Source + "\n// end of resubmission\n"}
	cases := []struct {
		name       string
		first, dup jobRequest
	}{
		{"study", jobRequest{Kind: "study", Seed: 5, Tenant: "alice"}, jobRequest{Kind: "study", Seed: 5, Tenant: "bob"}},
		{"tune", tune, perturbed},
	}
	answer := func(srv *server, req jobRequest) any {
		t.Helper()
		run, _, err := srv.runnerFor(req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := make([][]byte, len(cases))
	for i, c := range cases {
		inserts := cache.Stats().Inserts
		if want[i], err = json.Marshal(answer(srv, c.first)); err != nil {
			t.Fatal(err)
		}
		// A study job records only its answer; a tune job also records
		// each configuration it measured.
		if d := cache.Stats().Inserts - inserts; d == 0 || (c.first.Kind == "study" && d != 1) {
			t.Fatalf("%s: first run recorded %d entries", c.name, d)
		}

		// The resubmission, from another tenant: served from the
		// shared store with one hit and no evaluation.
		hits := cache.Stats().Hits
		raw, ok := answer(srv, c.dup).(json.RawMessage)
		if !ok {
			t.Fatalf("%s: resubmission was not answered from the store", c.name)
		}
		if string(raw) != string(want[i]) {
			t.Fatalf("%s: cached bytes differ:\n got %s\nwant %s", c.name, raw, want[i])
		}
		if d := cache.Stats().Hits - hits; d != 1 {
			t.Fatalf("%s: resubmission made %d hit(s), want 1", c.name, d)
		}
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new server over a reopened store still answers.
	cache2, err := evalcache.Open(dir, evalcache.Options{Collector: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	srv2 := newServer(svc, "")
	srv2.cache = cache2
	for i, c := range cases {
		raw, ok := answer(srv2, c.dup).(json.RawMessage)
		if !ok || string(raw) != string(want[i]) {
			t.Fatalf("%s: post-restart answer diverged: %s", c.name, raw)
		}
	}
}
