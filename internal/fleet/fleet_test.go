package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patty/internal/evalcache"
	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/ptest"
	"patty/internal/tuning"
)

// testProgram is the objective address the tests' searches carry.
const testProgram = "sha256:test-program"

// testSpace is the shared search space of these tests: a stepped
// dimension (so the Min- and start-anchored lattices differ) crossed
// with a dense one, and a pure objective with a unique minimum.
func testSpace() ([]tuning.Dim, map[string]int, tuning.Objective) {
	dims := []tuning.Dim{
		{Key: "x", Min: 0, Max: 6, Step: 2},
		{Key: "y", Min: 0, Max: 2},
	}
	start := map[string]int{"x": 3, "y": 1}
	obj := func(a map[string]int) float64 {
		return float64((6-a["x"])*(6-a["x"])*10 + (2-a["y"])*3)
	}
	return dims, start, obj
}

// countingHook adapts obj into a Worker objective hook that counts
// every real evaluation.
func countingHook(obj tuning.Objective, calls *atomic.Int64) func(json.RawMessage) (tuning.Objective, error) {
	return func(json.RawMessage) (tuning.Objective, error) {
		return func(a map[string]int) float64 {
			calls.Add(1)
			return obj(a)
		}, nil
	}
}

// startWorker runs a real fleet Worker on httptest and tears it down
// with the test.
func startWorker(t *testing.T, hook func(json.RawMessage) (tuning.Objective, error), cacheDir string) (string, *obs.Collector) {
	t.Helper()
	c := obs.New()
	var cache *evalcache.Store
	if cacheDir != "" {
		var err error
		cache, err = evalcache.Open(cacheDir, evalcache.Options{Collector: c})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cache.Close() })
	}
	svc := jobs.New(jobs.Options{Workers: 2, QueueDepth: 32, Collector: c})
	wk := NewWorker(svc, hook, cache, c)
	ts := httptest.NewServer(wk.Mux())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	return ts.URL, c
}

func TestDimValues(t *testing.T) {
	got := dimValues(tuning.Dim{Key: "x", Min: 0, Max: 10, Step: 3}, 5)
	want := []int{0, 2, 3, 5, 6, 8, 9, 10} // Min lattice ∪ start lattice ∪ {Min,Max}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dimValues = %v, want %v", got, want)
	}
	// A start outside the range contributes nothing.
	got = dimValues(tuning.Dim{Key: "x", Min: 0, Max: 4, Step: 2}, 99)
	if !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Fatalf("out-of-range start: %v", got)
	}
}

func TestSpaceSizeMatchesEnumerate(t *testing.T) {
	dims, start, _ := testSpace()
	configs := Enumerate(dims, start)
	if len(configs) != SpaceSize(dims, start) {
		t.Fatalf("SpaceSize = %d, Enumerate produced %d", SpaceSize(dims, start), len(configs))
	}
	seen := map[string]bool{}
	for _, a := range configs {
		key := tuning.AssignKey(a)
		if seen[key] {
			t.Fatalf("duplicate enumerated config %s", key)
		}
		seen[key] = true
	}
}

// TestEnumerateCoversTunerVisits is the superset property behind the
// replay: every configuration any stock tuner requests must be in the
// enumerated space, so the merged table answers the whole replay.
func TestEnumerateCoversTunerVisits(t *testing.T) {
	dims, start, obj := testSpace()
	enumerated := map[string]bool{}
	for _, a := range Enumerate(dims, start) {
		enumerated[tuning.AssignKey(a)] = true
	}
	tuners := []tuning.Tuner{
		tuning.LinearSearch{}, tuning.RandomSearch{Seed: 1},
		tuning.TabuSearch{}, tuning.NelderMead{},
	}
	for _, tn := range tuners {
		var missed []string
		rec := func(a map[string]int) float64 {
			if key := tuning.AssignKey(a); !enumerated[key] {
				missed = append(missed, key)
			}
			return obj(a)
		}
		tn.TuneCtx(context.Background(), dims, start, rec, 300)
		if len(missed) > 0 {
			t.Errorf("%s visited configs outside the enumerated space: %v", tn.Name(), missed)
		}
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	dims, start, _ := testSpace()
	configs := Enumerate(dims, start)

	// Space smaller than the worker count: fewer shards than workers is
	// fine, the extras just idle.
	few := Partition(configs[:3], 1, nil)
	if len(few) != 3 {
		t.Fatalf("3 configs at size 1: %d shards", len(few))
	}
	// One big shard when the size exceeds the space.
	if one := Partition(configs, len(configs)*2, nil); len(one) != 1 || len(one[0].Configs) != len(configs) {
		t.Fatalf("oversized shard split wrong: %+v", one)
	}
	// Quarantined configs spanning what would be a shard boundary are
	// excluded before slicing: boundaries shift, no shard carries them.
	exclude := map[string]bool{
		tuning.AssignKey(configs[1]): true,
		tuning.AssignKey(configs[2]): true,
	}
	shards := Partition(configs[:6], 2, exclude)
	if len(shards) != 2 {
		t.Fatalf("exclusion across boundary: %d shards, want 2", len(shards))
	}
	total := 0
	for i, sh := range shards {
		if sh.ID != i {
			t.Fatalf("shard ids not dense: %+v", shards)
		}
		for _, a := range sh.Configs {
			if exclude[tuning.AssignKey(a)] {
				t.Fatalf("excluded config leaked into shard %d", sh.ID)
			}
			total++
		}
	}
	if total != 4 {
		t.Fatalf("partition carried %d configs, want 4", total)
	}
	// Everything excluded: zero shards.
	all := map[string]bool{}
	for _, a := range configs {
		all[tuning.AssignKey(a)] = true
	}
	if s := Partition(configs, 2, all); len(s) != 0 {
		t.Fatalf("fully excluded space still produced %d shards", len(s))
	}
	// size <= 0 is clamped to 1.
	if s := Partition(configs[:2], 0, nil); len(s) != 2 {
		t.Fatalf("size 0: %d shards", len(s))
	}
}

// TestTuneDeterministicAcrossWorkerCounts is the tentpole property:
// with a fixed seed the merged result at 1, 2 and 4 workers is
// bit-identical to the uninterrupted single-process run, for every
// stock tuner, and every configuration is evaluated exactly once
// across the whole fleet.
func TestTuneDeterministicAcrossWorkerCounts(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	for _, tn := range []tuning.Tuner{tuning.LinearSearch{}, tuning.TabuSearch{}, tuning.RandomSearch{Seed: 1}} {
		ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%dw", tn.Name(), n), func(t *testing.T) {
				var calls atomic.Int64
				var urls []string
				for i := 0; i < n; i++ {
					url, _ := startWorker(t, countingHook(obj, &calls), "")
					urls = append(urls, url)
				}
				res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
					Program:        testProgram,
					Workers:        urls,
					LocalObjective: obj,
					ShardSize:      2,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("fleet result diverged:\n got %+v\nwant %+v", res, ref)
				}
				if st.LocalEvals != 0 {
					t.Fatalf("replay missed the table %d times", st.LocalEvals)
				}
				if int(calls.Load()) != SpaceSize(dims, start) {
					t.Fatalf("workers evaluated %d configs, space is %d", calls.Load(), SpaceSize(dims, start))
				}
			})
		}
	}
}

// TestTuneWarmCacheBitIdentical is the determinism gate for the shared
// evaluation store: a search run against a warm cache must produce the
// bit-identical Result of a cold run — and do so without measuring a
// single configuration or dispatching a single shard, because the
// pre-filter answers the entire enumerated space from the store. A
// faulting objective must read its faults back as faults.
func TestTuneWarmCacheBitIdentical(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, pure := testSpace()
	faulting := func(a map[string]int) float64 {
		if a["y"] == 1 || a["x"] == 6 { // the optimum faults
			return math.Inf(1)
		}
		return pure(a)
	}
	for _, tc := range []struct {
		name string
		obj  tuning.Objective
	}{{"pure", pure}, {"faulting", faulting}} {
		t.Run(tc.name, func(t *testing.T) {
			tn := tuning.LinearSearch{}
			dir := filepath.Join(t.TempDir(), "cas")

			// Cold run: workers measure everything; complete() records each
			// merged record in the store.
			cold, err := evalcache.Open(dir, evalcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var coldCalls atomic.Int64
			urlCold, _ := startWorker(t, countingHook(tc.obj, &coldCalls), "")
			opts := Options{
				Workers:        []string{urlCold},
				LocalObjective: tc.obj,
				Cache:          cold,
				Program:        testProgram,
				Seed:           7,
			}
			resCold, stCold, err := Tune(context.Background(), tn, dims, start, 120, opts)
			if err != nil {
				t.Fatal(err)
			}
			if stCold.CacheHits != 0 {
				t.Fatalf("cold run reported %d cache hits", stCold.CacheHits)
			}
			if cold.Len() != SpaceSize(dims, start) {
				t.Fatalf("store holds %d entries after the cold run, space is %d", cold.Len(), SpaceSize(dims, start))
			}
			if err := cold.Close(); err != nil {
				t.Fatal(err)
			}

			// Warm run: a fresh process ("restart") over the same directory.
			warm, err := evalcache.Open(dir, evalcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer warm.Close()
			var warmCalls atomic.Int64
			urlWarm, _ := startWorker(t, countingHook(tc.obj, &warmCalls), "")
			opts.Workers = []string{urlWarm}
			opts.Cache = warm
			resWarm, stWarm, err := Tune(context.Background(), tn, dims, start, 120, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resWarm, resCold) {
				t.Fatalf("warm-cache result diverged from cold:\n got %+v\nwant %+v", resWarm, resCold)
			}
			if !reflect.DeepEqual(stWarm.Quarantined, stCold.Quarantined) {
				t.Fatalf("warm run quarantined %v, cold %v", stWarm.Quarantined, stCold.Quarantined)
			}
			if warmCalls.Load() != 0 {
				t.Fatalf("warm run re-measured %d configs", warmCalls.Load())
			}
			if stWarm.CacheHits != SpaceSize(dims, start) {
				t.Fatalf("warm run hit %d of %d configs", stWarm.CacheHits, SpaceSize(dims, start))
			}
			if stWarm.Shards != 0 {
				t.Fatalf("warm run still dispatched %d shards", stWarm.Shards)
			}
			if stWarm.LocalEvals != 0 {
				t.Fatalf("warm replay missed the table %d times", stWarm.LocalEvals)
			}

			// The reference: the plain tuner, no fleet, no store.
			refStep := &tuning.Step{}
			ref := tn.TuneCtx(context.Background(), dims, start, refStep.Objective(tc.obj), 120)
			if !reflect.DeepEqual(resWarm, ref) || !reflect.DeepEqual(stWarm.Quarantined, refStep.Quarantined()) {
				t.Fatalf("warm fleet run %+v (quarantined %v) != plain tuner %+v (quarantined %v)",
					resWarm, stWarm.Quarantined, ref, refStep.Quarantined())
			}
			if tc.name == "faulting" && len(stWarm.Quarantined) == 0 {
				t.Fatal("faulting objective: the search met no fault")
			}
		})
	}
}

// TestLeaseExpiryRedispatch: a worker that hangs forever loses its
// lease at the TTL; the shard is re-dispatched to the surviving worker
// and the hung worker is benched, without changing the result.
func TestLeaseExpiryRedispatch(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)

	hangRelease := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select { // never answers; the lease TTL must fire
		case <-r.Context().Done():
		case <-hangRelease:
		}
	}))
	defer func() {
		close(hangRelease)
		hang.Close()
		http.DefaultClient.CloseIdleConnections()
	}()
	slowObj := func(a map[string]int) float64 {
		time.Sleep(2 * time.Millisecond)
		return obj(a)
	}
	var calls atomic.Int64
	good, _ := startWorker(t, countingHook(slowObj, &calls), "")

	res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Program:         testProgram,
		Workers:         []string{hang.URL, good},
		LocalObjective:  obj,
		ShardSize:       3,
		LeaseTTL:        150 * time.Millisecond,
		StealAfter:      time.Hour, // redispatch, not speculation, must recover it
		WorkerFailLimit: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("result diverged after lease expiry:\n got %+v\nwant %+v", res, ref)
	}
	if st.Redispatched < 1 {
		t.Fatalf("expired lease never re-dispatched: %+v", st)
	}
	if st.WorkersLost != 1 {
		t.Fatalf("hung worker not benched: %+v", st)
	}
}

// TestStealFirstResultWins: an idle worker speculatively duplicates the
// straggler's shard; the first answer wins and the loser's evaluations
// are deduplicated.
func TestStealFirstResultWins(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)

	straggle := func(d time.Duration) func(json.RawMessage) (tuning.Objective, error) {
		return func(json.RawMessage) (tuning.Objective, error) {
			return func(a map[string]int) float64 {
				time.Sleep(d)
				return obj(a)
			}, nil
		}
	}
	slow, _ := startWorker(t, straggle(80*time.Millisecond), "")
	fast, _ := startWorker(t, straggle(2*time.Millisecond), "")

	res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Program:        testProgram,
		Workers:        []string{slow, fast},
		LocalObjective: obj,
		ShardSize:      (SpaceSize(dims, start) + 1) / 2, // exactly two shards
		LeaseTTL:       30 * time.Second,
		StealAfter:     30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("result diverged under stealing:\n got %+v\nwant %+v", res, ref)
	}
	if st.Stolen < 1 {
		t.Fatalf("idle worker never stole the straggler's shard: %+v", st)
	}
	if st.Duplicates < 1 {
		t.Fatalf("steal loser's evaluations not deduplicated: %+v", st)
	}
	if st.Merged != SpaceSize(dims, start) {
		t.Fatalf("merged %d evals, space is %d", st.Merged, SpaceSize(dims, start))
	}
}

// TestAllConfigsFaultedAcrossShards: when every configuration faults on
// every worker, the shards merge their faulted records and the replay
// aggregates them into the same ErrAllConfigsFaulted a local run
// reports.
func TestAllConfigsFaultedAcrossShards(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, _ := testSpace()
	tn := tuning.LinearSearch{}
	faulty := func(map[string]int) float64 { return math.Inf(1) }

	refStep := &tuning.Step{}
	ref := tn.TuneCtx(context.Background(), dims, start, refStep.Objective(faulty), 120)
	if !errors.Is(ref.Err, tuning.ErrAllConfigsFaulted) || len(refStep.Quarantined()) == 0 {
		t.Fatalf("reference run: %v, quarantined %v", ref.Err, refStep.Quarantined())
	}

	var calls atomic.Int64
	w1, _ := startWorker(t, countingHook(faulty, &calls), "")
	w2, _ := startWorker(t, countingHook(faulty, &calls), "")
	res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Program:        testProgram,
		Workers:        []string{w1, w2},
		LocalObjective: faulty,
		ShardSize:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, tuning.ErrAllConfigsFaulted) {
		t.Fatalf("fleet run did not aggregate the all-faulted verdict: %+v", res)
	}
	if res.Evaluations != ref.Evaluations || !math.IsInf(res.BestCost, 1) {
		t.Fatalf("fleet all-faulted result %+v != reference %+v", res, ref)
	}
	if !reflect.DeepEqual(st.Quarantined, refStep.Quarantined()) {
		t.Fatalf("fleet quarantined %v, reference %v", st.Quarantined, refStep.Quarantined())
	}
}

// TestCoordinatorCrashResume: a first coordinator merges part of the
// space into its checkpoint and dies (all workers lost); a second
// coordinator on the same checkpoint re-adopts the merged prefix,
// leases only the remainder, and finishes with the uninterrupted
// result.
func TestCoordinatorCrashResume(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	// A worker that answers its first two shards, then hangs forever.
	var served atomic.Int64
	flakyRelease := make(chan struct{})
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 2 {
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-flakyRelease:
			}
			return
		}
		var req ShardRequest
		if !DecodeJSON(w, r, MaxBodyBytes, &req) {
			return
		}
		resp := ShardResponse{Shard: req.Shard}
		for _, a := range req.Configs {
			resp.Evals = append(resp.Evals, tuning.EvalRecord{Assignment: a, Cost: obj(a)})
		}
		WriteJSON(w, http.StatusOK, resp)
	}))
	defer func() {
		close(flakyRelease)
		flaky.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	_, st1, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Program:         testProgram,
		Workers:         []string{flaky.URL},
		LocalObjective:  obj,
		Checkpoint:      ckpt,
		ShardSize:       3,
		LeaseTTL:        150 * time.Millisecond,
		StealAfter:      time.Hour,
		WorkerFailLimit: 1,
	})
	if err == nil {
		t.Fatal("first coordinator must fail once its only worker is lost")
	}
	if st1.Merged < 3 {
		t.Fatalf("first coordinator merged %d evals before dying, want >= one shard", st1.Merged)
	}

	// Second coordinator, healthy worker, same checkpoint.
	var calls atomic.Int64
	good, _ := startWorker(t, countingHook(obj, &calls), "")
	res, st2, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Program:        testProgram,
		Workers:        []string{good},
		LocalObjective: obj,
		Checkpoint:     ckpt,
		ShardSize:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("resumed fleet result diverged:\n got %+v\nwant %+v", res, ref)
	}
	if st2.Resumed != st1.Merged {
		t.Fatalf("resumed %d evals, first run merged %d", st2.Resumed, st1.Merged)
	}
	space := SpaceSize(dims, start)
	if int(calls.Load()) != space-st1.Merged {
		t.Fatalf("second run re-evaluated the merged prefix: %d worker evals for %d remaining configs",
			calls.Load(), space-st1.Merged)
	}
	// The fleet checkpoint is a plain tuning checkpoint: a local search
	// resumes it without re-measuring anything.
	ck, resumed, err := tuning.NewCheckpointer(ckpt, tuning.SearchMeta{
		Algo: tn.Name(), Budget: 120, Dims: dims, Start: start,
		Objective: tuning.ObjectiveID(testProgram, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != space {
		t.Fatalf("local resume sees %d journaled evals, space is %d", resumed, space)
	}
	localRes := tn.TuneCtx(context.Background(), dims, start, (&tuning.Step{Journal: ck}).Objective(func(map[string]int) float64 {
		t.Fatal("local resume re-measured a configuration")
		return 0
	}), 120)
	if tuning.AssignKey(localRes.Best) != tuning.AssignKey(ref.Best) || localRes.BestCost != ref.BestCost {
		t.Fatalf("local resume of the fleet checkpoint diverged: %+v", localRes)
	}
}

// TestWorkerIntakeHardening: the worker's POST intake refuses non-JSON
// content types (415), oversized bodies (413), malformed JSON (400),
// empty shards (400), and answers overload with 503 plus a Retry-After
// from the intake breaker.
func TestWorkerIntakeHardening(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	_, _, obj := testSpace()
	release := make(chan struct{})
	blocking := func(json.RawMessage) (tuning.Objective, error) {
		return func(a map[string]int) float64 {
			<-release
			return obj(a)
		}, nil
	}
	c := obs.New()
	svc := jobs.New(jobs.Options{Workers: 1, QueueDepth: 1, Collector: c})
	wk := NewWorker(svc, blocking, nil, c)
	ts := httptest.NewServer(wk.Mux())
	var unblock sync.Once
	defer func() {
		unblock.Do(func() { close(release) }) // a failed check must not hang Close
		ts.Close()
		svc.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	shard := `{"search":"s","shard":0,"program":"p","configs":[{"x":1}]}`
	post := func(body, ct string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/shards", ct, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(shard, "text/plain"); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("non-JSON content type: HTTP %d, want 415", resp.StatusCode)
	}
	big := `{"search":"s","configs":[{"x":` + string(bytes.Repeat([]byte("1"), MaxBodyBytes+16)) + `}]}`
	if resp := post(big, "application/json"); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
	if resp := post(`{"search":`, "application/json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"search":"s","program":"p","configs":[]}`, "application/json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty shard: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := post(`{"search":"s","configs":[{"x":1}]}`, "application/json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("shard without a program address: HTTP %d, want 400", resp.StatusCode)
	}

	// Fill the service: one shard running, one queued; the third sheds
	// with 503 and the breaker-backed Retry-After. The second shard is
	// sent only once the first runs: sent together, both could reach
	// the one-slot queue before the worker takes the first, and the
	// second would shed instead.
	inflight := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/shards", "application/json", bytes.NewReader([]byte(shard)))
			if err == nil {
				resp.Body.Close()
			}
			inflight <- struct{}{}
		}()
		deadline := time.Now().Add(5 * time.Second)
		for snap := c.Snapshot(); snap.Counters["jobs.submitted"] < int64(i+1) || snap.Gauges["jobs.running"] < 1; snap = c.Snapshot() {
			if time.Now().After(deadline) {
				t.Fatalf("blocking shard %d never admitted", i)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	resp := post(shard, "application/json")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload: HTTP %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("503 Retry-After = %q, want >= 1 second", ra)
	}
	unblock.Do(func() { close(release) })
	<-inflight
	<-inflight
}

// TestWorkerCacheResume: a worker restarted with the same cache
// directory answers repeated configurations from its journal instead of
// re-measuring them.
func TestWorkerCacheResume(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	dir := t.TempDir()
	configs := Enumerate(dims, start)[:5]
	req, _ := json.Marshal(ShardRequest{Search: "cache-test", Shard: 0, Program: testProgram, Configs: configs})

	var calls1 atomic.Int64
	url1, _ := startWorker(t, countingHook(obj, &calls1), dir)
	resp1, err := http.Post(url1+"/shards", "application/json", bytes.NewReader(req))
	if err != nil || resp1.StatusCode != http.StatusOK {
		t.Fatalf("first shard: %v HTTP %v", err, resp1)
	}
	var sr1 ShardResponse
	json.NewDecoder(resp1.Body).Decode(&sr1)
	resp1.Body.Close()
	if int(calls1.Load()) != len(configs) || len(sr1.Evals) != len(configs) {
		t.Fatalf("first worker measured %d, answered %d", calls1.Load(), len(sr1.Evals))
	}

	// "Restart": a fresh Worker over the same cache directory.
	var calls2 atomic.Int64
	url2, c2 := startWorker(t, countingHook(obj, &calls2), dir)
	resp2, err := http.Post(url2+"/shards", "application/json", bytes.NewReader(req))
	if err != nil || resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed shard: %v HTTP %v", err, resp2)
	}
	var sr2 ShardResponse
	json.NewDecoder(resp2.Body).Decode(&sr2)
	resp2.Body.Close()
	if calls2.Load() != 0 {
		t.Fatalf("restarted worker re-measured %d configs", calls2.Load())
	}
	if !reflect.DeepEqual(sr1.Evals, sr2.Evals) {
		t.Fatalf("journal replay diverged:\n got %+v\nwant %+v", sr2.Evals, sr1.Evals)
	}
	if hits := c2.Snapshot().Counters["cache.hits"]; int(hits) != len(configs) {
		t.Fatalf("cache.hits = %d, want %d", hits, len(configs))
	}
	// The old ad-hoc counter is gone: fleet hit accounting lives in the
	// shared cache.* grammar now.
	if stale := c2.Snapshot().Counters["fleet.worker.cache_hits"]; stale != 0 {
		t.Fatalf("stale fleet.worker.cache_hits counter still published: %d", stale)
	}
}

// TestTuneInputValidation: no workers, missing objective, and an
// oversized space are refused up front.
func TestTuneInputValidation(t *testing.T) {
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	if _, _, err := Tune(context.Background(), tn, dims, start, 10, Options{LocalObjective: obj}); err == nil {
		t.Fatal("no workers must be an error")
	}
	if _, _, err := Tune(context.Background(), tn, dims, start, 10, Options{Workers: []string{"http://x"}}); err == nil {
		t.Fatal("missing LocalObjective must be an error")
	}
	if _, _, err := Tune(context.Background(), tn, dims, start, 10, Options{
		Workers: []string{"http://x"}, LocalObjective: obj,
	}); err == nil {
		t.Fatal("missing Program must be an error")
	}
	if _, _, err := Tune(context.Background(), tn, dims, start, 10, Options{
		Workers: []string{"http://x"}, LocalObjective: obj, Program: testProgram, MaxSpace: 3,
	}); err == nil {
		t.Fatal("oversized space must be refused")
	}
}
