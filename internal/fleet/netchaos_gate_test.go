package fleet

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"patty/internal/jobs"
	"patty/internal/netchaos"
	"patty/internal/obs"
	"patty/internal/ptest"
	"patty/internal/seed"
	"patty/internal/tuning"
)

// startChaosWorker is startWorker with the injector's server-side
// faults (throttle, latency, drop) wrapped around the mux.
func startChaosWorker(t *testing.T, hook func(json.RawMessage) (tuning.Objective, error), inj *netchaos.Injector) string {
	t.Helper()
	c := obs.New()
	svc := jobs.New(jobs.Options{Workers: 2, QueueDepth: 32, Collector: c})
	wk := NewWorker(svc, hook, nil, c)
	ts := httptest.NewServer(inj.Middleware(wk.Mux()))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	return ts.URL
}

// liarHandler answers the shard protocol correctly but lies about
// costs: every configuration for which lie(req, index) is true reports
// a plausible, finite, silently wrong cost. It is the adversary the
// byzantine audit exists for — no transport check can tell its answers
// from honest ones.
func liarHandler(obj tuning.Objective, lie func(req ShardRequest, idx int) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if !DecodeJSON(w, r, MaxBodyBytes, &req) {
			return
		}
		resp := ShardResponse{Shard: req.Shard}
		for i, a := range req.Configs {
			cost := obj(a)
			if lie(req, i) {
				cost = cost*3 + 17
			}
			resp.Evals = append(resp.Evals, tuning.EvalRecord{Assignment: a, Cost: cost})
		}
		WriteJSON(w, http.StatusOK, resp)
	})
}

// TestNetChaosByzantineGate is the `make netchaos` tentpole gate: a
// real multi-worker search where the coordinator's client runs through
// the seeded wire-fault injector (latency, drops, timeouts, truncated
// bodies, corrupted JSON, duplicated requests, reordered responses,
// timed partitions), the honest workers' servers inject throttles and
// aborts, and a third worker lies about every cost. The fleet must
// quarantine the liar, finish, and produce a result bit-identical to
// the uninterrupted local reference — with every fault class
// observably fired.
//
// Catching the liar requires one of its responses to survive the wire
// (a lie that never arrives intact is indistinguishable from a dead
// worker), so the adversarial schedule is retried a couple of times if
// fault starvation kept the liar from ever answering cleanly; the
// result-identity and coverage requirements hold on every attempt.
func TestNetChaosByzantineGate(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.TabuSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)

	c := obs.New()
	inj := netchaos.New(netchaos.GatePlan()).Instrument(c)

	// Two honest-but-slow workers behind the server-side injector; the
	// liar is fast and chaos-free on its own server, so it competes
	// hard for shards — the audit, not luck, has to stop it.
	slowHook := func(json.RawMessage) (tuning.Objective, error) {
		return func(a map[string]int) float64 {
			time.Sleep(2 * time.Millisecond)
			return obj(a)
		}, nil
	}
	honest1 := startChaosWorker(t, slowHook, inj)
	honest2 := startChaosWorker(t, slowHook, inj)
	liar := httptest.NewServer(liarHandler(obj, func(ShardRequest, int) bool { return true }))
	defer func() {
		liar.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	var st *Stats
	for attempt := 0; attempt < 3; attempt++ {
		res, stats, err := Tune(context.Background(), tn, dims, start, 120, Options{
			Program:         testProgram,
			Workers:         []string{honest1, honest2, liar.URL},
			LocalObjective:  obj,
			Collector:       c,
			Client:          &http.Client{Transport: inj.Transport(nil)},
			ShardSize:       1,
			LeaseTTL:        500 * time.Millisecond,
			WorkerFailLimit: 25,
			RetryJitterSeed: int64(attempt + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("hostile-network fleet result diverged from local reference:\n got %+v\nwant %+v", res, ref)
		}
		st = stats
		if len(st.ByzantineQuarantined) > 0 {
			break
		}
		t.Logf("attempt %d: liar never answered cleanly (net faults %v), retrying", attempt, st.NetFaults)
	}

	// The liar must be quarantined, and only the liar.
	if len(st.ByzantineQuarantined) != 1 || st.ByzantineQuarantined[0] != liar.URL {
		t.Fatalf("quarantined %v, want exactly the liar %s", st.ByzantineQuarantined, liar.URL)
	}
	if st.Divergent < 1 || st.CrossChecked < st.Divergent {
		t.Fatalf("audit ledger inconsistent: %+v", st)
	}
	var liarHealth *WorkerHealth
	for i := range st.Health {
		if st.Health[i].Worker == liar.URL {
			liarHealth = &st.Health[i]
		} else if st.Health[i].Quarantined {
			t.Fatalf("honest worker %s marked quarantined", st.Health[i].Worker)
		}
	}
	if liarHealth == nil || !liarHealth.Quarantined || liarHealth.Divergent < 1 {
		t.Fatalf("liar scorecard wrong: %+v", st.Health)
	}
	// The liar lies on every config, so it is caught on its first clean
	// response — before contributing anything to the merge.
	if liarHealth.Evals != 0 {
		t.Fatalf("liar contributed %d merged evals despite quarantine", liarHealth.Evals)
	}

	// Every injected fault class fired (coverage is a pinned property
	// of the gate seed, not sampling luck — see netchaos's gate test).
	if missing := inj.MissingClasses(); len(missing) > 0 {
		t.Fatalf("fault classes never injected: %v (stats %+v)", missing, inj.Stats())
	}

	// And each is observable downstream: injected counters in the
	// collector, classified dispatch faults in the coordinator's
	// fleet.net.* ledger.
	snap := c.Snapshot()
	for _, class := range netchaos.Classes {
		if snap.Counters["fleet.net.injected."+class] == 0 {
			t.Errorf("fleet.net.injected.%s = 0, want > 0", class)
		}
	}
	if snap.Counters["fleet.byzantine.quarantined"] < 1 {
		t.Fatalf("fleet.byzantine.quarantined = %d, want >= 1", snap.Counters["fleet.byzantine.quarantined"])
	}
	for _, class := range []FaultClass{ClassDrop, ClassTimeout, ClassTruncated, ClassCorrupt, ClassThrottle} {
		if snap.Counters["fleet.net."+string(class)] == 0 {
			t.Errorf("fleet.net.%s = 0, want > 0 (coordinator never observed one)", class)
		}
	}
}

// TestRetryAfterHonored: a worker that throttles with 429 + Retry-After
// is backed off from, not benched — even at WorkerFailLimit 1, where
// miscounting the refusal as a failure would lose the worker and fail
// the search.
func TestRetryAfterHonored(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)

	var throttled atomic.Int64
	honest := liarHandler(obj, func(ShardRequest, int) bool { return false })
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if throttled.Add(1) == 1 { // first dispatch: quota refusal
			w.Header().Set("Retry-After", "1")
			http.Error(w, "quota", http.StatusTooManyRequests)
			return
		}
		honest.ServeHTTP(w, r)
	}))
	defer func() {
		srv.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	t0 := time.Now()
	res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Program:         testProgram,
		Workers:         []string{srv.URL},
		LocalObjective:  obj,
		ShardSize:       4,
		WorkerFailLimit: 1, // a 429 counted as a failure would bench the only worker
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("result diverged after throttle:\n got %+v\nwant %+v", res, ref)
	}
	if st.WorkersLost != 0 {
		t.Fatalf("throttled worker was benched: %+v", st)
	}
	if st.NetFaults[string(ClassThrottle)] < 1 {
		t.Fatalf("throttle not recorded in the net-fault ledger: %+v", st.NetFaults)
	}
	// The advertised 1s Retry-After was honored (jittered to >= 750ms).
	if elapsed := time.Since(t0); elapsed < 700*time.Millisecond {
		t.Fatalf("search finished in %v; the 1s Retry-After was not honored", elapsed)
	}
}

// TestQuarantineReverifiesAndCorrects: a liar smart enough to dodge the
// audit — honest on exactly the sampled configurations, lying on the
// rest — gets its dodged lies merged. When its next shard catches it,
// quarantine must re-verify everything it previously contributed and
// correct the lies, so the final result still matches the local
// reference bit for bit.
func TestQuarantineReverifiesAndCorrects(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	dims, start, obj := testSpace()
	tn := tuning.LinearSearch{}
	ref := tn.TuneCtx(context.Background(), dims, start, obj, 120)

	const ckSeed = 99
	// The liar's first answer dodges the audit: honest exactly where
	// pickSample will look (the sample is deterministic, and the liar
	// knows the search signature from the request — a worst-case
	// adversary). Every later answer lies on sampled configs too, which
	// is what finally gets it caught. Responses are strictly sequential
	// (one coordinator goroutine per worker), so counting them is safe.
	var responses atomic.Int64
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := responses.Add(1)
		liarHandler(obj, func(req ShardRequest, idx int) bool {
			if n == 1 {
				for _, s := range pickSample(ckSeed, req.Search, req.Shard, len(req.Configs), 2) {
					if s == idx {
						return false
					}
				}
			}
			return true
		}).ServeHTTP(w, r)
	}))
	defer func() {
		liar.Close()
		http.DefaultClient.CloseIdleConnections()
	}()

	// The honest worker is slow, so the fast liar wins the early shards
	// and its dodged lies are what's in the table when it gets caught.
	var calls atomic.Int64
	honest, _ := startWorker(t, countingHook(func(a map[string]int) float64 {
		time.Sleep(20 * time.Millisecond)
		return obj(a)
	}, &calls), "")

	res, st, err := Tune(context.Background(), tn, dims, start, 120, Options{
		Program:        testProgram,
		Workers:        []string{honest, liar.URL},
		LocalObjective: obj,
		ShardSize:      4,
		CrossCheck:     2,
		CrossCheckSeed: ckSeed,
		StealAfter:     time.Hour, // no speculative duplicates: the liar's merges stand until reverified
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("result diverged despite reverification:\n got %+v\nwant %+v", res, ref)
	}
	if len(st.ByzantineQuarantined) != 1 || st.ByzantineQuarantined[0] != liar.URL {
		t.Fatalf("quarantined %v, want the dodging liar", st.ByzantineQuarantined)
	}
	// The liar's first shard (4 configs: 2 audited honest, 2 lied) was
	// merged, then re-verified in full when the second shard caught it;
	// exactly the 2 lies needed correction.
	if st.Reverified != 4 {
		t.Fatalf("reverified %d contributions, want the liar's full first shard (4): %+v", st.Reverified, st)
	}
	if st.Corrected != 2 {
		t.Fatalf("corrected %d lied costs, want 2: %+v", st.Corrected, st)
	}
}

// TestPickSampleDeterministic: the audit sample is a pure function of
// (seed, search, shard) — distinct, in range, sorted, stable — and
// different shards sample differently.
func TestPickSampleDeterministic(t *testing.T) {
	a := pickSample(seed.Default, "algo=tabu;", 3, 10, 4)
	b := pickSample(seed.Default, "algo=tabu;", 3, 10, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("pickSample not deterministic: %v vs %v", a, b)
	}
	if len(a) != 4 {
		t.Fatalf("sample size %d, want 4", len(a))
	}
	seen := map[int]bool{}
	for i, idx := range a {
		if idx < 0 || idx >= 10 || seen[idx] {
			t.Fatalf("bad sample %v", a)
		}
		if i > 0 && a[i-1] >= idx {
			t.Fatalf("sample not sorted: %v", a)
		}
		seen[idx] = true
	}
	varies := false
	for shard := 0; shard < 8; shard++ {
		if !reflect.DeepEqual(pickSample(seed.Default, "algo=tabu;", shard, 10, 4), a) {
			varies = true
		}
	}
	if !varies {
		t.Fatal("every shard sampled identically")
	}
	// k >= n degrades to auditing everything; k <= 0 or n <= 0 to nothing.
	if got := pickSample(1, "s", 0, 3, 9); len(got) != 3 {
		t.Fatalf("k>n sample = %v, want all 3", got)
	}
	if pickSample(1, "s", 0, 0, 2) != nil || pickSample(1, "s", 0, 5, 0) != nil {
		t.Fatal("degenerate samples not empty")
	}
}

// TestCostsAgree: faulted matches faulted, finite costs compare within
// relative tolerance.
func TestCostsAgree(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{100, 100, 1e-9, true},
		{100, 100 + 1e-10, 1e-9, true},
		{100, 101, 1e-9, false},
		{0, 0, 1e-9, true},
		{inf, inf, 1e-9, true},
		{-inf, inf, 1e-9, true}, // both faulted, both unusable
		{inf, 100, 1e-9, false},
		{100, inf, 1e-9, false},
		{math.NaN(), inf, 1e-9, true},
		{math.NaN(), 100, 1e-9, false},
	}
	for _, c := range cases {
		if got := costsAgree(c.a, c.b, c.tol); got != c.want {
			t.Errorf("costsAgree(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

// TestPeerKey: worker URLs become stable metric-key segments.
func TestPeerKey(t *testing.T) {
	cases := map[string]string{
		"http://127.0.0.1:4713":  "127.0.0.1-4713",
		"https://worker-3.local": "worker-3.local",
		"host:80/path":           "host-80-path",
	}
	for in, want := range cases {
		if got := peerKey(in); got != want {
			t.Errorf("peerKey(%q) = %q, want %q", in, got, want)
		}
	}
}
