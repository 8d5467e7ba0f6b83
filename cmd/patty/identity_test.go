package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"patty/internal/evalcache"
	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/ptest"
	"patty/internal/tuning"
)

// TestTuneCheckpointCoversObjective reproduces a search resuming a
// journal written for another objective: a run with fault seed 1
// journals to a checkpoint, then a run with fault seed 2 is pointed at
// the same file. The second run must not replay the first run's costs —
// it either refuses the checkpoint or answers exactly like a fresh
// seed-2 run.
func TestTuneCheckpointCoversObjective(t *testing.T) {
	ctx := context.Background()
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")
	if _, err := runTune(ctx, tuneSpec{FaultRate: 40, FaultSeed: 1, Checkpoint: ckpt}); err != nil {
		t.Fatal(err)
	}
	fresh, err := runTune(ctx, tuneSpec{FaultRate: 40, FaultSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cost != 81993 {
		t.Fatalf("fresh seed-2 run: cost %.0f, want 81993", fresh.Cost)
	}
	out, err := runTune(ctx, tuneSpec{FaultRate: 40, FaultSeed: 2, Checkpoint: ckpt})
	switch {
	case errors.Is(err, tuning.ErrCheckpointMismatch):
	case err != nil:
		t.Fatal(err)
	case out.Resumed > 0 || out.Cost != fresh.Cost || !reflect.DeepEqual(out.Best, fresh.Best):
		t.Fatalf("seed-2 run on the seed-1 checkpoint: best %v cost %.0f (resumed %d), want fresh %v cost %.0f",
			out.Best, out.Cost, out.Resumed, fresh.Best, fresh.Cost)
	}
}

// TestServeTuneJobsDifferingInFaultSeed: tune jobs that differ only in
// fault_seed, submitted together to a server with a checkpoint
// directory, must each return the answer of a fresh run of their own
// spec — never a journal another job wrote. On a server with an
// evaluation store, a linear job and then a tabu job over the same
// faulting objective must each return the answer of a fresh cache-free
// run, never a fault the store handed back as cost 0.
func TestServeTuneJobsDifferingInFaultSeed(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	svc := jobs.New(jobs.Options{Workers: 2, Collector: obs.New()})
	ts := httptest.NewServer(newServer(svc, t.TempDir()).mux())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	seeds := []int64{1, 2, 3, 4}
	ids := make([]string, len(seeds))
	for i, s := range seeds {
		body := fmt.Sprintf(`{"kind":"tune","algo":"linear","budget":150,"fault_rate":40,"fault_seed":%d}`, s)
		id, code := postJob(t, ts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d: HTTP %d", s, code)
		}
		ids[i] = id
	}
	for i, s := range seeds {
		want, err := runTune(context.Background(), tuneSpec{FaultRate: 40, FaultSeed: s})
		if err != nil {
			t.Fatal(err)
		}
		got := tuneResult(t, ts.URL, ids[i])
		if got.Cost != want.Cost || !reflect.DeepEqual(got.Best, want.Best) || got.Resumed != 0 {
			t.Errorf("fault_seed %d: best %v cost %.0f (resumed %d), want fresh %v cost %.0f",
				s, got.Best, got.Cost, got.Resumed, want.Best, want.Cost)
		}
	}

	cache, err := evalcache.Open(filepath.Join(t.TempDir(), "cas"), evalcache.Options{Collector: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	csvc := jobs.New(jobs.Options{Workers: 2, Collector: obs.New()})
	csrv := newServer(csvc, t.TempDir())
	csrv.cache = cache
	cts := httptest.NewServer(csrv.mux())
	t.Cleanup(func() {
		cts.Close()
		csvc.Close()
		cache.Close()
	})
	for _, algo := range []string{"linear", "tabu"} {
		body := fmt.Sprintf(`{"kind":"tune","algo":%q,"budget":120,"fault_rate":10,"fault_seed":3}`, algo)
		id, code := postJob(t, cts.URL, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d", algo, code)
		}
		got := tuneResult(t, cts.URL, id)
		want, err := runTune(context.Background(), tuneSpec{Algo: algo, Budget: 120, FaultRate: 10, FaultSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost || !reflect.DeepEqual(got.Best, want.Best) ||
			got.Evaluations != want.Evaluations || !reflect.DeepEqual(got.Quarantined, want.Quarantined) {
			t.Errorf("%s on the cached server: best %v cost %.0f evals %d quarantined %v, want fresh %v cost %.0f evals %d quarantined %v",
				algo, got.Best, got.Cost, got.Evaluations, got.Quarantined,
				want.Best, want.Cost, want.Evaluations, want.Quarantined)
		}
	}
}

// tuneResult waits for a tune job and decodes its outcome.
func tuneResult(t *testing.T, base, id string) tuneOutcome {
	t.Helper()
	r, err := http.Get(base + "/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	rr, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	var res struct{ Result tuneOutcome }
	if err := json.NewDecoder(rr.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res.Result
}
