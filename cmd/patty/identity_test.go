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
// spec — never a journal another job wrote.
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
		r, err := http.Get(ts.URL + "/jobs/" + ids[i] + "?wait=1")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		rr, err := http.Get(ts.URL + "/jobs/" + ids[i] + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var res struct{ Result tuneOutcome }
		json.NewDecoder(rr.Body).Decode(&res)
		rr.Body.Close()
		got := res.Result
		if got.Cost != want.Cost || !reflect.DeepEqual(got.Best, want.Best) || got.Resumed != 0 {
			t.Errorf("fault_seed %d: best %v cost %.0f (resumed %d), want fresh %v cost %.0f",
				s, got.Best, got.Cost, got.Resumed, want.Best, want.Cost)
		}
	}
}
