package tuning

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"patty/internal/checkpoint"
)

// rastrigin-ish deterministic objective with a unique optimum.
func bowl(a map[string]int) float64 {
	x, y := float64(a["x"]-7), float64(a["y"]-3)
	return x*x + 2*y*y + 5
}

func bowlDims() []Dim {
	return []Dim{{Key: "x", Min: 0, Max: 15}, {Key: "y", Min: 0, Max: 15}}
}

func bowlStart() map[string]int { return map[string]int{"x": 0, "y": 15} }

func TestTuneCtxCancelReturnsBestSoFar(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	obj := func(a map[string]int) float64 {
		evals++
		if evals == 5 {
			cancel()
		}
		return bowl(a)
	}
	res := LinearSearch{}.TuneCtx(ctx, bowlDims(), bowlStart(), obj, 500)
	if !res.Interrupted {
		t.Fatal("canceled search must report Interrupted")
	}
	if evals > 6 {
		t.Fatalf("search kept evaluating after cancel: %d evals", evals)
	}
	if res.Best == nil || math.IsInf(res.BestCost, 1) {
		t.Fatalf("canceled search must keep best-so-far, got %+v", res)
	}
}

// TestCheckpointResumeConvergesIdentically is the package-level half
// of the kill-and-restart contract: interrupt a checkpointed search
// mid-run, resume it from the snapshot, and require the identical best
// configuration (and no fewer explored configs) as an uninterrupted
// run — without re-measuring the completed prefix.
func TestCheckpointResumeConvergesIdentically(t *testing.T) {
	for _, tn := range []Tuner{LinearSearch{}, TabuSearch{}, RandomSearch{Seed: 7}, NelderMead{}} {
		t.Run(tn.Name(), func(t *testing.T) {
			meta := SearchMeta{Algo: tn.Name(), Budget: 120, Dims: bowlDims(), Start: bowlStart()}

			// Reference: uninterrupted, no checkpoint.
			ref := tn.Tune(meta.Dims, meta.Start, bowl, meta.Budget)

			// Interrupted: cancel after 9 fresh evaluations.
			path := filepath.Join(t.TempDir(), "search.ckpt")
			ck1, resumed, err := NewCheckpointer(path, meta)
			if err != nil || resumed != 0 {
				t.Fatalf("fresh checkpointer: resumed=%d err=%v", resumed, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			fresh := 0
			counting := func(a map[string]int) float64 {
				fresh++
				if fresh == 9 {
					cancel()
				}
				return bowl(a)
			}
			half := tn.TuneCtx(ctx, meta.Dims, meta.Start, (&Step{Journal: ck1}).Objective(counting), meta.Budget)
			if !half.Interrupted {
				t.Fatal("first leg should have been interrupted")
			}
			if err := ck1.Flush(); err != nil {
				t.Fatal(err)
			}

			// Resume: a brand-new checkpointer over the same file.
			ck2, resumed, err := NewCheckpointer(path, meta)
			if err != nil {
				t.Fatal(err)
			}
			if resumed == 0 {
				t.Fatal("resume loaded no completed evaluations")
			}
			rerun := 0
			res := tn.Tune(meta.Dims, meta.Start, (&Step{Journal: ck2}).Objective(func(a map[string]int) float64 {
				rerun++
				return bowl(a)
			}), meta.Budget)

			if AssignKey(res.Best) != AssignKey(ref.Best) || res.BestCost != ref.BestCost {
				t.Fatalf("resumed best %v (%.1f) != uninterrupted best %v (%.1f)",
					res.Best, res.BestCost, ref.Best, ref.BestCost)
			}
			if ck2.Explored() < ref.Evaluations {
				t.Fatalf("resumed run explored %d configs, uninterrupted run %d",
					ck2.Explored(), ref.Evaluations)
			}
			if rerun+resumed != ck2.Explored() {
				t.Fatalf("resume re-measured the prefix: %d fresh + %d resumed != %d explored",
					rerun, resumed, ck2.Explored())
			}
		})
	}
}

func TestCheckpointMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	meta := SearchMeta{Algo: "linear", Budget: 50, Dims: bowlDims(), Start: bowlStart()}
	ck, _, err := NewCheckpointer(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	(&Step{Journal: ck}).Eval(bowlStart(), bowl)
	other := meta
	other.Budget = 99
	if _, _, err := NewCheckpointer(path, other); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("budget change: got %v, want ErrCheckpointMismatch", err)
	}
}

// TestCheckpointQuarantinePersists: a faulted record survives reopen,
// is reported as quarantined, and is never measured again.
func TestCheckpointQuarantinePersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	meta := SearchMeta{Algo: "linear", Budget: 50, Dims: bowlDims(), Start: bowlStart()}
	ck, _, err := NewCheckpointer(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]int{"x": 1, "y": 2}
	faulting := func(a map[string]int) float64 {
		if AssignKey(a) == AssignKey(bad) {
			return math.Inf(1)
		}
		return bowl(a)
	}
	step := &Step{Journal: ck}
	step.Eval(bowlStart(), faulting)
	step.Eval(bad, faulting)
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	ck2, _, err := NewCheckpointer(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if q := ck2.Quarantined(); len(q) != 1 || q[0] != "x=1;y=2;" {
		t.Fatalf("quarantine set lost: %v", q)
	}
	rec := (&Step{Journal: ck2}).Eval(bad, func(map[string]int) float64 {
		t.Fatal("a journaled fault was measured again")
		return 0
	})
	if !rec.Faulted || !math.IsInf(rec.EffectiveCost(), 1) {
		t.Fatalf("journaled fault read back as %+v", rec)
	}
}

func TestCheckpointCorruptSurfacesTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	meta := SearchMeta{Algo: "linear", Budget: 50, Dims: bowlDims(), Start: bowlStart()}
	ck, _, err := NewCheckpointer(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	(&Step{Journal: ck}).Eval(bowlStart(), bowl)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewCheckpointer(path, meta); !errors.Is(err, checkpoint.ErrCorruptCheckpoint) {
		t.Fatalf("truncated snapshot: got %v, want ErrCorruptCheckpoint", err)
	}
}

// TestCheckpointCorrectOverwrites: Correct replaces an already-journaled
// cost in place (Record ignores known keys by design); the repaired
// value survives a flush/reload cycle and unknown keys fall through to
// Record semantics. This is the fleet coordinator's byzantine repair
// path: a quarantined worker's lied costs are overwritten with locally
// re-measured truth.
func TestCheckpointCorrectOverwrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	meta := SearchMeta{Algo: "linear", Budget: 10, Dims: bowlDims(), Start: bowlStart()}
	ck, _, err := NewCheckpointer(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	a := map[string]int{"x": 1, "y": 2}
	b := map[string]int{"x": 3, "y": 4}
	ck.Record(EvalRecord{Assignment: a, Cost: 100}) // the lie
	ck.Record(EvalRecord{Assignment: b, Cost: 50})

	// Record is merge-idempotent: it must NOT repair the lie.
	if ck.Record(EvalRecord{Assignment: a, Cost: 42}) {
		t.Fatal("Record reported a journaled key as new")
	}
	if rec, _ := ck.Lookup(AssignKey(a)); rec.Cost != 100 {
		t.Fatalf("Record overwrote a journaled key: %+v", rec)
	}

	ck.Correct(EvalRecord{Assignment: a, Cost: 42}) // the repair
	if rec, _ := ck.Lookup(AssignKey(a)); rec.Cost != 42 {
		t.Fatalf("Correct did not overwrite: %+v", rec)
	}
	// Correcting to a faulted record stores the flag, not the Inf.
	ck.Correct(Measure(func(map[string]int) float64 { return math.Inf(1) }, b))
	if rec, _ := ck.Lookup(AssignKey(b)); !rec.Faulted || rec.Cost != 0 {
		t.Fatalf("Correct to +Inf not stored as faulted: %+v", rec)
	}
	// Unknown key: Correct degrades to Record.
	c := map[string]int{"x": 5, "y": 6}
	ck.Correct(EvalRecord{Assignment: c, Cost: 7})
	if rec, ok := ck.Lookup(AssignKey(c)); !ok || rec.Cost != 7 {
		t.Fatalf("Correct on unknown key: %+v ok=%v", rec, ok)
	}
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	// The journal on disk holds the corrected values, once each.
	ck2, resumed, err := NewCheckpointer(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 3 {
		t.Fatalf("resumed %d evals, want 3 (corrections must not duplicate entries)", resumed)
	}
	if rec, _ := ck2.Lookup(AssignKey(a)); rec.Cost != 42 {
		t.Fatalf("corrected cost not persisted: %+v", rec)
	}
	if rec, _ := ck2.Lookup(AssignKey(b)); !rec.Faulted {
		t.Fatalf("corrected fault flag not persisted: %+v", rec)
	}
}
