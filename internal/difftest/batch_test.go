package difftest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"patty/internal/checkpoint"
)

func batchOpts() Options {
	return Options{Configs: 2}
}

// cancelAfterErrs is a context whose Err() flips to Canceled after k
// nil answers — a deterministic mid-sweep interrupt without timing.
type cancelAfterErrs struct {
	context.Context
	k, calls int
}

func (c *cancelAfterErrs) Err() error {
	c.calls++
	if c.calls > c.k {
		return context.Canceled
	}
	return nil
}

func TestBatchResumeMatchesUninterrupted(t *testing.T) {
	const baseSeed, n = 41, 12
	opt := batchOpts()

	ref := Run(baseSeed, n, opt, nil)

	// Leg 1: cancel midway through the sweep.
	path := filepath.Join(t.TempDir(), "fuzz.ckpt")
	b1, resumed, err := NewBatch(path, baseSeed, n)
	if err != nil || resumed != 0 {
		t.Fatalf("fresh batch: resumed=%d err=%v", resumed, err)
	}
	ctx := &cancelAfterErrs{Context: context.Background(), k: 4}
	partial, err := b1.Run(ctx, opt, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted leg: err = %v", err)
	}
	if partial.Programs == 0 || partial.Programs >= n {
		t.Fatalf("interrupted leg checked %d of %d", partial.Programs, n)
	}

	// Leg 2: resume from the snapshot and finish.
	b2, resumed, err := NewBatch(path, baseSeed, n)
	if err != nil {
		t.Fatal(err)
	}
	if resumed == 0 {
		t.Fatal("resume loaded no progress")
	}
	sum, err := b2.Run(context.Background(), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Programs != ref.Programs {
		t.Fatalf("resumed sweep covered %d programs, uninterrupted %d", sum.Programs, ref.Programs)
	}
	if len(sum.Divergences) != len(ref.Divergences) {
		t.Fatalf("resumed sweep found %d divergences, uninterrupted %d",
			len(sum.Divergences), len(ref.Divergences))
	}
	for k, v := range ref.Kinds {
		if sum.Kinds[k] != v {
			t.Fatalf("kind %q: resumed %d, uninterrupted %d", k, sum.Kinds[k], v)
		}
	}
}

func TestBatchMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fuzz.ckpt")
	b, _, err := NewBatch(path, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(context.Background(), batchOpts(), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewBatch(path, 8, 5); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("seed change: got %v, want ErrBatchMismatch", err)
	}
	if _, _, err := NewBatch(path, 7, 6); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("count change: got %v, want ErrBatchMismatch", err)
	}
	if _, resumed, err := NewBatch(path, 7, 5); err != nil || resumed != 5 {
		t.Fatalf("same sweep: resumed=%d err=%v", resumed, err)
	}
}

func TestBatchCorruptSurfacesTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fuzz.ckpt")
	b, _, err := NewBatch(path, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(context.Background(), batchOpts(), nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewBatch(path, 7, 3); !errors.Is(err, checkpoint.ErrCorruptCheckpoint) {
		t.Fatalf("corrupt snapshot: got %v, want ErrCorruptCheckpoint", err)
	}
}

// TestBatchCancelImmediately: a pre-canceled sweep without a snapshot
// checks nothing and reports the cancellation.
func TestBatchCancelImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, resumed, err := NewBatch("", 1, 10)
	if err != nil || resumed != 0 {
		t.Fatalf("in-memory batch: resumed=%d err=%v", resumed, err)
	}
	sum, err := b.Run(ctx, batchOpts(), nil)
	if !errors.Is(err, context.Canceled) || sum.Programs != 0 {
		t.Fatalf("pre-canceled sweep: programs=%d err=%v", sum.Programs, err)
	}
}
