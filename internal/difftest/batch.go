package difftest

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	"patty/internal/checkpoint"
	"patty/internal/seed"
)

// BatchKind tags fuzz-sweep snapshots in the checkpoint envelope.
const BatchKind = "difftest-batch"

// ErrBatchMismatch reports a snapshot written by a different sweep
// (other base seed or program count): resuming it would stitch two
// unrelated sweeps into one summary.
var ErrBatchMismatch = errors.New("difftest: checkpoint belongs to a different sweep")

// BatchState is the serialized progress of a fuzz sweep. Program
// generation and checking are deterministic functions of
// seed.Mix(BaseSeed, i), so progress is just the next unchecked index
// plus the aggregates; divergent programs are stored as their seeds
// and re-derived on resume rather than serialized.
type BatchState struct {
	BaseSeed       int64          `json:"base_seed"`
	N              int            `json:"n"`
	Next           int            `json:"next"`
	Kinds          map[string]int `json:"kinds,omitempty"`
	DivergentSeeds []int64        `json:"divergent_seeds,omitempty"`
}

// Batch is a fuzz sweep, checkpointed when it has a path. Every sweep
// runs through Batch.Run: difftest.Run and serve's fuzz jobs without a
// checkpoint directory use a Batch with no path.
type Batch struct {
	path  string
	state BatchState
}

// NewBatch opens or creates the sweep snapshot at path; an empty path
// sweeps without a snapshot. resumed reports how many programs a
// previous run already checked. A snapshot for a different
// (baseSeed, n) fails with ErrBatchMismatch; a damaged one with
// checkpoint.ErrCorruptCheckpoint.
func NewBatch(path string, baseSeed int64, n int) (b *Batch, resumed int, err error) {
	b = &Batch{path: path}
	b.state = BatchState{BaseSeed: baseSeed, N: n, Kinds: make(map[string]int)}
	if path == "" {
		return b, 0, nil
	}
	err = checkpoint.Load(path, BatchKind, &b.state)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh sweep.
	case err != nil:
		return nil, 0, err
	default:
		if b.state.BaseSeed != baseSeed || b.state.N != n {
			return nil, 0, fmt.Errorf("%w: snapshot %q is seed=%d n=%d, this run is seed=%d n=%d",
				ErrBatchMismatch, path, b.state.BaseSeed, b.state.N, baseSeed, n)
		}
		if b.state.Kinds == nil {
			b.state.Kinds = make(map[string]int)
		}
	}
	return b, b.state.Next, nil
}

// Resumed is the number of programs loaded as already checked.
func (b *Batch) Resumed() int { return b.state.Next }

// save snapshots the sweep (a no-op without a path); checkpoint.Save
// is atomic, so a kill between programs loses at most the program in
// flight.
func (b *Batch) save() error {
	if b.path == "" {
		return nil
	}
	return checkpoint.Save(b.path, BatchKind, &b.state)
}

// Run continues the sweep until it completes or ctx is canceled. The
// returned summary always covers the whole sweep so far (resumed
// prefix included); on cancellation it is the partial summary and err
// is ctx.Err(). Divergences from previous runs are re-derived by
// re-checking their recorded seeds — Check is deterministic, so this
// reproduces the identical Divergence without trusting the snapshot
// to serialize one.
func (b *Batch) Run(ctx context.Context, opt Options, progress func(string)) (*Summary, error) {
	sum := &Summary{Programs: b.state.Next, Kinds: make(map[string]int)}
	for k, v := range b.state.Kinds {
		sum.Kinds[k] = v
	}
	for _, s := range b.state.DivergentSeeds {
		res := Check(Generate(s, GenOptions{}), opt)
		if res.Div != nil { // deterministic: always true
			sum.Divergences = append(sum.Divergences, res)
		}
	}
	for i := b.state.Next; i < b.state.N; i++ {
		if ctx.Err() != nil {
			if err := b.save(); err != nil {
				return sum, err
			}
			return sum, ctx.Err()
		}
		s := seed.Mix(b.state.BaseSeed, int64(i))
		res := Check(Generate(s, GenOptions{}), opt)
		sum.Programs++
		sum.Kinds[res.Kind]++
		b.state.Kinds[res.Kind]++
		if res.Div != nil {
			sum.Divergences = append(sum.Divergences, res)
			b.state.DivergentSeeds = append(b.state.DivergentSeeds, s)
			if progress != nil {
				progress(res.Div.String())
			}
		}
		b.state.Next = i + 1
		if err := b.save(); err != nil {
			return sum, err
		}
	}
	return sum, nil
}
