package tuning

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"sort"

	"patty/internal/checkpoint"
)

// CheckpointKind tags tuner-search snapshots in the checkpoint
// envelope, so a fuzz-sweep file can never be mistaken for one.
const CheckpointKind = "tuning-search"

// ErrCheckpointMismatch reports a checkpoint written by a different
// search (other objective, algorithm, budget, dimensions or start
// point): resuming it would silently answer a different question.
var ErrCheckpointMismatch = errors.New("tuning: checkpoint belongs to a different search")

// SearchMeta pins the identity of a search. Two runs with equal meta
// and a deterministic tuner evaluate configurations in the same order,
// which is what makes resume-from-checkpoint converge to the same best
// as an uninterrupted run.
type SearchMeta struct {
	Algo   string         `json:"algo"`
	Budget int            `json:"budget"`
	Dims   []Dim          `json:"dims"`
	Start  map[string]int `json:"start"`
	// Objective is the content address of the function being
	// minimized (ObjectiveID): two searches over different objectives
	// never share a journal, even when their spaces agree.
	Objective string `json:"objective,omitempty"`
}

// ObjectiveID names an objective by the address its evaluations are
// cached under (evalcache.Key without the config): the program or spec
// hash and the measurement seed.
func ObjectiveID(program string, seed int64) string {
	return fmt.Sprintf("%s@%d", program, seed)
}

// Signature is the canonical comparable identity of a search: two
// runs with equal signatures answer the same question. The fleet
// protocol ships it with every shard so a worker's evaluation journal
// is never shared between different searches.
func (m SearchMeta) Signature() string { return m.signature() }

// signature is the canonical comparable form of a SearchMeta.
func (m SearchMeta) signature() string {
	dims := append([]Dim(nil), m.Dims...)
	sort.Slice(dims, func(i, j int) bool { return dims[i].Key < dims[j].Key })
	s := fmt.Sprintf("objective=%s;algo=%s;budget=%d;start=%s;", m.Objective, m.Algo, m.Budget, assignKey(m.Start))
	for _, d := range dims {
		s += fmt.Sprintf("dim=%s[%d..%d/%d];", d.Key, d.Min, d.Max, d.step())
	}
	return s
}

// EvalRecord is one completed objective evaluation. A faulted
// evaluation (see Measure) is stored with the flag instead of the
// non-JSON-encodable infinity.
type EvalRecord struct {
	Assignment map[string]int `json:"assignment"`
	Cost       float64        `json:"cost"`
	Faulted    bool           `json:"faulted,omitempty"`
}

// SearchState is the serialized progress of a tuning search: which
// configurations were measured and at what cost. Quarantined lists the
// faulted ones; it is derived from Evals on every save.
type SearchState struct {
	Meta        SearchMeta   `json:"meta"`
	Evals       []EvalRecord `json:"evals"`
	Quarantined []string     `json:"quarantined,omitempty"`
}

// Checkpointer is a search's evaluation journal. With a path it makes
// the search resumable: every record is persisted to a snapshot file,
// so a restarted deterministic search replays the completed prefix
// through Step.Lookup (no re-measurement) and continues exactly where
// the killed run stopped. With an empty path it is an in-memory
// journal (the fleet coordinator's merge table when checkpointing is
// off).
type Checkpointer struct {
	path string

	state   SearchState
	cache   map[string]EvalRecord
	resumed int
	saveErr error
}

// NewCheckpointer opens or creates the snapshot at path for the given
// search; an empty path journals in memory only. resumed reports how
// many completed evaluations were loaded. A snapshot for a different
// search fails with ErrCheckpointMismatch; a damaged snapshot fails
// with checkpoint.ErrCorruptCheckpoint — the caller decides whether to
// delete and start over.
func NewCheckpointer(path string, meta SearchMeta) (c *Checkpointer, resumed int, err error) {
	c = &Checkpointer{path: path, cache: make(map[string]EvalRecord)}
	c.state.Meta = meta
	if path == "" {
		return c, 0, nil
	}
	err = checkpoint.Load(path, CheckpointKind, &c.state)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh run; first Save creates the file.
	case err != nil:
		return nil, 0, err
	default:
		if c.state.Meta.signature() != meta.signature() {
			return nil, 0, fmt.Errorf("%w: snapshot %q holds %s, this run is %s",
				ErrCheckpointMismatch, path, c.state.Meta.signature(), meta.signature())
		}
		for _, rec := range c.state.Evals {
			c.cache[assignKey(rec.Assignment)] = rec
		}
		c.resumed = len(c.state.Evals)
	}
	c.state.Meta = meta
	return c, c.resumed, nil
}

// Record journals a record and reports whether it was new: a key
// already journaled is left as it is, so merges are idempotent under
// duplicate shard completions. The snapshot is persisted by the next
// Flush; the fleet coordinator batches one Flush per merged shard
// instead of one write per evaluation.
func (c *Checkpointer) Record(rec EvalRecord) bool {
	key := assignKey(rec.Assignment)
	if _, ok := c.cache[key]; ok {
		return false
	}
	rec.Assignment = copyAssign(rec.Assignment)
	c.cache[key] = rec
	c.state.Evals = append(c.state.Evals, rec)
	return true
}

// Correct overwrites the journaled record of an assignment in place —
// the fleet coordinator's byzantine re-verification replaces a
// quarantined worker's lied costs with locally re-measured truth
// (Record alone cannot: it ignores keys already journaled, which is
// right for idempotent merges and wrong for repairs). An unknown key
// falls through to Record semantics. The snapshot is persisted by the
// next Flush.
func (c *Checkpointer) Correct(rec EvalRecord) {
	if c.Record(rec) {
		return
	}
	key := assignKey(rec.Assignment)
	rec.Assignment = copyAssign(rec.Assignment)
	c.cache[key] = rec
	for i := range c.state.Evals {
		if assignKey(c.state.Evals[i].Assignment) == key {
			c.state.Evals[i] = rec
			break
		}
	}
}

// Lookup returns the journaled record for a canonical assignment key.
func (c *Checkpointer) Lookup(key string) (EvalRecord, bool) {
	rec, ok := c.cache[key]
	return rec, ok
}

// Records returns a copy of every journaled evaluation, in journal
// order.
func (c *Checkpointer) Records() []EvalRecord {
	return append([]EvalRecord(nil), c.state.Evals...)
}

// EffectiveCost reconstructs the in-memory cost of a record (+Inf
// when the evaluation faulted).
func (r EvalRecord) EffectiveCost() float64 {
	if r.Faulted {
		return math.Inf(1)
	}
	return r.Cost
}

// Flush persists the journal (a no-op in memory) and reports the first
// error any save hit; a search whose journal could not be written must
// not advertise itself as resumable.
func (c *Checkpointer) Flush() error {
	if c.path == "" {
		return nil
	}
	c.state.Quarantined = c.Quarantined()
	if err := checkpoint.Save(c.path, CheckpointKind, &c.state); err != nil && c.saveErr == nil {
		c.saveErr = err
	}
	return c.saveErr
}

// Explored is the number of distinct configurations measured across
// all runs of this search (resumed prefix included).
func (c *Checkpointer) Explored() int { return len(c.cache) }

// Resumed is the number of evaluations replayed from the snapshot.
func (c *Checkpointer) Resumed() int { return c.resumed }

// Quarantined returns the sorted keys of the journaled faulted
// configurations.
func (c *Checkpointer) Quarantined() []string {
	var out []string
	for _, rec := range c.state.Evals {
		if rec.Faulted {
			out = append(out, assignKey(rec.Assignment))
		}
	}
	sort.Strings(out)
	return out
}
