package tuning

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"patty/internal/checkpoint"
)

// goldenSnapshot is the tuner resume snapshot goldenState describes.
// It was written by the checkpoint encoder and is never regenerated: a
// .ckpt file left on disk by an older build must keep opening.
const goldenSnapshot = "testdata/search.ckpt"

// goldenState is a part-finished search over the oil-painting
// pipeline's space: measured costs, one faulted evaluation and the
// breaker's quarantine set.
func goldenState() SearchState {
	return SearchState{
		Meta: SearchMeta{
			Algo:   "linear",
			Budget: 150,
			Dims: []Dim{
				{Key: "repl.oil", Min: 1, Max: 8},
				{Key: "fuse.crop.histo", Min: 0, Max: 1},
				{Key: "sequential", Min: 0, Max: 1},
			},
			Start: map[string]int{"repl.oil": 1, "fuse.crop.histo": 0, "sequential": 1},
		},
		Evals: []EvalRecord{
			{Assignment: map[string]int{"repl.oil": 1, "fuse.crop.histo": 0, "sequential": 1}, Cost: 622080},
			{Assignment: map[string]int{"repl.oil": 2, "fuse.crop.histo": 0, "sequential": 1}, Faulted: true},
			{Assignment: map[string]int{"repl.oil": 3, "fuse.crop.histo": 0, "sequential": 0}, Cost: 214500},
			{Assignment: map[string]int{"repl.oil": 7, "fuse.crop.histo": 0, "sequential": 0}, Cost: 81993},
		},
		Quarantined: []string{"fuse.crop.histo=0;repl.oil=2;sequential=1;"},
	}
}

// TestGoldenSnapshot: the checked-in snapshot decodes to exactly
// goldenState, re-encoding that state reproduces the file byte for
// byte, and a checkpointer for the same search resumes all of it.
func TestGoldenSnapshot(t *testing.T) {
	raw, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenState()
	var got SearchState
	if err := checkpoint.Decode(raw, CheckpointKind, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded state differs:\n got %+v\nwant %+v", got, want)
	}
	enc, err := checkpoint.Encode(CheckpointKind, &want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, raw) {
		t.Fatalf("re-encoded snapshot differs from the golden file:\n got %q\nwant %q", enc, raw)
	}

	path := filepath.Join(t.TempDir(), "search.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, resumed, err := NewCheckpointer(path, want.Meta)
	if err != nil || resumed != len(want.Evals) {
		t.Fatalf("resume: %d evaluation(s), err %v; want %d", resumed, err, len(want.Evals))
	}
	if q := ck.Quarantined(); !reflect.DeepEqual(q, want.Quarantined) {
		t.Fatalf("quarantine set %v, want %v", q, want.Quarantined)
	}
}
