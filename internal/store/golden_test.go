package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"patty/internal/checkpoint"
	"patty/internal/jobs"
)

// goldenWAL is the file whose records goldenRecords lists, frame by
// frame. It was written by the store's encoder and is never
// regenerated: a WAL left on disk by an older build must keep opening.
const goldenWAL = "testdata/jobs.wal"

// goldenRecords is one job's full lifecycle plus a second, still
// queued job, with fixed timestamps.
func goldenRecords() []Record {
	at := func(sec int64) time.Time { return time.Unix(1700000000+sec, 0).UTC() }
	j1 := jobs.Info{ID: "j1", Kind: "tune", Status: jobs.StatusQueued, Tenant: "acme", Seq: 1, Submitted: at(0)}
	j2 := jobs.Info{ID: "j2", Kind: "fuzz", Status: jobs.StatusQueued, Tenant: "globex", Seq: 2, Submitted: at(3)}
	done := j1
	done.Status, done.Started, done.Finished = jobs.StatusDone, at(2), at(5)
	return []Record{
		{Op: OpAccepted, Job: j1, Spec: json.RawMessage(`{"kind":"tune","algo":"tabu","budget":120}`), At: at(0)},
		{Op: OpCheckpoint, ID: "j1", Path: "ckpt/tune-tabu-b120-c8.ckpt", At: at(1)},
		{Op: OpStarted, ID: "j1", At: at(2)},
		{Op: OpAccepted, Job: j2, Spec: json.RawMessage(`{"kind":"fuzz","seed":7,"n":5}`), At: at(3)},
		{Op: OpFinalized, Job: done, Result: json.RawMessage(`{"best":{"repl.oil":7},"cost":81993}`), At: at(5)},
	}
}

// TestGoldenWAL: the checked-in WAL decodes to exactly goldenRecords,
// re-encoding those records reproduces the file byte for byte, and a
// store opened on it recovers both jobs without reporting damage.
func TestGoldenWAL(t *testing.T) {
	raw, err := os.ReadFile(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenRecords()
	got, validLen, err := checkpoint.DecodeFrames[Record](walMagic, raw)
	if err != nil || validLen != len(raw) {
		t.Fatalf("decode: validLen %d of %d, err %v", validLen, len(raw), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded records differ:\n got %+v\nwant %+v", got, want)
	}
	var enc []byte
	for _, r := range want {
		frame, err := checkpoint.EncodeFrame(walMagic, r)
		if err != nil {
			t.Fatal(err)
		}
		enc = append(enc, frame...)
	}
	if !bytes.Equal(enc, raw) {
		t.Fatalf("re-encoded WAL differs from the golden file:\n got %q\nwant %q", enc, raw)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	defer s.Close()
	if rec := s.Recovery(); rec.Records != len(want) || rec.WALErr != "" || rec.SnapshotCorrupt {
		t.Fatalf("recovery: %+v", rec)
	}
	j1, _ := s.Get("j1")
	if j1.Info.Status != jobs.StatusDone || j1.Checkpoint != want[1].Path || string(j1.Result) != string(want[4].Result) {
		t.Fatalf("j1: %+v", j1)
	}
	if j2, ok := s.Get("j2"); !ok || j2.Info.Status != jobs.StatusQueued {
		t.Fatalf("j2: %+v", j2)
	}
}
