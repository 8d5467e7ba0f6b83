package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"patty/internal/checkpoint"
	"patty/internal/jobs"
)

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func info(id string, seq int64, status jobs.Status) jobs.Info {
	return jobs.Info{
		ID: id, Kind: "tune", Status: status, Tenant: "acme", Seq: seq,
		Submitted: time.Unix(1700000000+seq, 0).UTC(),
	}
}

// TestStoreRoundTrip: the full lifecycle survives a close/reopen.
// TestFreshOpenIsClean: a first boot on an empty directory must not
// report repairs — a missing snapshot is not a corrupt one (it is a
// wrapped fs.ErrNotExist, which os.IsNotExist would misclassify).
func TestFreshOpenIsClean(t *testing.T) {
	s := openT(t, t.TempDir())
	if rec := s.Recovery(); rec != (Recovery{}) {
		t.Fatalf("fresh open reported recovery: %+v", rec)
	}
	if _, err := os.Stat(filepath.Join(s.dir, snapName+".corrupt")); err == nil {
		t.Fatal("fresh open quarantined a snapshot that never existed")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.JobAccepted(info("j1", 1, jobs.StatusQueued), []byte(`{"algo":"tabu"}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.JobCheckpoint("j1", "/ckpt/tune-tabu.ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := s.JobStarted("j1"); err != nil {
		t.Fatal(err)
	}
	if err := s.JobAccepted(info("j2", 2, jobs.StatusQueued), []byte(`{"algo":"random"}`)); err != nil {
		t.Fatal(err)
	}
	done := info("j1", 1, jobs.StatusDone)
	if err := s.JobFinalized(done, map[string]int{"cost": 7}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	defer r.Close()
	list := r.Jobs()
	if len(list) != 2 || list[0].Info.ID != "j1" || list[1].Info.ID != "j2" {
		t.Fatalf("recovered jobs: %+v", list)
	}
	j1, _ := r.Get("j1")
	if j1.Info.Status != jobs.StatusDone || j1.Checkpoint != "/ckpt/tune-tabu.ckpt" || !j1.Started {
		t.Fatalf("j1 state: %+v", j1)
	}
	var res map[string]int
	if err := json.Unmarshal(j1.Result, &res); err != nil || res["cost"] != 7 {
		t.Fatalf("j1 result: %s err=%v", j1.Result, err)
	}
	if string(j1.Spec) != `{"algo":"tabu"}` {
		t.Fatalf("j1 spec: %s", j1.Spec)
	}
	j2, _ := r.Get("j2")
	if j2.Info.Status != jobs.StatusQueued || j2.Started {
		t.Fatalf("j2 must still be queued: %+v", j2)
	}
	if r.MaxSeq() != 2 {
		t.Fatalf("MaxSeq = %d", r.MaxSeq())
	}
	if rec := r.Recovery(); rec.WALErr != "" || rec.SnapshotCorrupt {
		t.Fatalf("clean reopen reported damage: %+v", rec)
	}
}

// TestStoreCrashNoClose: a store abandoned without Close (the SIGKILL
// shape) recovers everything from the WAL alone.
func TestStoreCrashNoClose(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := int64(1); i <= 5; i++ {
		if err := s.JobAccepted(info(jobID(i), i, jobs.StatusQueued), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.JobFinalized(info("j3", 3, jobs.StatusDone), "best"); err != nil {
		t.Fatal(err)
	}
	// no Close: the WAL file is simply left behind

	r := openT(t, dir)
	defer r.Close()
	if got := len(r.Jobs()); got != 5 {
		t.Fatalf("recovered %d jobs, want 5", got)
	}
	j3, _ := r.Get("j3")
	if j3.Info.Status != jobs.StatusDone {
		t.Fatalf("j3: %+v", j3.Info)
	}
	if rec := r.Recovery(); rec.Records != 6 {
		t.Fatalf("replayed %d records, want 6 (%+v)", rec.Records, rec)
	}
}

func jobID(i int64) string { return "j" + string(rune('0'+i)) }

// TestFirstFinalizeWins: duplicate finalize records (compaction crash
// replay, or a re-run racing recovery) keep the first terminal state.
func TestFirstFinalizeWins(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	if err := s.JobAccepted(info("j1", 1, jobs.StatusQueued), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.JobFinalized(info("j1", 1, jobs.StatusDone), "first"); err != nil {
		t.Fatal(err)
	}
	if err := s.JobFinalized(info("j1", 1, jobs.StatusFailed), "second"); err != nil {
		t.Fatal(err)
	}
	j, _ := s.Get("j1")
	if j.Info.Status != jobs.StatusDone || string(j.Result) != `"first"` {
		t.Fatalf("second finalize must lose: %+v result=%s", j.Info, j.Result)
	}
}

// TestCompactionPreservesState: crossing the compaction threshold
// folds the WAL into the snapshot with nothing lost, and the WAL
// actually shrinks.
func TestCompactionPreservesState(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.SetCompactEvery(4)
	for i := int64(1); i <= 9; i++ {
		if err := s.JobAccepted(info(jobID(i), i, jobs.StatusQueued), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// 9 appends at compact-every-4: two compactions happened, at most
	// one record sits in the live WAL.
	raw, _ := os.ReadFile(filepath.Join(dir, walName))
	recs, _, derr := checkpoint.DecodeFrames[Record](walMagic, raw)
	if derr != nil || len(recs) > 1 {
		t.Fatalf("live WAL holds %d records (err %v), size %d", len(recs), derr, st.Size())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir)
	defer r.Close()
	if got := len(r.Jobs()); got != 9 {
		t.Fatalf("recovered %d jobs after compaction, want 9", got)
	}
	if r.MaxSeq() != 9 {
		t.Fatalf("MaxSeq = %d", r.MaxSeq())
	}
}

// TestCompactionCrashReplaysIdempotently simulates the crash window
// between snapshot write and WAL truncate: records the snapshot
// already holds replay on top of it without doubling anything.
func TestCompactionCrashReplaysIdempotently(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.JobAccepted(info("j1", 1, jobs.StatusQueued), []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.JobFinalized(info("j1", 1, jobs.StatusDone), 42); err != nil {
		t.Fatal(err)
	}
	// Write the snapshot but "crash" before truncating the WAL.
	walBefore, _ := os.ReadFile(filepath.Join(dir, walName))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, walName), walBefore, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	defer r.Close()
	if got := len(r.Jobs()); got != 1 {
		t.Fatalf("idempotent replay produced %d jobs, want 1", got)
	}
	j, _ := r.Get("j1")
	if j.Info.Status != jobs.StatusDone || string(j.Spec) != `{"a":1}` {
		t.Fatalf("replayed job: %+v spec=%s", j.Info, j.Spec)
	}
}

// TestCorruptSnapshotQuarantined: a damaged snapshot must not brick
// the store — it is moved aside and recovery continues from the WAL.
func TestCorruptSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.JobAccepted(info("j1", 1, jobs.StatusQueued), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Journal one more record so the WAL still holds something.
	if err := s.JobStarted("j1"); err != nil {
		t.Fatal(err)
	}
	s.Close() // final compact folds everything into the snapshot
	snapPath := filepath.Join(dir, snapName)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	defer r.Close()
	rec := r.Recovery()
	if !rec.SnapshotCorrupt || rec.SnapshotErr == "" {
		t.Fatalf("recovery must flag the snapshot: %+v", rec)
	}
	if _, err := os.Stat(snapPath + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
}

// TestWALTornTailTruncated: a partial final record (crash mid-append)
// is cut off, everything before it survives, and the store keeps
// accepting appends afterwards.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := int64(1); i <= 3; i++ {
		if err := s.JobAccepted(info(jobID(i), i, jobs.StatusQueued), nil); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	s.wal.Close()
	s.closed = true
	s.mu.Unlock()
	walPath := filepath.Join(dir, walName)
	raw, _ := os.ReadFile(walPath)
	if err := os.WriteFile(walPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir)
	defer r.Close()
	if got := len(r.Jobs()); got != 2 {
		t.Fatalf("recovered %d jobs after torn tail, want 2", got)
	}
	rec := r.Recovery()
	if rec.WALErr == "" || rec.WALTruncated == 0 {
		t.Fatalf("recovery must report the torn tail: %+v", rec)
	}
	// The log is writable again after the repair.
	if err := r.JobAccepted(info("j9", 9, jobs.StatusQueued), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("j9"); !ok {
		t.Fatal("post-repair append lost")
	}
}

// TestServiceWithStoreEndToEnd wires a real jobs.Service to the store
// and proves the acknowledged-work invariants across a simulated
// restart: finished jobs restore terminal with their results, queued
// jobs are still there to resubmit, and nothing runs twice.
func TestServiceWithStoreEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st := openT(t, dir)
	svc := jobs.New(jobs.Options{Workers: 1, QueueDepth: 16, Journal: st})
	id, err := svc.SubmitJob(jobs.Submission{
		Tenant: "acme", Kind: "tune", Spec: []byte(`{"algo":"linear"}`),
		Run: func(ctx context.Context) (any, error) { return map[string]string{"best": "cores=4"}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := svc.Wait(waitCtx, id); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	st.Close()

	// "Restart": a fresh store + service recover the finished job.
	st2 := openT(t, dir)
	defer st2.Close()
	svc2 := jobs.New(jobs.Options{Workers: 1, QueueDepth: 16, Journal: st2})
	defer svc2.Close()
	svc2.SetNextSeq(st2.MaxSeq())
	for _, js := range st2.Jobs() {
		if js.Info.Status.Finished() {
			svc2.Restore(js.Info, js.Result)
		}
	}
	res, infoGot, err := svc2.Result(id)
	if err != nil || infoGot.Status != jobs.StatusDone {
		t.Fatalf("restored result: %v %+v %v", res, infoGot, err)
	}
	raw, ok := res.(json.RawMessage)
	if !ok {
		t.Fatalf("restored result type %T", res)
	}
	var m map[string]string
	if err := json.Unmarshal(raw, &m); err != nil || m["best"] != "cores=4" {
		t.Fatalf("restored payload: %s err=%v", raw, err)
	}
	// A new submission on the recovered service takes a higher seq.
	id2, err := svc2.Submit("w", func(ctx context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := svc2.Status(id2)
	s1, _ := svc2.Status(id)
	if s2.Seq <= s1.Seq {
		t.Fatalf("recovered seq floor violated: new %d vs old %d", s2.Seq, s1.Seq)
	}
}

// WAL decode edge cases: inputs at the boundaries of the framing
// grammar — an empty image, a tail that is only a frame header, a
// frame whose declared payload length exceeds the bytes that remain,
// and a frame that passes its CRC but does not hold a Record — must
// come back from the frame codec as the precise typed verdicts, never
// a panic or a phantom record.
func TestDecodeWALEdgeCases(t *testing.T) {
	decode := func(raw []byte) ([]Record, int, error) {
		return checkpoint.DecodeFrames[Record](walMagic, raw)
	}
	good, err := checkpoint.EncodeFrame(walMagic, Record{Op: OpAccepted, ID: "j1"})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty image", func(t *testing.T) {
		recs, n, err := decode(nil)
		if err != nil || n != 0 || len(recs) != 0 {
			t.Fatalf("decode(nil) = %v, %d, %v; want clean empty", recs, n, err)
		}
		recs, n, err = decode([]byte{})
		if err != nil || n != 0 || len(recs) != 0 {
			t.Fatalf("decode(empty) = %v, %d, %v; want clean empty", recs, n, err)
		}
	})

	t.Run("header-only tail", func(t *testing.T) {
		// One good record, then a frame cut right after its header line:
		// the header parses but zero payload bytes follow.
		nl := bytes.IndexByte(good, '\n')
		img := append(append([]byte{}, good...), good[:nl+1]...)
		recs, n, err := decode(img)
		if !errors.Is(err, checkpoint.ErrTornTail) {
			t.Fatalf("err = %v, want ErrTornTail", err)
		}
		if len(recs) != 1 || n != len(good) {
			t.Fatalf("prefix = %d record(s), validLen %d; want 1, %d", len(recs), n, len(good))
		}
		// The same tail with nothing before it: zero records, offset 0.
		recs, n, err = decode(good[:nl+1])
		if !errors.Is(err, checkpoint.ErrTornTail) || len(recs) != 0 || n != 0 {
			t.Fatalf("bare header = %v, %d, %v; want torn tail at 0", recs, n, err)
		}
		// A header cut before its newline is also a torn tail, not
		// corruption.
		recs, n, err = decode(good[:nl])
		if !errors.Is(err, checkpoint.ErrTornTail) || len(recs) != 0 || n != 0 {
			t.Fatalf("unterminated header = %v, %d, %v; want torn tail at 0", recs, n, err)
		}
	})

	t.Run("declared length exceeds remaining bytes", func(t *testing.T) {
		// Chop the final payload byte + newline: the header's length field
		// now promises more than the image holds.
		img := append(append([]byte{}, good...), good[:len(good)-2]...)
		recs, n, err := decode(img)
		if !errors.Is(err, checkpoint.ErrTornTail) {
			t.Fatalf("err = %v, want ErrTornTail", err)
		}
		if len(recs) != 1 || n != len(good) {
			t.Fatalf("prefix = %d record(s), validLen %d; want 1, %d", len(recs), n, len(good))
		}
		// An absurd declared length with all framing intact is still a
		// torn tail by the grammar (bytes merely missing), and must not
		// allocate or scan past the image; one past the int range is a
		// malformed header.
		huge := append([]byte("walrec 00000000 9999999999\n"), []byte("x")...)
		recs, n, err = decode(huge)
		if !errors.Is(err, checkpoint.ErrTornTail) || len(recs) != 0 || n != 0 {
			t.Fatalf("huge length = %v, %d, %v; want torn tail at 0", recs, n, err)
		}
		overflow := []byte("walrec 00000000 99999999999999999999\nx")
		recs, n, err = decode(overflow)
		if !errors.Is(err, checkpoint.ErrCorruptFrame) || len(recs) != 0 || n != 0 {
			t.Fatalf("overflowing length = %v, %d, %v; want corrupt frame at 0", recs, n, err)
		}
	})

	t.Run("valid checksum, payload not a record", func(t *testing.T) {
		// The frame is intact and its CRC matches, but the JSON is a
		// string, not a Record: corruption, and the prefix before it
		// survives.
		bad, err := checkpoint.EncodeFrame(walMagic, "not a record")
		if err != nil {
			t.Fatal(err)
		}
		img := append(append(append([]byte{}, good...), bad...), good...)
		recs, n, err := decode(img)
		if !errors.Is(err, checkpoint.ErrCorruptFrame) {
			t.Fatalf("err = %v, want ErrCorruptFrame", err)
		}
		if len(recs) != 1 || recs[0].ID != "j1" || n != len(good) {
			t.Fatalf("prefix = %+v, validLen %d; want the first record, %d", recs, n, len(good))
		}
	})
}
