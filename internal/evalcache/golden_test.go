package evalcache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"patty/internal/checkpoint"
)

// goldenSegment is the file whose frames goldenEntries lists. It was
// written by the cache's encoder and is never regenerated: a segment
// left on disk by an older build must keep opening.
const goldenSegment = "testdata/seg-00000001.cas"

// goldenEntries covers every field shape a frame carries: a plain
// cost, a faulted measurement, a whole-job payload, a zero seed
// (omitted on the wire) and a later correction of the first key.
func goldenEntries() []Entry {
	return []Entry{
		{Program: "sha256:7f1c", Config: "fuse.crop.histo=0;repl.oil=1;sequential=1;", Seed: 1, Cost: 622080, Tenant: "acme"},
		{Program: "sha256:7f1c", Config: "fuse.crop.histo=0;repl.oil=7;sequential=0;", Seed: 1, Cost: 81993, Tenant: "acme"},
		{Program: "sha256:7f1c", Config: "fuse.crop.histo=1;repl.oil=3;sequential=0;", Seed: 1, Faulted: true, Tenant: "globex"},
		{Program: "sha256:job", Config: "job", Payload: []byte(`{"best":{"repl.oil":7},"cost":81993}`), Tenant: "globex"},
		{Program: "sha256:7f1c", Config: "fuse.crop.histo=0;repl.oil=1;sequential=1;", Seed: 1, Cost: 622079.5},
	}
}

// TestGoldenSegment: the checked-in segment decodes to exactly
// goldenEntries, re-encoding them reproduces the file byte for byte,
// and a store opened on it answers every key with its last-written
// entry.
func TestGoldenSegment(t *testing.T) {
	raw, err := os.ReadFile(goldenSegment)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenEntries()
	got, validLen, err := checkpoint.DecodeFrames[Entry](segMagic, raw)
	if err != nil || validLen != len(raw) {
		t.Fatalf("decode: validLen %d of %d, err %v", validLen, len(raw), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded entries differ:\n got %+v\nwant %+v", got, want)
	}
	var enc []byte
	for _, e := range want {
		frame, err := checkpoint.EncodeFrame(segMagic, e)
		if err != nil {
			t.Fatal(err)
		}
		enc = append(enc, frame...)
	}
	if !bytes.Equal(enc, raw) {
		t.Fatalf("re-encoded segment differs from the golden file:\n got %q\nwant %q", enc, raw)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rec := s.Recovery(); rec.TornBytes != 0 || len(rec.Quarantined) != 0 || s.Len() != 4 {
		t.Fatalf("recovery %+v, %d entries; want clean, 4", rec, s.Len())
	}
	for _, e := range want[1:] {
		if got, ok := s.Get(e.Key(), ""); !ok || !sameEntry(got, e) {
			t.Fatalf("key %s: got %+v (hit %v), want %+v", e.Key(), got, ok, e)
		}
	}
}
