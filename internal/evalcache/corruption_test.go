package evalcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// sweepEntry builds the i-th distinguishable test entry.
func sweepEntry(i int) Entry {
	return Entry{
		Program: fmt.Sprintf("prog-%02d", i),
		Config:  fmt.Sprintf("cores=%d|repl.oil=%d", i%4+1, i),
		Seed:    int64(i),
		Cost:    float64(i) * 1.5,
		Tenant:  "t1",
	}
}

// sameEntry compares entries field-wise; Payload needs bytes.Equal.
func sameEntry(a, b Entry) bool {
	return a.Program == b.Program && a.Config == b.Config && a.Seed == b.Seed &&
		a.Cost == b.Cost && a.Faulted == b.Faulted && a.Tenant == b.Tenant &&
		bytes.Equal(a.Payload, b.Payload)
}

// TestStoreOpenCorruptionEveryOffset drives the same sweep through the
// full recovery path: for every single-byte flip of a real segment
// file, Open must succeed, never panic, index only undamaged entries
// with their exact original costs (no false hits), and either truncate
// the torn tail or quarantine the corrupt file — after which a second
// Open must come up clean with the surviving entries intact.
func TestStoreOpenCorruptionEveryOffset(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is file-IO heavy")
	}
	// Build a clean one-segment store image.
	master := t.TempDir()
	s, err := Open(filepath.Join(master, "cache"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 4
	want := make(map[string]Entry)
	for i := 1; i <= n; i++ {
		e := sweepEntry(i)
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		want[e.Key().String()] = e
	}
	s.Close()
	segPath := filepath.Join(master, "cache", segmentName(1))
	img, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	for off := 0; off < len(img); off++ {
		mut := bytes.Clone(img)
		mut[off] ^= 0xff
		dir := filepath.Join(t.TempDir(), "cache")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("flip at %d: Open failed: %v", off, err)
		}
		// Never a false hit: every indexed entry must match its
		// original bit-for-bit.
		recovered := 0
		for k, orig := range want {
			got, ok := s2.Get(orig.Key(), "")
			if !ok {
				continue
			}
			recovered++
			if !sameEntry(got, orig) {
				t.Fatalf("flip at %d: key %s recovered altered entry %+v", off, k, got)
			}
		}
		if recovered > n {
			t.Fatalf("flip at %d: recovered %d entries from a %d-entry image", off, recovered, n)
		}
		rec := s2.Recovery()
		if rec.TornBytes == 0 && len(rec.Quarantined) == 0 && recovered != n {
			t.Fatalf("flip at %d: lost entries (%d/%d) without recorded damage", off, recovered, n)
		}
		s2.Close()

		// The repaired directory must reopen clean with nothing lost.
		s3, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("flip at %d: reopen after repair failed: %v", off, err)
		}
		for _, orig := range want {
			got, ok := s3.Get(orig.Key(), "")
			if !ok {
				continue
			}
			if !sameEntry(got, orig) {
				t.Fatalf("flip at %d: reopened entry altered: %+v", off, got)
			}
		}
		if s3.Len() != recovered {
			t.Fatalf("flip at %d: repair lost entries across restart: %d then %d", off, recovered, s3.Len())
		}
		if r3 := s3.Recovery(); len(r3.Quarantined) != 0 || r3.TornBytes != 0 {
			t.Fatalf("flip at %d: second open still sees damage: %+v", off, r3)
		}
		s3.Close()
	}
}
