package evalcache

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"patty/internal/obs"
)

func testEntry(i int, cost float64) Entry {
	return Entry{Program: "prog", Config: fmt.Sprintf("c=%d", i), Seed: 1, Cost: cost}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(testEntry(i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 20 {
		t.Fatalf("reopened store has %d entries, want 20", s2.Len())
	}
	for i := 0; i < 20; i++ {
		e, ok := s2.Get(testEntry(i, 0).Key(), "")
		if !ok {
			t.Fatalf("entry %d missing after reopen", i)
		}
		if e.Cost != float64(i) {
			t.Fatalf("entry %d cost %v, want %d", i, e.Cost, i)
		}
	}
}

func TestStoreFirstWinsAndCorrectOverrides(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(1, 10)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	// Put is first-wins: a second write of the key is a no-op.
	dup := e
	dup.Cost = 99
	if err := s.Put(dup); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(e.Key(), ""); got.Cost != 10 {
		t.Fatalf("Put overwrote: cost %v, want 10", got.Cost)
	}
	// Correct overrides — the byzantine-repair path.
	fix := e
	fix.Cost = 42
	if err := s.Correct(fix); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(e.Key(), ""); got.Cost != 42 {
		t.Fatalf("Correct did not override: cost %v", got.Cost)
	}
	s.Close()

	// The override must be durable: replay is last-wins.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, _ := s2.Get(e.Key(), ""); got.Cost != 42 {
		t.Fatalf("Correct lost across reopen: cost %v", got.Cost)
	}
}

func TestStoreFaultedRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := Entry{Program: "p", Config: "c", Faulted: true}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get(e.Key(), "")
	if !ok || !got.Faulted {
		t.Fatalf("faulted entry lost: %+v ok=%v", got, ok)
	}
}

func TestStoreEvictionBounded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := obs.New()
	// Tiny segments and a tiny budget force constant eviction.
	s, err := Open(dir, Options{MaxBytes: 2048, SegmentBytes: 512, Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		if err := s.Put(testEntry(i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// The bound allows the active segment to exceed transiently by one
	// frame; sealed-segment FIFO keeps the footprint near MaxBytes.
	if st.Bytes > 2048+512 {
		t.Fatalf("store grew past its bound: %d bytes", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded under a tiny budget")
	}
	if c.Snapshot().Counters["cache.evictions"] != st.Evictions {
		t.Fatal("cache.evictions counter disagrees with Stats")
	}
	// Recent keys survive; the oldest are gone.
	if _, ok := s.Get(testEntry(199, 0).Key(), ""); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := s.Get(testEntry(0, 0).Key(), ""); ok {
		t.Fatal("oldest entry survived a 2KB budget holding 200 entries")
	}
}

func TestStoreEvictionKeepsSupersededKeys(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{MaxBytes: 1 << 20, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Write the key, then enough filler to rotate it out of the active
	// segment, then Correct it (new frame in a newer segment).
	e := testEntry(0, 1)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if err := s.Put(testEntry(i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	fix := e
	fix.Cost = 7
	if err := s.Correct(fix); err != nil {
		t.Fatal(err)
	}
	// Evict segment 1 (where the stale frame lives) by shrinking the
	// budget through direct writes.
	s.mu.Lock()
	s.opts.MaxBytes = 1 // force eviction of everything sealed
	s.evict()
	s.mu.Unlock()
	got, ok := s.Get(e.Key(), "")
	if !ok {
		t.Fatal("corrected key evicted with its superseded segment")
	}
	if got.Cost != 7 {
		t.Fatalf("corrected key cost %v, want 7", got.Cost)
	}
}

func TestStoreTenantHitAttribution(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := obs.New()
	s, err := Open(dir, Options{Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := testEntry(1, 5)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	s.Get(e.Key(), "alice")
	s.Get(e.Key(), "alice")
	s.Get(e.Key(), "bob")
	s.Get(e.Key(), "") // anonymous: counted globally only
	s.Get(Key{Program: "nope", Config: "c"}, "alice")
	snap := c.Snapshot()
	if got := snap.Counters["cache.hits"]; got != 4 {
		t.Fatalf("cache.hits = %d, want 4", got)
	}
	if got := snap.Counters["cache.misses"]; got != 1 {
		t.Fatalf("cache.misses = %d, want 1", got)
	}
	if got := snap.Counters["cache.tenant.alice.hits"]; got != 2 {
		t.Fatalf("alice hits = %d, want 2", got)
	}
	if got := snap.Counters["cache.tenant.bob.hits"]; got != 1 {
		t.Fatalf("bob hits = %d, want 1", got)
	}
}

func TestStoreConcurrentPutGet(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e := testEntry(i, float64(i)) // shared keys: races resolve first-wins
				if err := s.Put(e); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(e.Key(), "t"); ok && got.Cost != float64(i) {
					t.Errorf("wrong hit: %+v", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 50 {
		t.Fatalf("index holds %d keys, want 50", s.Len())
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 50 {
		t.Fatalf("reopen holds %d keys, want 50", s2.Len())
	}
}

func TestStoreCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(testEntry(i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede half the keys so compaction has dead frames to drop.
	for i := 0; i < 10; i++ {
		fix := testEntry(i, float64(i)+100)
		if err := s.Correct(fix); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Entries != before.Entries {
		t.Fatalf("compact changed entry count: %d -> %d", before.Entries, after.Entries)
	}
	if after.Bytes >= before.Bytes {
		t.Fatalf("compact did not shrink the store: %d -> %d bytes", before.Bytes, after.Bytes)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 10; i++ {
		got, ok := s2.Get(testEntry(i, 0).Key(), "")
		if !ok || got.Cost != float64(i)+100 {
			t.Fatalf("entry %d after compact+reopen: %+v ok=%v", i, got, ok)
		}
	}
}

func TestVerifyDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(testEntry(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 1 || rep.Entries != 5 || len(rep.Problems) != 0 {
		t.Fatalf("clean store verify: %+v", rep)
	}
}
