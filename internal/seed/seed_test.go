package seed

import "testing"

// TestDeriveIdentityAtDefault pins the backward-compatibility
// contract: with the default base, every derived stream seed equals
// its salt, so historical fixed-salt outputs (committed study tables,
// corpus workloads) are reproduced bit for bit.
func TestDeriveIdentityAtDefault(t *testing.T) {
	for _, salt := range []int64{0, 1, 7, 41, 4713, -3, 1 << 40} {
		if got := Derive(Default, salt); got != salt {
			t.Errorf("Derive(Default, %d) = %d, want identity", salt, got)
		}
	}
}

// TestDeriveSeparatesBases: distinct bases must yield distinct derived
// seeds for the same salt (the whole point of re-seeding a run).
func TestDeriveSeparatesBases(t *testing.T) {
	if Derive(1, 7) == Derive(2, 7) {
		t.Error("different bases collide on the same salt")
	}
	if Derive(1, 7) == Derive(1, 8) {
		t.Error("different salts collide under the same base")
	}
}

// TestMixAvalanche: Mix must be deterministic and spread consecutive
// indices far apart (it feeds generator seeds, where neighbouring
// values would correlate the programs).
func TestMixAvalanche(t *testing.T) {
	seen := make(map[int64]bool)
	for i := int64(0); i < 1000; i++ {
		v := Mix(1, i)
		if v != Mix(1, i) {
			t.Fatal("Mix is not deterministic")
		}
		if seen[v] {
			t.Fatalf("Mix(1, %d) collides with an earlier index", i)
		}
		seen[v] = true
	}
	// Crude avalanche check: consecutive indices differ in many bits.
	for i := int64(0); i < 100; i++ {
		x := Mix(1, i) ^ Mix(1, i+1)
		bits := 0
		for x != 0 {
			bits += int(x & 1)
			x = int64(uint64(x) >> 1)
		}
		if bits < 10 {
			t.Fatalf("Mix(1, %d) and Mix(1, %d) differ in only %d bits", i, i+1, bits)
		}
	}
}

// TestRollPinned pins Roll's outputs, so the injectors' recorded fault
// plans (gate seeds, shrunk reproducers) keep firing the same faults.
func TestRollPinned(t *testing.T) {
	for _, c := range []struct {
		base int64
		site string
		key  int64
		want float64
	}{
		{1, "stage:oil", 13, 0.9437173520233275},
		{42, "POST /shards", 114, 0.5200201231571508},
		{-9, "", 0, 0.7288179472482268},
	} {
		if got := Roll(c.base, c.site, c.key); got != c.want {
			t.Errorf("Roll(%d, %q, %d) = %v, want %v", c.base, c.site, c.key, got, c.want)
		}
	}
}
