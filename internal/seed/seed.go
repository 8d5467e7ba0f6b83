// Package seed centralizes deterministic-seed plumbing. Every
// randomized subsystem — the differential fuzzer (internal/difftest),
// the evaluation study (internal/study via bench_test.go) and the
// corpus workload generators — derives its stream from one base seed,
// so a single `-seed` flag reproduces a failure byte-for-byte.
package seed

// Default is the repo-wide base seed (the study's historical seed).
const Default int64 = 4713

// Derive folds a base seed into a subsystem-local salt. At the
// default base it returns the salt unchanged, keeping every
// historical workload bit-identical; any other base perturbs all
// salted streams deterministically.
func Derive(base, salt int64) int64 {
	return salt ^ (base ^ Default)
}

// Mix scrambles a (base, index) pair into an independent per-item
// seed using the splitmix64 finalizer, so consecutive indices yield
// uncorrelated generator states.
func Mix(base int64, index int64) int64 {
	z := uint64(base) + uint64(index)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Roll is the seeded decision variable of the fault injectors
// (internal/faultinject, internal/netchaos): base folded with every
// byte of site, mixed with key — the caller's pre-combined item and
// salt — and scaled to a float in [0, 1). A decision is therefore a
// pure function of (base, site, key) and replays bit for bit.
func Roll(base int64, site string, key int64) float64 {
	h := base
	for i := 0; i < len(site); i++ {
		h = Mix(h, int64(site[i]))
	}
	v := uint64(Mix(h, key))
	return float64(v>>11) / float64(1<<53)
}
