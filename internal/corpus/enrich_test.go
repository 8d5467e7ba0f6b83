package corpus

import (
	"reflect"
	"testing"

	"patty/internal/interp"
	"patty/internal/profile"
	"patty/internal/seed"
)

// TestEnrichDynamicMatchesPerTargetReference pins the one-pass
// enrichment to the per-target reference it replaced — one plain run
// for total time and hot-loop shares, then one TargetLoop run per
// executed loop paired by profile.AnalyzeLoop — on every corpus
// program under several workload seeds: Dynamic, HotShare and
// TotalTime must be bit-identical.
func TestEnrichDynamicMatchesPerTargetReference(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	defer SetBaseSeed(seed.Default)
	for _, base := range []int64{1, 2, seed.Default} {
		SetBaseSeed(base)
		for _, p := range All() {
			m, err := p.BuildModel(true)
			if err != nil {
				t.Fatal(err)
			}
			run := func(opts interp.Options) *interp.Profile {
				im := interp.NewMachine(m.Prog)
				_, prof, err := im.Run(p.Entry, p.Args(im), opts)
				if err != nil {
					t.Fatalf("seed %d %s: %v", base, p.Name, err)
				}
				return prof
			}
			plain := run(interp.Options{})
			if m.TotalTime != plain.Total {
				t.Fatalf("seed %d %s: TotalTime %d, reference %d", base, p.Name, m.TotalTime, plain.Total)
			}
			hot := make(map[interp.Ref]float64)
			for _, h := range profile.HotLoops(plain, m.Prog) {
				hot[h.Ref] = h.Share
			}
			for _, lm := range m.AllLoops() {
				ref := interp.Ref{Fn: lm.Fn.Name, Stmt: lm.LoopID}
				if lm.HotShare != hot[ref] {
					t.Fatalf("seed %d %s %v: HotShare %v, reference %v", base, p.Name, ref, lm.HotShare, hot[ref])
				}
				var want *profile.LoopProfile
				if plain.Count[ref] > 0 {
					want = profile.AnalyzeLoop(run(interp.Options{TargetLoop: ref}), lm.Fn, lm.Loop)
				}
				if !reflect.DeepEqual(lm.Dynamic, want) {
					t.Fatalf("seed %d %s %v: Dynamic %+v\nreference %+v", base, p.Name, ref, lm.Dynamic, want)
				}
			}
		}
	}
}
