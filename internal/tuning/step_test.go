package tuning

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"patty/internal/evalcache"
)

// TestStep pins the one evaluation step: its fault rule, its lookup
// order, and that a faulted configuration stays faulted wherever it is
// read back from.
func TestStep(t *testing.T) {
	t.Run("panic_is_faulted", func(t *testing.T) {
		a := map[string]int{"x": 1}
		rec := Measure(func(map[string]int) float64 { panic("worker died") }, a)
		if !rec.Faulted || rec.Cost != 0 || !math.IsInf(rec.EffectiveCost(), 1) {
			t.Fatalf("panicking objective recorded as %+v", rec)
		}
		// The tuning loop survives a panicking objective.
		res := LinearSearch{}.Tune(bowlDims(), bowlStart(), (&Step{}).Objective(func(a map[string]int) float64 {
			if a["x"] == 7 {
				panic("worker died")
			}
			return bowl(a)
		}), 60)
		if res.Err != nil || res.Best["x"] == 7 {
			t.Fatalf("search walked into the panicking configuration: %+v", res)
		}
	})

	t.Run("non_finite_cost_is_faulted", func(t *testing.T) {
		for _, c := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			rec := Measure(func(map[string]int) float64 { return c }, map[string]int{"x": 1})
			if !rec.Faulted || rec.Cost != 0 {
				t.Fatalf("cost %v recorded as %+v", c, rec)
			}
		}
		if rec := Measure(bowl, bowlStart()); rec.Faulted || rec.Cost != bowl(bowlStart()) {
			t.Fatalf("finite cost recorded as %+v", rec)
		}
	})

	t.Run("all_configs_faulted", func(t *testing.T) {
		faulting := func(map[string]int) float64 { return math.Inf(1) }
		step := &Step{}
		res := LinearSearch{}.Tune(bowlDims(), bowlStart(), step.Objective(faulting), 40)
		if !errors.Is(res.Err, ErrAllConfigsFaulted) {
			t.Fatalf("all-faulted search: Err = %v, want ErrAllConfigsFaulted", res.Err)
		}
		if got := len(step.Quarantined()); got != res.Evaluations {
			t.Fatalf("quarantined %d of %d faulted evaluations", got, res.Evaluations)
		}
		// A healthy ridge clears the condition (reachable one dimension at
		// a time, which is how LinearSearch walks).
		oneGood := func(a map[string]int) float64 {
			if a["x"] == 7 {
				return float64(1 + (a["y"]-3)*(a["y"]-3))
			}
			return math.Inf(1)
		}
		res = LinearSearch{}.Tune(bowlDims(), bowlStart(), (&Step{}).Objective(oneGood), 200)
		if res.Err != nil {
			t.Fatalf("search with a healthy config must not error: %v", res.Err)
		}
		if res.Best["x"] != 7 || res.Best["y"] != 3 {
			t.Fatalf("best %v, want the healthy config", res.Best)
		}
	})

	t.Run("cached_fault_reads_back_as_inf", func(t *testing.T) {
		cache, err := evalcache.Open(filepath.Join(t.TempDir(), "cas"), evalcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		faulting := func(a map[string]int) float64 {
			if a["x"]%3 == 1 {
				return math.Inf(1)
			}
			return bowl(a)
		}
		cold := &Step{Cache: cache, Program: "p", Seed: 3}
		coldRes := TabuSearch{}.Tune(bowlDims(), bowlStart(), cold.Objective(faulting), 80)
		if len(cold.Quarantined()) == 0 {
			t.Fatal("the cold search met no faulted configuration")
		}
		for _, key := range cold.Quarantined() {
			if e, ok := cache.Get(evalcache.Key{Program: "p", Config: key, Seed: 3}, ""); !ok || !e.Faulted {
				t.Fatalf("faulted configuration %s cached as %+v (found %v)", key, e, ok)
			}
		}
		warm := &Step{Cache: cache, Program: "p", Seed: 3}
		warmRes := TabuSearch{}.Tune(bowlDims(), bowlStart(), warm.Objective(func(map[string]int) float64 {
			t.Fatal("warm search measured a cached configuration")
			return 0
		}), 80)
		if !reflect.DeepEqual(warmRes, coldRes) {
			t.Fatalf("warm search diverged:\n got %+v\nwant %+v", warmRes, coldRes)
		}
		if !reflect.DeepEqual(warm.Quarantined(), cold.Quarantined()) {
			t.Fatalf("quarantine sets: warm %v, cold %v", warm.Quarantined(), cold.Quarantined())
		}
	})

	t.Run("journal_then_cache_then_measure", func(t *testing.T) {
		cache, err := evalcache.Open(filepath.Join(t.TempDir(), "cas"), evalcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		ck, _, err := NewCheckpointer("", SearchMeta{})
		if err != nil {
			t.Fatal(err)
		}
		journaled, cached, fresh := map[string]int{"x": 1}, map[string]int{"x": 2}, map[string]int{"x": 3}
		ck.Record(EvalRecord{Assignment: journaled, Cost: 10})
		for _, a := range []map[string]int{journaled, cached} {
			cache.Put(evalcache.Entry{Program: "p", Config: AssignKey(a), Cost: 20})
		}
		step := &Step{Journal: ck, Cache: cache, Program: "p"}
		measured := 0
		obj := func(map[string]int) float64 { measured++; return 30 }
		for _, tc := range []struct {
			a    map[string]int
			want float64
		}{{journaled, 10}, {cached, 20}, {fresh, 30}} {
			if got := step.Eval(tc.a, obj); got.Cost != tc.want {
				t.Fatalf("Eval(%v) = %+v, want cost %v", tc.a, got, tc.want)
			}
		}
		if measured != 1 {
			t.Fatalf("measured %d times, want only the configuration in neither store", measured)
		}
		if rec, ok := ck.Lookup(AssignKey(cached)); !ok || rec.Cost != 20 {
			t.Fatalf("cache hit not journaled: %+v %v", rec, ok)
		}
		if e, ok := cache.Get(evalcache.Key{Program: "p", Config: AssignKey(fresh)}, ""); !ok || e.Cost != 30 {
			t.Fatalf("measurement not cached: %+v %v", e, ok)
		}
	})
}
