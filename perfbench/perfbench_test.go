package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"patty/internal/evalcache"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1.4}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample: got %v, want 2.5", got)
	}
}

func TestMeans(t *testing.T) {
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := geomean([]float64{1, 10, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", got)
	}
	if mean(nil) != 0 || geomean(nil) != 0 {
		t.Error("empty sample: want 0")
	}
}

// TestProbeScale: a pass on a host at half the reference speed is
// scaled by one half; without samples nothing is scaled.
func TestProbeScale(t *testing.T) {
	if got := probeScale([]float64{probeRefMS, 3 * probeRefMS}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("probeScale = %v, want 0.5", got)
	}
	if got := probeScale(nil); got != 1 {
		t.Errorf("probeScale(nil) = %v, want 1", got)
	}
	var p hostProbe
	p.sample()
	if len(p.samples) != 1 || p.samples[0] <= 0 {
		t.Errorf("probe samples %v, want one positive time", p.samples)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "program", Start: 0, End: 100},
		// Overlapping children count once: 10..50 is covered.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// Only the part inside the parent counts: 90..100.
		{ID: 4, Parent: 1, Name: "a", Start: 90, End: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
		{ID: 6, Name: "program", Start: 200, End: 210},
	}
	want := map[string]time.Duration{
		"program": 100 - 50 + 10,
		"a":       20 + 30,
		"b":       30 - 10,
		"c":       10,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	ran := false
	if id := r.Do("x", "layer", 0, func() { ran = true }); id != 0 || !ran {
		t.Errorf("nil recorder: id %d, ran %v", id, ran)
	}
	r.Add("x", "layer", 0, time.Now(), time.Now())
	if r.Spans() != nil {
		t.Error("nil recorder returned spans")
	}
}

func TestJobListDeterministic(t *testing.T) {
	progs := corpusSources()
	a := makeJobList(7, 200, 4, progs)
	b := makeJobList(7, 200, 4, progs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different job lists")
	}
	if reflect.DeepEqual(a, makeJobList(8, 200, 4, progs)) {
		t.Fatal("different seeds gave the same job list")
	}

	count := make(map[string]int)
	block := make([]map[string]int, 4)
	tuneKeys := make(map[string]bool)
	fuzzSeeds := make(map[int64]bool)
	for _, j := range a.Originals {
		tuneKeys[j.Body.tuneKey()] = true
	}
	for i, j := range a.Jobs {
		count[j.Class]++
		if block[i/50] == nil {
			block[i/50] = make(map[string]int)
		}
		block[i/50][j.Class]++
		switch j.Class {
		case classTune:
			if tuneKeys[j.Body.tuneKey()] {
				t.Errorf("fresh tune spec %s repeats", j.Body.tuneKey())
			}
			tuneKeys[j.Body.tuneKey()] = true
		case classDup:
			orig := a.Originals[j.Orig]
			if j.Tenant == orig.Tenant {
				t.Errorf("dup sent under its original's tenant %s", j.Tenant)
			}
			if j.Body.tuneKey() != orig.Body.tuneKey() {
				t.Errorf("dup spec %s differs from its original %s", j.Body.tuneKey(), orig.Body.tuneKey())
			}
		case classFuzz:
			if fuzzSeeds[j.Body.Seed] {
				t.Errorf("fuzz seed %d repeats", j.Body.Seed)
			}
			fuzzSeeds[j.Body.Seed] = true
		}
	}
	if want := map[string]int{classTune: 80, classDup: 80, classFuzz: 40}; !reflect.DeepEqual(count, want) {
		t.Errorf("class mix %v, want %v", count, want)
	}
	for i, m := range block {
		if want := map[string]int{classTune: 20, classDup: 20, classFuzz: 10}; !reflect.DeepEqual(m, want) {
			t.Errorf("block %d: class mix %v, want %v", i, m, want)
		}
	}
	// The warm-up originals, and so the set-up's work, do not depend on
	// the seed.
	if c := makeJobList(8, 200, 4, progs); !reflect.DeepEqual(a.Originals, c.Originals) {
		t.Error("warm-up originals differ between seeds 7 and 8")
	}
}

// TestPerturbationKeepsProgramHash: a dup must address its original's
// job-cache entry, or the dup class would measure misses.
func TestPerturbationKeepsProgramHash(t *testing.T) {
	for _, src := range corpusSources() {
		want, err := evalcache.ProgramHash(src)
		if err != nil {
			t.Fatal(err)
		}
		p := perturbComments(src, 3)
		if reflect.DeepEqual(p, src) {
			t.Fatalf("perturbation left %v unchanged", src)
		}
		got, err := evalcache.ProgramHash(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("perturbed program hashes to %s, original to %s", got, want)
		}
	}
}

func TestParseTuneOutput(t *testing.T) {
	out := "algorithm tabu: best map[fuse.crop.histo:1 repl.oil:2 sequential:0], cost 229388 after 10 evaluations\nimproving steps:\n"
	got, err := parseTuneOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	want := tuneAnswer{Best: map[string]int{"fuse.crop.histo": 1, "repl.oil": 2, "sequential": 0}, Cost: 229388, Evaluations: 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if !want.same(tuneAnswer{Best: want.Best, Cost: 229388.2, Evaluations: 10, Resumed: 4}) {
		t.Error("answers differing only in resumed count compare unequal")
	}
	if want.same(tuneAnswer{Best: map[string]int{"repl.oil": 2}, Cost: 229388, Evaluations: 10}) {
		t.Error("answers with different best configurations compare equal")
	}
	if _, err := parseTuneOutput("interrupted: best so far map[]"); err == nil {
		t.Error("unexpected output parsed")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	conv := func(ds []metricDef) []def {
		var out []def
		for _, d := range ds {
			out = append(out, def{d.name, d.unit})
		}
		return out
	}
	if !reflect.DeepEqual(spec.EndToEnd, conv(endToEnd)) {
		t.Errorf("end_to_end %v, program reports %v", spec.EndToEnd, conv(endToEnd))
	}
	if !reflect.DeepEqual(spec.PerLayer, conv(perLayer)) {
		t.Errorf("per_layer %v, program reports %v", spec.PerLayer, conv(perLayer))
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
}

// TestProcCPU: a process's summed thread run times match its own
// rusage and grow while it computes.
func TestProcCPU(t *testing.T) {
	c0 := procCPU(os.Getpid())
	x := 0
	for deadline := time.Now().Add(50 * time.Millisecond); time.Now().Before(deadline); {
		x++
	}
	c1, ru := procCPU(os.Getpid()), cpuTime()
	if c1-c0 < 20*time.Millisecond {
		t.Errorf("procCPU grew by %v over 50ms of spinning (x=%d)", c1-c0, x)
	}
	if d := c1 - ru; d > 20*time.Millisecond || d < -20*time.Millisecond {
		t.Errorf("procCPU %v, rusage %v", c1, ru)
	}
}

// TestE6Totals: the per-program expectations must add up to the totals
// EXPERIMENTS.md E6 reports for each detection mode.
func TestE6Totals(t *testing.T) {
	for _, tc := range []struct {
		dynamic bool
		want    verdict
	}{{true, verdict{16, 2, 4}}, {false, verdict{15, 2, 5}}} {
		progs, err := loadCorpus(1, tc.dynamic)
		if err != nil {
			t.Fatal(err)
		}
		var got verdict
		for _, cp := range progs {
			got.TP += cp.expect.TP
			got.FP += cp.expect.FP
			got.FN += cp.expect.FN
		}
		if got != tc.want || len(progs) != 18 {
			t.Errorf("dynamic=%v: %d programs expect %+v in total, want 18 and %+v", tc.dynamic, len(progs), got, tc.want)
		}
	}
}
