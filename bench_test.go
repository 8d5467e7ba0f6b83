package patty

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers):
//
//	E1  BenchmarkTable1_Comprehensibility
//	E2  BenchmarkTable2_Subjective
//	E3  BenchmarkFigure5a_DesiredFeatures
//	E4  BenchmarkFigure5b_Times
//	E5  BenchmarkEffectivity
//	E6  BenchmarkPrecisionRecall (+ static ablation)
//	E7  BenchmarkSpeedupVsManual, BenchmarkAnalysisOverhead
//	E8  BenchmarkEndToEndProcess
//	E9  BenchmarkAblation{Replication,Fusion,Order,SequentialFallback}
//	E10 BenchmarkRaceDetection
//	E11 BenchmarkTunerAlgorithms
//
// Each bench prints its reproduced rows once (so `go test -bench=.`
// output is the artifact) and reports the headline numbers as metrics.

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"patty/internal/baseline"
	"patty/internal/corpus"
	"patty/internal/interp"
	"patty/internal/model"
	"patty/internal/parrt"
	"patty/internal/pattern"
	"patty/internal/perfmodel"
	"patty/internal/ptest"
	"patty/internal/sched"
	"patty/internal/seed"
	"patty/internal/source"
	"patty/internal/study"
	"patty/internal/tuning"
)

// benchSeed is the repo-wide deterministic base seed (README
// "Reproducibility"): it drives the study simulation and, via
// corpus.SetBaseSeed, every corpus workload generator. The default
// regenerates the committed tables bit for bit; any other value
// re-randomizes all inputs coherently, e.g.
//
//	go test -bench=. -benchtime 1x -seed 99 .
var benchSeed = flag.Int64("seed", seed.Default, "base seed for the study simulation and corpus workloads")

func TestMain(m *testing.M) {
	flag.Parse()
	corpus.SetBaseSeed(*benchSeed)
	os.Exit(m.Run())
}

var printOnce sync.Map

func printHeader(name, body string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, body)
	}
}

// --- E1-E5: user study tables -------------------------------------------

func studyResults() *study.Results {
	return study.Run(*benchSeed, study.PaperOutcome())
}

func BenchmarkTable1_Comprehensibility(b *testing.B) {
	var res *study.Results
	for i := 0; i < b.N; i++ {
		res = studyResults()
	}
	printHeader("E1 / paper Table 1", res.FormatTable1())
	b.ReportMetric(res.Table1Patty, "patty-total")
	b.ReportMetric(res.Table1Intel, "intel-total")
}

func BenchmarkTable2_Subjective(b *testing.B) {
	var res *study.Results
	for i := 0; i < b.N; i++ {
		res = studyResults()
	}
	printHeader("E2 / paper Table 2", res.FormatTable2())
	b.ReportMetric(res.Table2Patty, "patty-overall")
	b.ReportMetric(res.Table2Intel, "intel-overall")
}

func BenchmarkFigure5a_DesiredFeatures(b *testing.B) {
	var res *study.Results
	for i := 0; i < b.N; i++ {
		res = studyResults()
	}
	printHeader("E3 / paper Figure 5a", res.FormatFig5a())
	patty, intel := 0, 0
	for _, f := range res.Fig5a {
		if f.PattyHas {
			patty++
		}
		if f.IntelHas {
			intel++
		}
	}
	b.ReportMetric(float64(patty), "patty-features")
	b.ReportMetric(float64(intel), "intel-features")
}

func BenchmarkFigure5b_Times(b *testing.B) {
	var res *study.Results
	for i := 0; i < b.N; i++ {
		res = studyResults()
	}
	printHeader("E4 / paper Figure 5b", res.FormatFig5b())
	for _, t := range res.Fig5b {
		b.ReportMetric(t.TotalWork, t.Group.String()+"-total-min")
	}
}

func BenchmarkEffectivity(b *testing.B) {
	var res *study.Results
	for i := 0; i < b.N; i++ {
		res = studyResults()
	}
	printHeader("E5 / paper §4.2 Effectivity", res.FormatEffectivity())
	for _, e := range res.Effectivity {
		b.ReportMetric(e.FoundAvg, e.Group.String()+"-found")
	}
}

// --- E6: detection precision/recall --------------------------------------

func formatScores(scores []corpus.Score) string {
	s := fmt.Sprintf("%-22s %4s %4s %4s %10s %8s %8s\n", "detector", "TP", "FP", "FN", "precision", "recall", "F1")
	for _, sc := range scores {
		s += fmt.Sprintf("%-22s %4d %4d %4d %10.2f %8.2f %8.2f\n",
			sc.Detector, sc.TP, sc.FP, sc.FN, sc.Precision, sc.Recall, sc.F1)
	}
	return s
}

func BenchmarkPrecisionRecall(b *testing.B) {
	dets := []baseline.Detector{
		baseline.Patty{},
		baseline.HotspotProfiler{},
		baseline.StaticConservative{},
	}
	var scores []corpus.Score
	var err error
	for i := 0; i < b.N; i++ {
		scores, err = corpus.Evaluate(dets, corpus.All(), true)
		if err != nil {
			b.Fatal(err)
		}
	}
	printHeader("E6 / paper §5 detection quality (paper: F-score ≈ 0.70)",
		fmt.Sprintf("corpus: %d programs, %d LoC\n%s", len(corpus.All()), corpus.TotalLoC(), formatScores(scores)))
	for _, sc := range scores {
		b.ReportMetric(sc.F1, sc.Detector+"-F1")
	}
}

func BenchmarkPrecisionRecallStaticAblation(b *testing.B) {
	var dyn, st []corpus.Score
	var err error
	for i := 0; i < b.N; i++ {
		dyn, err = corpus.Evaluate([]baseline.Detector{baseline.Patty{}}, corpus.All(), true)
		if err != nil {
			b.Fatal(err)
		}
		st, err = corpus.Evaluate([]baseline.Detector{
			baseline.Patty{Options: pattern.Options{StaticOnly: true}},
		}, corpus.All(), false)
		if err != nil {
			b.Fatal(err)
		}
	}
	printHeader("E6-ablation / optimistic vs static-only dependence analysis",
		fmt.Sprintf("optimistic (dynamic): P=%.2f R=%.2f F1=%.2f\nstatic-only:          P=%.2f R=%.2f F1=%.2f",
			dyn[0].Precision, dyn[0].Recall, dyn[0].F1, st[0].Precision, st[0].Recall, st[0].F1))
	b.ReportMetric(dyn[0].Recall, "optimistic-recall")
	b.ReportMetric(st[0].Recall, "static-recall")
}

// --- E7: performance vs manual, analysis overhead ------------------------

// latencyStage models an I/O-bound filter so pipeline overlap shows
// even on a single-core host.
func latencyStage(d time.Duration, f func(*int)) parrt.StageFunc[int] {
	return func(v *int) {
		time.Sleep(d)
		f(v)
	}
}

func BenchmarkSpeedupVsManual(b *testing.B) {
	const frames = 32
	mk := func() []*int {
		items := make([]*int, frames)
		for i := range items {
			v := i
			items[i] = &v
		}
		return items
	}
	sequential := func(items []*int) {
		for _, v := range items {
			time.Sleep(2 * time.Millisecond)
			*v *= 3
			time.Sleep(5 * time.Millisecond)
			*v += 7
		}
	}
	// "Manual parallelization by a skilled engineer": hand-written
	// worker pool over the whole item set.
	manual := func(items []*int) {
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.NumCPU()*4)
		for _, v := range items {
			wg.Add(1)
			sem <- struct{}{}
			go func(v *int) {
				defer wg.Done()
				time.Sleep(2 * time.Millisecond)
				*v *= 3
				time.Sleep(5 * time.Millisecond)
				*v += 7
				<-sem
			}(v)
		}
		wg.Wait()
	}
	ps := parrt.NewParams()
	pipe := parrt.NewPipeline("e7", ps,
		parrt.Stage[int]{Name: "A", Replicable: true, MaxReplication: 8,
			Fn: latencyStage(2*time.Millisecond, func(v *int) { *v *= 3 })},
		parrt.Stage[int]{Name: "B", Replicable: true, MaxReplication: 8,
			Fn: latencyStage(5*time.Millisecond, func(v *int) { *v += 7 })},
	)
	ps.Set("pipeline.e7.stage.1.replication", 4)

	timeIt := func(f func([]*int)) time.Duration {
		items := mk()
		start := time.Now()
		f(items)
		return time.Since(start)
	}
	var seq, man, gen time.Duration
	for i := 0; i < b.N; i++ {
		seq = timeIt(sequential)
		man = timeIt(manual)
		gen = timeIt(func(items []*int) { pipe.Process(items) })
	}
	printHeader("E7 / paper §5 'performance close to manual parallelization'",
		fmt.Sprintf("sequential: %7.1f ms\nmanual:     %7.1f ms (%.2fx)\npatty:      %7.1f ms (%.2fx)\npatty achieves %.0f%% of the hand-parallelized speedup",
			ms(seq), ms(man), float64(seq)/float64(man),
			ms(gen), float64(seq)/float64(gen),
			100*(float64(seq)/float64(gen))/(float64(seq)/float64(man))))
	b.ReportMetric(float64(seq)/float64(gen), "patty-speedup")
	b.ReportMetric(float64(seq)/float64(man), "manual-speedup")
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func BenchmarkAnalysisOverhead(b *testing.B) {
	prog := corpus.Get("video")
	parsed, err := prog.Load()
	if err != nil {
		b.Fatal(err)
	}
	var plain, enriched time.Duration
	for i := 0; i < b.N; i++ {
		im := interp.NewMachine(parsed)
		start := time.Now()
		if _, _, err := im.Run(prog.Entry, prog.Args(im), interp.Options{}); err != nil {
			b.Fatal(err)
		}
		plain += time.Since(start)

		m := model.Build(parsed)
		start = time.Now()
		if err := m.EnrichDynamic(prog.Workload()); err != nil {
			b.Fatal(err)
		}
		enriched += time.Since(start)
	}
	overhead := float64(enriched) / float64(plain)
	printHeader("E7b / dynamic-analysis overhead (paper §5 wants it quantified)",
		fmt.Sprintf("untraced interpretation: %.2f ms/run\ndependence profiling of every loop (model.EnrichDynamic): %.2f ms/run\noverhead factor: %.2fx",
			ms(plain)/float64(b.N), ms(enriched)/float64(b.N), overhead))
	b.ReportMetric(overhead, "trace-overhead-x")
}

// --- E8: end-to-end process ----------------------------------------------

func BenchmarkEndToEndProcess(b *testing.B) {
	prog := corpus.Get("video")
	w := prog.Workload()
	var arts *Artifacts
	var err error
	for i := 0; i < b.N; i++ {
		arts, err = Parallelize(map[string]string{"video.go": prog.Source}, &w)
		if err != nil {
			b.Fatal(err)
		}
	}
	printHeader("E8 / paper Fig. 3 end-to-end",
		fmt.Sprintf("candidates: %d, generated files: %d, tuning parameters: %d, unit tests: %d\narchitecture: %s",
			len(arts.Report.Candidates), len(arts.Outputs),
			len(arts.TuningConfig.Entries), len(arts.UnitTests),
			arts.Report.Candidates[0].Arch))
	b.ReportMetric(float64(len(arts.TuningConfig.Entries)), "tuning-params")
}

// --- E9: tuning-parameter ablations (performance model) ------------------

func videoModelStages() []perfmodel.Stage {
	return []perfmodel.Stage{
		{Name: "crop", Time: 200, Replicable: true},
		{Name: "histo", Time: 240, Replicable: true},
		{Name: "oil", Time: 1600, Jitter: 300, Replicable: true},
		{Name: "conv", Time: 180, Replicable: true},
		{Name: "add", Time: 60},
	}
}

func BenchmarkAblationReplication(b *testing.B) {
	var pts []perfmodel.Point
	for i := 0; i < b.N; i++ {
		pts = perfmodel.ReplicationSweep(videoModelStages(),
			perfmodel.Config{Cores: 8, Items: 256}, 2, []int{1, 2, 3, 4, 6, 8})
	}
	printHeader("E9a / StageReplication ('a value of two effectively doubles the frequency')",
		perfmodel.FormatPoints("speedup vs oil replication", pts))
	b.ReportMetric(pts[1].Speedup/pts[0].Speedup, "x2-gain")
}

func BenchmarkAblationFusion(b *testing.B) {
	stages := []perfmodel.Stage{
		{Name: "a", Time: 10, Replicable: true},
		{Name: "b", Time: 12, Replicable: true},
		{Name: "heavy", Time: 400},
	}
	var unfused, fused perfmodel.Result
	for i := 0; i < b.N; i++ {
		cfg := perfmodel.Config{Cores: 1, Items: 400, HandoffOverhead: 50}
		unfused = perfmodel.Simulate(stages, cfg)
		cfg.Fuse = []bool{true, false}
		fused = perfmodel.Simulate(stages, cfg)
	}
	printHeader("E9b / StageFusion (cheap neighbouring stages share a thread)",
		fmt.Sprintf("unfused makespan: %d ticks\nfused makespan:   %d ticks (%.1f%% saved)",
			unfused.Makespan, fused.Makespan,
			100*(1-float64(fused.Makespan)/float64(unfused.Makespan))))
	b.ReportMetric(float64(unfused.Makespan)/float64(fused.Makespan), "fusion-gain-x")
}

func BenchmarkAblationOrder(b *testing.B) {
	stages := []perfmodel.Stage{
		{Name: "hot", Time: 400, Jitter: 350, Replicable: true},
		{Name: "sink", Time: 40},
	}
	var ordered, unordered perfmodel.Result
	for i := 0; i < b.N; i++ {
		cfg := perfmodel.Config{Cores: 8, Items: 400, Replication: []int{4, 1}, BufCap: 4}
		unordered = perfmodel.Simulate(stages, cfg)
		cfg.OrderPreserve = true
		ordered = perfmodel.Simulate(stages, cfg)
	}
	printHeader("E9c / OrderPreservation cost under jittered replication",
		fmt.Sprintf("unordered makespan: %d ticks\nordered makespan:   %d ticks (+%.1f%%)",
			unordered.Makespan, ordered.Makespan,
			100*(float64(ordered.Makespan)/float64(unordered.Makespan)-1)))
	b.ReportMetric(float64(ordered.Makespan)/float64(unordered.Makespan), "order-cost-x")
}

func BenchmarkAblationSequentialFallback(b *testing.B) {
	var pts []perfmodel.Point
	for i := 0; i < b.N; i++ {
		pts = perfmodel.StreamLengthSweep(videoModelStages(),
			perfmodel.Config{Cores: 8, Replication: []int{1, 1, 4, 1, 1}},
			[]int{1, 2, 4, 8, 16, 64, 256, 1024})
	}
	cross := -1
	for _, p := range pts {
		if p.Speedup >= 1.0 {
			cross = p.X
			break
		}
	}
	printHeader("E9d / SequentialExecution ('never leads to a slowdown': crossover by stream length)",
		perfmodel.FormatPoints("speedup vs stream length", pts)+
			fmt.Sprintf("\nparallel execution pays off from ~%d elements; below that the runtime falls back to sequential", cross))
	b.ReportMetric(float64(cross), "crossover-items")
}

// --- E10: race detection on generated unit tests -------------------------

func BenchmarkRaceDetection(b *testing.B) {
	// Plant the bug of §2.1/[22]: a loop with a genuine carried
	// dependence mislabelled as data-parallel.
	src := `package p
func F(a []int, n int) int {
	last := 0
	for i := 0; i < n; i++ {
		last = a[i]
	}
	return last
}`
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		b.Fatal(err)
	}
	m := model.Build(prog)
	lm := m.AllLoops()[0]
	cand := pattern.Candidate{
		Kind:   pattern.DataParallelKind,
		Fn:     "F",
		LoopID: lm.LoopID,
		Stages: []pattern.Stage{{Label: "A", Stmts: lm.Static.Body, Replicable: true}},
	}
	bounds := []int{0, 1, 2, -1}
	type row struct {
		bound     int
		schedules int
		races     int
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, bound := range bounds {
			ut, err := ptest.Generate(m, cand, ptest.Options{Threads: 2, Iters: 2})
			if err != nil {
				b.Fatal(err)
			}
			res := ut.Run(sched.Options{PreemptionBound: bound, MaxSchedules: 50000})
			rows = append(rows, row{bound, res.Schedules, len(res.Races)})
		}
	}
	body := fmt.Sprintf("%-18s %10s %6s\n", "preemption bound", "schedules", "races")
	for _, r := range rows {
		bound := fmt.Sprint(r.bound)
		if r.bound < 0 {
			bound = "unbounded"
		}
		body += fmt.Sprintf("%-18s %10d %6d\n", bound, r.schedules, r.races)
	}
	printHeader("E10 / CHESS-style race search on a planted bug (paper [22]: high accuracy in minutes)", body)
	b.ReportMetric(float64(rows[len(rows)-1].schedules), "schedules-unbounded")
	if rows[1].races == 0 {
		b.Fatal("preemption bound 1 must already find the planted race")
	}
}

// --- E11: auto-tuner algorithms ------------------------------------------

func BenchmarkTunerAlgorithms(b *testing.B) {
	stages := videoModelStages()
	dims := []tuning.Dim{
		{Key: "repl", Min: 1, Max: 8},
		{Key: "fuse01", Min: 0, Max: 1},
		{Key: "seq", Min: 0, Max: 1},
	}
	obj := func(a map[string]int) float64 {
		cfg := perfmodel.Config{
			Cores: 8, Items: 256,
			Replication: []int{1, 1, a["repl"], 1, 1},
			Fuse:        []bool{a["fuse01"] == 1, false, false, false},
			Sequential:  a["seq"] == 1,
		}
		return float64(perfmodel.Simulate(stages, cfg).Makespan)
	}
	start := map[string]int{"repl": 1, "fuse01": 0, "seq": 1}
	tuners := []tuning.Tuner{
		tuning.LinearSearch{}, tuning.NelderMead{}, tuning.TabuSearch{}, tuning.RandomSearch{Seed: 1},
	}
	type row struct {
		name  string
		cost  float64
		evals int
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, tn := range tuners {
			res := tn.Tune(dims, start, obj, 60)
			rows = append(rows, row{tn.Name(), res.BestCost, res.Evaluations})
		}
	}
	body := fmt.Sprintf("%-14s %12s %8s\n", "algorithm", "best ticks", "evals")
	for _, r := range rows {
		body += fmt.Sprintf("%-14s %12.0f %8d\n", r.name, r.cost, r.evals)
	}
	printHeader("E11 / auto-tuning cycle (paper: linear baseline; [29-31] future work)", body)
	for _, r := range rows {
		b.ReportMetric(r.cost, r.name+"-ticks")
	}
}

// --- runtime-library microbenches ----------------------------------------

func BenchmarkPipelineThroughput(b *testing.B) {
	ps := parrt.NewParams()
	pipe := parrt.NewPipeline("micro", ps,
		parrt.Stage[int]{Name: "A", Replicable: true, Fn: func(v *int) { *v++ }},
		parrt.Stage[int]{Name: "B", Replicable: true, Fn: func(v *int) { *v *= 2 }},
	)
	items := make([]*int, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range items {
			v := j
			items[j] = &v
		}
		pipe.Process(items)
	}
	b.ReportMetric(float64(1024*b.N)/b.Elapsed().Seconds(), "items/s")
}

func BenchmarkParallelForSchedules(b *testing.B) {
	for _, sched := range []parrt.Schedule{parrt.StaticSchedule, parrt.DynamicSchedule, parrt.GuidedSchedule} {
		b.Run(sched.String(), func(b *testing.B) {
			ps := parrt.NewParams()
			pf := parrt.NewParallelFor("micro", ps, 0)
			ps.Set("parallelfor.micro.schedule", int(sched))
			sink := make([]int, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pf.For(len(sink), func(k int) { sink[k] = k * k })
			}
		})
	}
}

func BenchmarkReduce(b *testing.B) {
	ps := parrt.NewParams()
	pf := parrt.NewParallelFor("red", ps, 0)
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		total = parrt.Reduce(pf, 4096, 0, func(k int) int { return k }, func(a, c int) int { return a + c })
	}
	_ = total
}

func BenchmarkMasterWorker(b *testing.B) {
	ps := parrt.NewParams()
	mw := parrt.NewMasterWorker("micro", ps, 0, func(x int) int { return x * x })
	tasks := make([]int, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mw.Process(tasks)
	}
}

func BenchmarkInterpreter(b *testing.B) {
	prog := corpus.Get("mandelbrot")
	parsed, err := prog.Load()
	if err != nil {
		b.Fatal(err)
	}
	var ticks uint64
	for i := 0; i < b.N; i++ {
		m := interp.NewMachine(parsed)
		_, prof, err := m.Run(prog.Entry, prog.Args(m), interp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ticks = prof.Total
	}
	b.ReportMetric(float64(ticks)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mticks/s")
}

func BenchmarkSchedExploration(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		res := sched.Explore(sched.Options{PreemptionBound: -1}, func(w *sched.World) {
			c := w.Var("c", 0)
			m := w.Mutex("m")
			for t := 0; t < 3; t++ {
				w.Spawn(fmt.Sprint("t", t), func(ctx *sched.Context) {
					ctx.Lock(m)
					ctx.Add(c, 1)
					ctx.Unlock(m)
				})
			}
		})
		total = res.Schedules
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "schedules/s")
}

func BenchmarkAblationGranularity(b *testing.B) {
	// DESIGN.md §5: PLPL starts with one stage per statement and PLDD
	// merges; is fine-grained stage splitting worth its hand-off cost?
	// Compare the 5-stage plan against a fully fused coarse plan.
	stages := videoModelStages()
	var fine, coarse perfmodel.Result
	for i := 0; i < b.N; i++ {
		cfg := perfmodel.Config{Cores: 8, Items: 256, Replication: []int{1, 1, 4, 1, 1}}
		fine = perfmodel.Simulate(stages, cfg)
		cfg.Fuse = []bool{true, true, true, true} // one coarse segment
		cfg.Replication = nil                     // fused segment contains the non-replicable add
		coarse = perfmodel.Simulate(stages, cfg)
	}
	printHeader("E9e / stage granularity (per-statement stages vs one coarse stage)",
		fmt.Sprintf("fine-grained (5 stages, oil x4): %d ticks (%.2fx)\ncoarse (fully fused):           %d ticks (%.2fx)\nfine-grained wins %.1fx: splitting exposes the parallelism PLDD merging would otherwise hide",
			fine.Makespan, fine.Speedup, coarse.Makespan, coarse.Speedup,
			float64(coarse.Makespan)/float64(fine.Makespan)))
	b.ReportMetric(float64(coarse.Makespan)/float64(fine.Makespan), "fine-gain-x")
}
