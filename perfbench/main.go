// Command perfbench is Patty's benchmark. It measures the two paths a
// user sees, Go source through the process model and an HTTP job
// through `patty serve`, end to end and, in a separate traced run,
// layer by layer. Every answer is checked against a reference that
// does not come from the code under test.
//
//	bash perfbench/run.sh --workload corpus-dynamic --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are reported by every untraced run, on every workload. The
// times are CPU times of the system under test, which a shared host's
// steal does not inflate (see README.md); wall times are printed beside
// them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_cpu_s", "1/s"},
	{"op_gmean_cpu_ms", "ms"},
	{"op_p90_cpu_ms", "ms"},
}

// perLayer are reported by every traced run, on every workload; a layer
// the workload does not reach reads 0.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%"},
	{"source.parse_ms", "ms"},
	{"model.build_ms", "ms"},
	{"model.enrich_ms", "ms"},
	{"model.loops_profiled", "count"},
	{"interp.run_ms", "ms"},
	{"interp.ticks", "count"},
	{"pattern.detect_ms", "ms"},
	{"pattern.candidates", "count"},
	{"tadl.annotate_ms", "ms"},
	{"core.transform_ms", "ms"},
	{"transform.success_ratio", "ratio"},
	{"ptest.generate_ms", "ms"},
	{"ptest.tests", "count"},
	{"sched.explore_ms", "ms"},
	{"sched.schedules", "count"},
	{"sched.truncated_tests", "count"},
	{"sched.schedules_per_s", "1/s"},
	{"serve.submit_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.tune_run_ms", "ms"},
	{"jobs.dup_run_ms", "ms"},
	{"jobs.fuzz_run_ms", "ms"},
	{"tune_p50_ms", "ms"},
	{"tune_p90_ms", "ms"},
	{"dup_p50_ms", "ms"},
	{"dup_p90_ms", "ms"},
	{"fuzz_p50_ms", "ms"},
	{"fuzz_p90_ms", "ms"},
	{"store.bytes", "bytes"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.inserts", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.bytes", "bytes"},
	{"tuning.evaluations", "count"},
	{"tuning.resumed", "count"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.files", "count"},
}

var workloads = []string{"corpus-dynamic", "verify-static", "serve-jobs"}

// serveJobsPerSecond sizes the serve-jobs list from --seconds: the list
// is fixed by (seed, seconds), so its failure share never depends on
// how fast the server answers.
const serveJobsPerSecond = 40

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one measurement produced before it is shaped into the
// result line.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64 // end-to-end or per-layer, by name
	notes     []string           // human-readable lines printed before the result
}

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloads, ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	patty := flag.String("patty", "", "patty binary (serve-jobs)")
	out := flag.String("out", ".bench_build", "directory for state and trace files")
	flag.Parse()
	pinToOneCPU()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	if *workload == "all" {
		if err := runEach(); err != nil {
			fail(err)
		}
		return
	}
	// A traced run measures an untraced and a traced window; each gets
	// half of --seconds, so that it takes as long as an untraced run.
	window := time.Duration(*seconds) * time.Second
	jobs := serveJobsPerSecond * *seconds
	if *trace == 1 {
		window /= 2
		jobs /= 2
	}
	var rep report
	var err error
	switch *workload {
	case "corpus-dynamic", "verify-static":
		rep, err = runCorpus(*workload, *seed, window, *trace == 1, *out)
	case "serve-jobs":
		if *patty == "" {
			fail(fmt.Errorf("serve-jobs needs -patty"))
		}
		rep, err = runServe(*patty, *out, *seed, jobs, *trace == 1)
	default:
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", ")))
	}
	if err != nil {
		fail(err)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: rep.values[d.name], Unit: d.unit}
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, d := range defs {
		fmt.Printf("%-24s %14.4f %s\n", d.name, rep.values[d.name], d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// runEach runs every workload in turn, each in a fresh process of this
// program so that no workload inherits another's heap or peak RSS.
func runEach() error {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	for _, w := range workloads {
		fmt.Println("== " + w)
		cmd := exec.Command(os.Args[0], append(args, "-workload="+w)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// failureNote renders failure counts by class and reason.
func failureNote(failures map[string]map[string]int) string {
	var parts []string
	for class, reasons := range failures {
		for why, n := range reasons {
			parts = append(parts, fmt.Sprintf("%s.%s=%d", class, why, n))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "failures: none"
	}
	return "failures: " + strings.Join(parts, " ")
}

// runCorpus measures a corpus workload. Untraced, it reports the
// end-to-end metrics; traced, it first repeats the untraced window and
// then a traced one, and reports per-layer metrics plus the overhead.
func runCorpus(workload string, seed int64, window time.Duration, traced bool, out string) (report, error) {
	run := corpusRun{seed: seed, dynamic: workload == "corpus-dynamic", validate: workload == "verify-static", probe: &hostProbe{}}
	rep := report{correct: true, values: make(map[string]float64)}
	passes, err := run.measure(window, nil)
	if err != nil {
		return report{}, err
	}
	nprogs := len(passes[0].latencies)
	var busy, cpu, rawCPU, setups, scales []float64
	failures := map[string]map[string]int{"program": {}}
	perProgram := make([][]float64, nprogs)
	for _, p := range passes {
		// Each pass is scaled to reference host speed by the probe's
		// mean over that pass; a program's cost in a pass is the mean
		// of its runs there. The run reports medians over passes.
		k := p.scale
		scales = append(scales, k)
		busy = append(busy, p.busy.Seconds())
		rawCPU = append(rawCPU, p.cpu.Seconds())
		cpu = append(cpu, p.cpu.Seconds()*k)
		for _, s := range p.setups {
			setups = append(setups, s*k)
		}
		for i, l := range p.latencies {
			perProgram[i] = append(perProgram[i], mean(l)*k)
		}
		for why, n := range p.failures {
			failures["program"][why] += n
			rep.failed += n
		}
	}
	var lat []float64
	for _, l := range perProgram {
		lat = append(lat, median(l))
	}
	rep.attempted = len(passes) * nprogs
	rep.values["setup_s"] = median(setups)
	rep.values["peak_rss_mb"] = peakRSSMB(os.Getpid())
	rep.values["ops_per_cpu_s"] = float64(nprogs) / median(cpu)
	rep.values["op_gmean_cpu_ms"] = geomean(lat)
	rep.values["op_p90_cpu_ms"] = quantile(lat, 0.90)
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d pass(es) of %d programs: %.1f programs per wall second, %.1f per CPU second unscaled (median pass)",
			len(passes), nprogs, float64(nprogs)/median(busy), float64(nprogs)/median(rawCPU)),
		fmt.Sprintf("host probe: %d samples, mean %.4f ms, p10 %.4f ms, p90 %.4f ms; pass scales %.3f",
			len(run.probe.samples), mean(run.probe.samples), quantile(run.probe.samples, 0.1), quantile(run.probe.samples, 0.9), scales),
		fmt.Sprintf("scaled CPU ms per program: %.3f", lat),
		failureNote(failures))
	if !traced {
		return rep, nil
	}

	rec := newRecorder()
	tpasses, err := run.measure(window, rec)
	if err != nil {
		return report{}, err
	}
	var tbusy []float64
	var lc layerCounts
	for _, p := range tpasses {
		tbusy = append(tbusy, p.busy.Seconds())
		lc.add(p.counts)
	}
	n := float64(len(tpasses))
	self := selfTimes(rec.Spans())
	v := rep.values
	v["trace.overhead_pct"] = (median(tbusy)/median(busy) - 1) * 100
	for _, name := range []string{"source.parse", "model.build", "model.enrich", "interp.run",
		"pattern.detect", "tadl.annotate", "core.transform", "ptest.generate", "sched.explore"} {
		v[name+"_ms"] = ms(self[name]) / n
	}
	v["model.loops_profiled"] = float64(lc.loopsProfiled) / n
	v["interp.ticks"] = float64(lc.ticks) / n
	v["pattern.candidates"] = float64(lc.candidates) / n
	if lc.candidates > 0 {
		v["transform.success_ratio"] = float64(lc.outputs) / float64(lc.candidates)
	}
	v["ptest.tests"] = float64(lc.tests) / n
	v["sched.schedules"] = float64(lc.schedules) / n
	v["sched.truncated_tests"] = float64(lc.truncated) / n
	if d := self["sched.explore"]; d > 0 {
		v["sched.schedules_per_s"] = float64(lc.schedules) / d.Seconds()
	}
	rep.notes = append(rep.notes, selfTimeNote(self, n, "pass"))
	return rep, rec.WriteFile(filepath.Join(out, "trace-"+workload+".json"))
}

// selfTimeNote renders the per-layer self times, per unit.
func selfTimeNote(self map[string]time.Duration, n float64, unit string) string {
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "self time per %s:", unit)
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%.3fms", name, ms(self[name])/n)
	}
	return b.String()
}

// runServe measures serve-jobs. The end-to-end figures are medians
// over rounds of server CPU time. Traced, it runs the whole workload a
// second time, with fresh servers and a recorder.
func runServe(patty, out string, seed int64, jobs int, traced bool) (report, error) {
	list := makeJobList(seed, jobs, serveRounds, corpusSources())
	run := serveRun{patty: patty, out: out, list: list}
	w, err := run.measure(nil)
	if err != nil {
		return report{}, err
	}
	sc := run.check(w)
	rep := report{correct: true, values: make(map[string]float64), attempted: len(w.outcomes)}
	for _, f := range sc.failed {
		if f {
			rep.failed++
		}
	}
	if sc.failures[classTune]["no_reference"] > 0 {
		rep.correct = false // the check itself could not run
	}
	v := rep.values
	var setups, setupWall, rss, rates, gmeans, p90s, scales []float64
	var cpu time.Duration
	for _, rd := range w.rounds {
		// Each round is scaled to reference host speed by the probe's
		// mean over that round; the run reports medians over rounds.
		k := rd.scale
		scales = append(scales, k)
		setups = append(setups, rd.setup.Seconds()*k)
		setupWall = append(setupWall, rd.setupWall.Seconds())
		rss = append(rss, rd.rssMB)
		cpu += rd.cpu
		var lat []float64
		for _, o := range rd.outcomes {
			lat = append(lat, ms(o.cpu)*k)
		}
		rates = append(rates, float64(len(rd.outcomes))/(rd.cpu.Seconds()*k))
		gmeans = append(gmeans, geomean(lat))
		p90s = append(p90s, quantile(lat, 0.90))
	}
	v["setup_s"] = median(setups)
	v["peak_rss_mb"] = median(rss)
	v["ops_per_cpu_s"] = median(rates)
	v["op_gmean_cpu_ms"] = median(gmeans)
	v["op_p90_cpu_ms"] = median(p90s)
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d rounds, %d jobs in %.2fs (%.1f jobs per wall second), server CPU %.2fs unscaled; set-up %.3fs wall (median)",
			len(w.rounds), len(w.outcomes), w.elapsed.Seconds(), float64(len(w.outcomes))/w.elapsed.Seconds(), cpu.Seconds(), median(setupWall)),
		fmt.Sprintf("host probe scale per round: %.3f", scales),
		fmt.Sprintf("warm-up: %d originals per round, %d answers wrong over all rounds", len(list.Originals), sc.originalsWrong),
		classNote(w.outcomes),
		failureNote(sc.failures))
	if !traced {
		return rep, nil
	}

	rec := newRecorder()
	tw, err := run.measure(rec)
	if err != nil {
		return report{}, err
	}
	tsc := run.check(tw)
	v["trace.overhead_pct"] = (tw.elapsed.Seconds()/w.elapsed.Seconds() - 1) * 100
	var submit, queue []float64
	runs := make(map[string][]float64)
	lats := make(map[string][]float64)
	for _, o := range tw.outcomes {
		submit = append(submit, ms(o.submit))
		lats[o.job.Class] = append(lats[o.job.Class], ms(o.latency))
		if o.info.Started.IsZero() {
			continue
		}
		queue = append(queue, ms(o.info.Started.Sub(o.info.Submitted)))
		runs[o.job.Class] = append(runs[o.job.Class], ms(o.info.Finished.Sub(o.info.Started)))
	}
	v["serve.submit_ms"] = median(submit)
	v["jobs.queue_wait_ms"] = median(queue)
	for _, class := range []string{classTune, classDup, classFuzz} {
		v["jobs."+class+"_run_ms"] = median(runs[class])
		v[class+"_p50_ms"] = quantile(lats[class], 0.5)
		v[class+"_p90_ms"] = quantile(lats[class], 0.9)
	}
	v["store.bytes"] = float64(tw.storeBytes)
	hits, misses := float64(tw.cache["cache.hits"]), float64(tw.cache["cache.misses"])
	v["cache.hits"], v["cache.misses"] = hits, misses
	v["cache.inserts"] = float64(tw.cache["cache.inserts"])
	if hits+misses > 0 {
		v["cache.hit_ratio"] = hits / (hits + misses)
	}
	v["cache.bytes"] = float64(tw.cacheBytes)
	v["tuning.evaluations"] = float64(tsc.evaluations)
	v["tuning.resumed"] = float64(tsc.resumed)
	v["checkpoint.bytes"] = float64(tw.ckptBytes)
	v["checkpoint.files"] = float64(tw.ckptFiles)
	rep.notes = append(rep.notes, selfTimeNote(selfTimes(rec.Spans()), float64(len(tw.outcomes)), "job"))
	return rep, rec.WriteFile(filepath.Join(out, "trace-serve-jobs.json"))
}

// classNote renders per-class wall latency and server CPU percentiles
// of a window.
func classNote(outs []outcome) string {
	lats := make(map[string][]float64)
	cpus := make(map[string][]float64)
	for _, o := range outs {
		lats[o.job.Class] = append(lats[o.job.Class], ms(o.latency))
		cpus[o.job.Class] = append(cpus[o.job.Class], ms(o.cpu))
	}
	var b strings.Builder
	b.WriteString("by class (wall latency; server CPU):")
	for _, class := range []string{classTune, classDup, classFuzz} {
		l, c := lats[class], cpus[class]
		fmt.Fprintf(&b, " %s n=%d p50=%.2fms p90=%.2fms; p50=%.2fms p90=%.2fms", class, len(l),
			quantile(l, 0.5), quantile(l, 0.9), quantile(c, 0.5), quantile(c, 0.9))
	}
	return b.String()
}
