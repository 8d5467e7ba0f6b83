package difftest

import (
	"fmt"
	"reflect"

	"patty/internal/interp"
	"patty/internal/profile"
	"patty/internal/source"
)

// The engine leg: every generated program is executed on both the
// tree-walking interpreter and the bytecode VM, and the two runs must
// agree bit-for-bit — return values, error text, total virtual time,
// per-statement profile, per-loop iteration counts and carried
// dependences, and the full load/store trace for every loop target.
// The untargeted runs pair dependences in one pass
// (Options.Dependences); every executed loop's one-pass profile must
// also equal profile.AnalyzeLoop over the tree's trace with that loop
// as the target. The tree-walker and the offline pairing are the
// oracles; any disagreement is an "engine" divergence and shrinks like
// any other difftest finding.

// engineRun executes Kernel on one engine and captures everything the
// comparison needs. A fresh Machine per run keeps the traced address
// space identical across engines.
func engineRun(prog *source.Program, n int64, eng interp.Engine, opts interp.Options) ([]interp.Value, *interp.Profile, string) {
	m := interp.NewMachine(prog)
	opts.Engine = eng
	vals, prof, err := m.Run("Kernel", []interp.Value{n}, opts)
	if err != nil {
		return vals, prof, err.Error()
	}
	return vals, prof, ""
}

// engineDiff runs the program on both engines — once pairing the
// dependences of every loop, then once per loop of every function as
// the tracing target — and returns a description of the first
// disagreement, or "".
func engineDiff(prog *source.Program, n int64) string {
	opts := interp.Options{Dependences: true}
	tv, onePass, te := engineRun(prog, n, interp.EngineTree, opts)
	vv, vp, ve := engineRun(prog, n, interp.EngineVM, opts)
	if msg := compareEngineRuns(tv, onePass, te, vv, vp, ve); msg != "" {
		return "one-pass: " + msg
	}
	for _, fn := range prog.Functions() {
		for _, loop := range fn.Loops() {
			target := interp.Ref{Fn: fn.Name, Stmt: fn.StmtID(loop)}
			label := fmt.Sprintf("target %s#%d", target.Fn, target.Stmt)
			opts := interp.Options{TargetLoop: target}
			tv, tp, te := engineRun(prog, n, interp.EngineTree, opts)
			vv, vp, ve := engineRun(prog, n, interp.EngineVM, opts)
			if msg := compareEngineRuns(tv, tp, te, vv, vp, ve); msg != "" {
				return label + ": " + msg
			}
			if te != "" || onePass.Count[target] == 0 {
				continue
			}
			want := profile.AnalyzeLoop(tp, fn, loop)
			if got := profile.Loop(onePass, fn, loop); !reflect.DeepEqual(got, want) {
				return fmt.Sprintf("%s: one-pass profile %+v, traced reference %+v", label, *got, *want)
			}
		}
	}
	return ""
}

// compareEngineRuns checks one tree run against one VM run for exact
// equality of every observable.
func compareEngineRuns(tv []interp.Value, tp *interp.Profile, te string,
	vv []interp.Value, vp *interp.Profile, ve string) string {
	if te != ve {
		return fmt.Sprintf("error mismatch: tree=%q vm=%q", te, ve)
	}
	if len(tv) != len(vv) {
		return fmt.Sprintf("tree returned %d values, vm %d", len(tv), len(vv))
	}
	for i := range tv {
		ts, vs := interp.FormatValue(tv[i]), interp.FormatValue(vv[i])
		if ts != vs {
			return fmt.Sprintf("value %d: tree=%s vm=%s", i, ts, vs)
		}
	}
	if te != "" {
		return "" // both failed identically; no profile to compare
	}
	if tp.Total != vp.Total {
		return fmt.Sprintf("virtual time: tree=%d vm=%d", tp.Total, vp.Total)
	}
	if !reflect.DeepEqual(tp.Loops, vp.Loops) {
		return fmt.Sprintf("loop dependences: tree=%+v vm=%+v", tp.Loops, vp.Loops)
	}
	if len(tp.Mem) != len(vp.Mem) {
		return fmt.Sprintf("memory trace length: tree=%d vm=%d", len(tp.Mem), len(vp.Mem))
	}
	for i := range tp.Mem {
		if tp.Mem[i] != vp.Mem[i] {
			return fmt.Sprintf("memory event %d: tree=%+v vm=%+v", i, tp.Mem[i], vp.Mem[i])
		}
	}
	if len(tp.Incl) != len(vp.Incl) || len(tp.Self) != len(vp.Self) || len(tp.Count) != len(vp.Count) {
		return fmt.Sprintf("profile sizes: tree incl/self/count=%d/%d/%d vm=%d/%d/%d",
			len(tp.Incl), len(tp.Self), len(tp.Count), len(vp.Incl), len(vp.Self), len(vp.Count))
	}
	for r, v := range tp.Incl {
		if vp.Incl[r] != v {
			return fmt.Sprintf("incl[%s#%d]: tree=%d vm=%d", r.Fn, r.Stmt, v, vp.Incl[r])
		}
	}
	for r, v := range tp.Self {
		if vp.Self[r] != v {
			return fmt.Sprintf("self[%s#%d]: tree=%d vm=%d", r.Fn, r.Stmt, v, vp.Self[r])
		}
	}
	for r, v := range tp.Count {
		if vp.Count[r] != v {
			return fmt.Sprintf("count[%s#%d]: tree=%d vm=%d", r.Fn, r.Stmt, v, vp.Count[r])
		}
	}
	return ""
}
