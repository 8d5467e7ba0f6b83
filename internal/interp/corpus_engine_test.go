package interp_test

import (
	"fmt"
	"reflect"
	"testing"

	"patty/internal/corpus"
	"patty/internal/interp"
	"patty/internal/profile"
)

// TestCorpusEngineEquivalence runs every corpus program on both the
// tree-walking interpreter and the bytecode VM — once pairing the
// dependences of every loop in one pass, then once per loop as the
// tracing target — and requires bit-identical observables: return
// values, error text, total virtual time, per-loop iterations and
// carried dependences, the full load/store trace, and every profile
// map entry. Every executed loop's one-pass profile must also equal
// profile.AnalyzeLoop over the tree's trace with that loop as the
// target. The corpus programs are the realistic complement to the
// generated programs covered by internal/difftest.
func TestCorpusEngineEquivalence(t *testing.T) {
	for _, p := range corpus.All() {
		prog, err := p.Load()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		run := func(eng interp.Engine, opts interp.Options) ([]string, string, *interp.Profile) {
			m := interp.NewMachine(prog)
			opts.Engine = eng
			vals, prof, err := m.Run(p.Entry, p.Args(m), opts)
			var es string
			if err != nil {
				es = err.Error()
			}
			out := make([]string, len(vals))
			for i, v := range vals {
				out[i] = interp.FormatValue(v)
			}
			return out, es, prof
		}
		check := func(label string, opts interp.Options) *interp.Profile {
			tv, te, tp := run(interp.EngineTree, opts)
			vv, ve, vp := run(interp.EngineVM, opts)
			if te != ve {
				t.Fatalf("%s: error mismatch tree=%q vm=%q", label, te, ve)
			}
			if fmt.Sprint(tv) != fmt.Sprint(vv) {
				t.Fatalf("%s: value mismatch\ntree: %v\nvm:   %v", label, tv, vv)
			}
			if te != "" {
				t.Fatalf("%s: %s", label, te)
			}
			if tp.Total != vp.Total {
				t.Fatalf("%s: total mismatch tree=%d vm=%d", label, tp.Total, vp.Total)
			}
			if !reflect.DeepEqual(tp.Loops, vp.Loops) {
				t.Fatalf("%s: loop dependences differ\ntree: %+v\nvm:   %+v", label, tp.Loops, vp.Loops)
			}
			if len(tp.Mem) != len(vp.Mem) {
				t.Fatalf("%s: mem len tree=%d vm=%d", label, len(tp.Mem), len(vp.Mem))
			}
			for j := range tp.Mem {
				if tp.Mem[j] != vp.Mem[j] {
					t.Fatalf("%s: mem[%d] tree=%+v vm=%+v", label, j, tp.Mem[j], vp.Mem[j])
				}
			}
			if len(tp.Incl) != len(vp.Incl) || len(tp.Self) != len(vp.Self) || len(tp.Count) != len(vp.Count) {
				t.Fatalf("%s: profile sizes differ", label)
			}
			for r, v := range tp.Incl {
				if vp.Incl[r] != v {
					t.Fatalf("%s: incl[%v] tree=%d vm=%d", label, r, v, vp.Incl[r])
				}
			}
			for r, v := range tp.Self {
				if vp.Self[r] != v {
					t.Fatalf("%s: self[%v] tree=%d vm=%d", label, r, v, vp.Self[r])
				}
			}
			for r, v := range tp.Count {
				if vp.Count[r] != v {
					t.Fatalf("%s: count[%v] tree=%d vm=%d", label, r, v, vp.Count[r])
				}
			}
			return tp
		}
		onePass := check(p.Name+" one-pass", interp.Options{Dependences: true})
		executed := 0
		for _, fn := range prog.Functions() {
			for _, loop := range fn.Loops() {
				target := interp.Ref{Fn: fn.Name, Stmt: fn.StmtID(loop)}
				label := fmt.Sprintf("%s target=%v", p.Name, target)
				traced := check(label, interp.Options{TargetLoop: target})
				if onePass.Count[target] == 0 {
					continue
				}
				executed++
				want := profile.AnalyzeLoop(traced, fn, loop)
				if got := profile.Loop(onePass, fn, loop); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: one-pass profile differs from the traced reference\none-pass: %+v\ntraced:   %+v", label, *got, *want)
				}
			}
		}
		if executed != len(onePass.Loops) {
			t.Fatalf("%s: one-pass run profiled %d loops, %d executed", p.Name, len(onePass.Loops), executed)
		}
	}
}
