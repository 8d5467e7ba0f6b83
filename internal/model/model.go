// Package model assembles the paper's semantic model: the cross
// product of control flow graph, data dependencies, call graph and
// runtime information (§2.1, "Model Creation"). The pattern detectors
// (package pattern) run entirely over this model.
package model

import (
	"fmt"
	"go/ast"

	"patty/internal/callgraph"
	"patty/internal/cfg"
	"patty/internal/deps"
	"patty/internal/interp"
	"patty/internal/profile"
	"patty/internal/source"
)

// LoopModel joins the static and dynamic views of one loop.
type LoopModel struct {
	Fn   *source.Function
	Loop ast.Stmt
	// LoopID is the function-local statement id of the loop.
	LoopID int
	// Static is the dependence summary from the optimistic static
	// analysis (always present).
	Static *deps.LoopInfo
	// Dynamic is the observed dependence/runtime summary (nil when the
	// loop was not executed by the sample workload).
	Dynamic *profile.LoopProfile
	// HotShare is the loop's share of total program time under the
	// sample workload (0 when no dynamic run happened).
	HotShare float64
	// Nested reports that the loop is contained in another loop.
	Nested bool
}

// FuncModel is the per-function slice of the semantic model.
type FuncModel struct {
	Fn    *source.Function
	CFG   *cfg.Graph
	Res   *deps.Resolution
	Loops []*LoopModel
}

// Model is the whole-program semantic model.
type Model struct {
	Prog  *source.Program
	CG    *callgraph.Graph
	Funcs map[string]*FuncModel
	// Profiled reports whether dynamic enrichment ran.
	Profiled bool
	// TotalTime is the virtual running time of the sample workload.
	TotalTime uint64
}

// Workload describes the sample execution used for dynamic analysis:
// the paper's "input data for the dynamic analysis" wizard field.
type Workload struct {
	// Entry is the function to execute.
	Entry string
	// Args builds the argument list (fresh per run; the machine is
	// needed to allocate traced slices/structs).
	Args func(m *interp.Machine) []interp.Value
	// Configure optionally registers workload intrinsics.
	Configure func(m *interp.Machine)
	// MaxTicks bounds each profiling run (0: interpreter default).
	MaxTicks uint64
}

// Build constructs the static semantic model of prog.
func Build(prog *source.Program) *Model {
	m := &Model{
		Prog:  prog,
		CG:    callgraph.Build(prog),
		Funcs: make(map[string]*FuncModel),
	}
	for _, fn := range prog.Functions() {
		fm := &FuncModel{
			Fn:  fn,
			CFG: cfg.Build(fn),
			Res: deps.Resolve(fn),
		}
		loops := fn.Loops()
		spans := make([][2]int, 0, len(loops))
		for _, loop := range loops {
			li := deps.AnalyzeLoopResolved(fn, loop, fm.Res, m.CG)
			nested := false
			for _, span := range spans {
				if int(loop.Pos()) > span[0] && int(loop.End()) <= span[1] {
					nested = true
					break
				}
			}
			spans = append(spans, [2]int{int(loop.Pos()), int(loop.End())})
			fm.Loops = append(fm.Loops, &LoopModel{
				Fn:     fn,
				Loop:   loop,
				LoopID: fn.StmtID(loop),
				Static: li,
				Nested: nested,
			})
		}
		m.Funcs[fn.Name] = fm
	}
	return m
}

// EnrichDynamic executes the workload once, pairing the memory
// accesses of every loop during that run, and attaches the dynamic
// summaries and hot-loop shares to the model. Loops the workload never
// executes keep a nil Dynamic.
func (m *Model) EnrichDynamic(w Workload) error {
	if w.Entry == "" || w.Args == nil {
		return fmt.Errorf("model: workload needs Entry and Args")
	}
	im := interp.NewMachine(m.Prog)
	if w.Configure != nil {
		w.Configure(im)
	}
	_, prof, err := im.Run(w.Entry, w.Args(im), interp.Options{Dependences: true, MaxTicks: w.MaxTicks})
	if err != nil {
		return fmt.Errorf("model: workload run: %w", err)
	}
	m.TotalTime = prof.Total
	hot := make(map[interp.Ref]float64)
	for _, h := range profile.HotLoops(prof, m.Prog) {
		hot[h.Ref] = h.Share
	}
	for _, fm := range m.Funcs {
		for _, lm := range fm.Loops {
			ref := interp.Ref{Fn: fm.Fn.Name, Stmt: lm.LoopID}
			lm.HotShare = hot[ref]
			if prof.Count[ref] > 0 {
				lm.Dynamic = profile.Loop(prof, fm.Fn, lm.Loop)
			}
		}
	}
	m.Profiled = true
	return nil
}

// Func returns the per-function model, or nil.
func (m *Model) Func(name string) *FuncModel { return m.Funcs[name] }

// AllLoops returns every loop model in deterministic (function name,
// loop id) order.
func (m *Model) AllLoops() []*LoopModel {
	var out []*LoopModel
	for _, name := range m.Prog.FuncNames() {
		fm := m.Funcs[name]
		if fm == nil {
			continue
		}
		out = append(out, fm.Loops...)
	}
	return out
}

// CarriedDeps returns the effective loop-carried dependences of a
// loop: the optimistic combination of static and dynamic analysis.
// When a dynamic profile exists, a static dependence that the sample
// execution never exhibited is dropped (the paper's optimism — the
// generated correctness tests guard the residual risk); statically
// clean pairs observed dynamically are added.
func (lm *LoopModel) CarriedDeps() []deps.Dep {
	static := lm.Static.CarriedDeps()
	if lm.Dynamic == nil {
		return static
	}
	var out []deps.Dep
	for _, d := range static {
		if lm.Dynamic.CarriedBetween(d.From, d.To) {
			out = append(out, d)
		}
	}
	// Dynamic-only pairs (e.g. through unanalyzed aliasing) are added
	// conservatively as unknown-kind carried deps — except reduction
	// self-dependences, which the runtime's combining implementation
	// resolves (same reason the static analysis drops them).
	isReduction := make(map[int]bool)
	for _, r := range lm.Static.Reductions {
		isReduction[r.StmtID] = true
	}
	for _, c := range lm.Dynamic.Carried {
		if c.FromStmt < 0 || c.ToStmt < 0 {
			continue
		}
		if c.FromStmt == c.ToStmt && isReduction[c.FromStmt] {
			continue
		}
		found := false
		for _, d := range out {
			if (d.From == c.FromStmt && d.To == c.ToStmt) || (d.From == c.ToStmt && d.To == c.FromStmt) {
				found = true
			}
		}
		if !found {
			out = append(out, deps.Dep{
				From: min(c.FromStmt, c.ToStmt), To: max(c.FromStmt, c.ToStmt),
				Kind: deps.FlowDep, Carried: true, Distance: c.MinDistance,
				Reason: "observed dynamically",
			})
		}
	}
	return out
}
