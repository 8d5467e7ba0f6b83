// Package profile turns interpreter traces (package interp) into the
// dynamic half of the semantic model: observed loop-carried
// dependences, per-stage runtime shares and hot-loop rankings.
//
// The dependence pairing follows the windowed-pairwise idea of dynamic
// dependence profilers like SD3 (Kim et al., MICRO'10, cited by the
// paper as [34]): every traced address keeps its last writer and last
// reader; a later access from a different iteration forms a carried
// dependence edge between the two top-level loop-body statements. The
// interpreter pairs the accesses of every loop in one run (Loop);
// AnalyzeLoop repeats the pairing offline over one loop's memory trace
// as the reference.
// Because the analysis sees only executed iterations, its verdicts are
// *optimistic* — exactly the paper's trade-off, backed by generated
// correctness tests instead of proofs.
package profile

import (
	"go/ast"
	"sort"

	"patty/internal/interp"
	"patty/internal/source"
)

// DepKind mirrors the classic dependence taxonomy.
type DepKind = interp.DepKind

const (
	// Flow is read-after-write across iterations.
	Flow = interp.DepFlow
	// Anti is write-after-read across iterations.
	Anti = interp.DepAnti
	// Output is write-after-write across iterations.
	Output = interp.DepOutput
)

// CarriedPair is one observed loop-carried dependence between two
// top-level body statements (ids are function-local statement ids;
// -1 denotes loop-control context such as the condition).
type CarriedPair = interp.CarriedPair

// LoopProfile is the dynamic summary of one executed loop.
type LoopProfile struct {
	// Loop identifies the profiled loop.
	Loop interp.Ref
	// Iters is the number of completed iterations.
	Iters int
	// InclTime maps each top-level body statement id to its inclusive
	// virtual time.
	InclTime map[int]uint64
	// Share maps each top-level body statement id to its fraction of
	// the summed body time — the signal behind StageReplication and
	// StageFusion decisions.
	Share map[int]float64
	// Count maps each top-level body statement id to executions.
	Count map[int]uint64
	// Carried lists the observed loop-carried dependences.
	Carried []CarriedPair
	// BodyTime is the summed inclusive time of the body statements.
	BodyTime uint64
}

// CarriedBetween reports whether an observed carried dependence links
// the two statements (in either direction).
func (lp *LoopProfile) CarriedBetween(a, b int) bool {
	for _, c := range lp.Carried {
		if (c.FromStmt == a && c.ToStmt == b) || (c.FromStmt == b && c.ToStmt == a) {
			return true
		}
	}
	return false
}

// HasCarried reports whether any carried dependence touches stmt.
func (lp *LoopProfile) HasCarried(stmt int) bool {
	for _, c := range lp.Carried {
		if c.FromStmt == stmt || c.ToStmt == stmt {
			return true
		}
	}
	return false
}

// Loop derives the dynamic summary of loop from a profile collected
// with Options.Dependences set, which paired the accesses of every
// loop during the run.
func Loop(prof *interp.Profile, fn *source.Function, loop ast.Stmt) *LoopProfile {
	lp := timing(prof, fn, loop)
	lp.Carried = prof.Loops[lp.Loop].Carried
	return lp
}

// AnalyzeLoop derives the same summary from a profile collected with
// Options.TargetLoop set to loop, by pairing its memory trace. It is
// the reference Loop is checked against (internal/difftest, the
// corpus equivalence test), not the analysis path.
func AnalyzeLoop(prof *interp.Profile, fn *source.Function, loop ast.Stmt) *LoopProfile {
	lp := timing(prof, fn, loop)
	lp.pairDependences(prof.Mem)
	return lp
}

// timing fills everything but Carried: the iteration count and the
// per-statement times, counts and shares of the loop's top-level body
// statements.
func timing(prof *interp.Profile, fn *source.Function, loop ast.Stmt) *LoopProfile {
	ref := interp.Ref{Fn: fn.Name, Stmt: fn.StmtID(loop)}
	lp := &LoopProfile{
		Loop:     ref,
		Iters:    prof.Loops[ref].Iters,
		InclTime: make(map[int]uint64),
		Share:    make(map[int]float64),
		Count:    make(map[int]uint64),
	}
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	default:
		return lp
	}

	for _, s := range body.List {
		id := fn.StmtID(s)
		ref := interp.Ref{Fn: fn.Name, Stmt: id}
		lp.InclTime[id] = prof.Incl[ref]
		lp.Count[id] = prof.Count[ref]
		lp.BodyTime += prof.Incl[ref]
	}
	if lp.BodyTime > 0 {
		for id, t := range lp.InclTime {
			lp.Share[id] = float64(t) / float64(lp.BodyTime)
		}
	}
	return lp
}

// pairDependences runs the last-writer/last-reader pairing over the
// memory trace. Stores from loop-control context (TopStmt < 0, e.g.
// the induction variable's increment) do not seed dependences: the
// pattern transformation re-implements loop control as the stream
// generator, so control-only state never crosses stages.
func (lp *LoopProfile) pairDependences(mem []interp.MemEvent) {
	type access struct {
		iter int
		stmt int
		ok   bool
	}
	lastWrite := make(map[uint64]access)
	lastRead := make(map[uint64]access)
	pairs := make(map[[3]int]*CarriedPair)

	record := func(from, to int, kind DepKind, dist int) {
		key := [3]int{from, to, int(kind)}
		p, ok := pairs[key]
		if !ok {
			p = &CarriedPair{FromStmt: from, ToStmt: to, Kind: kind, MinDistance: dist}
			pairs[key] = p
		}
		if dist < p.MinDistance {
			p.MinDistance = dist
		}
		p.Count++
	}

	for _, ev := range mem {
		switch ev.Kind {
		case interp.MemLoad:
			if w := lastWrite[ev.Addr]; w.ok && w.iter != ev.Iter {
				record(w.stmt, ev.TopStmt, Flow, abs(ev.Iter-w.iter))
			}
			lastRead[ev.Addr] = access{ev.Iter, ev.TopStmt, true}
		case interp.MemStore:
			if ev.TopStmt < 0 {
				// Loop-control store: reset tracking so control state
				// does not seed body dependences.
				lastWrite[ev.Addr] = access{}
				lastRead[ev.Addr] = access{}
				continue
			}
			if w := lastWrite[ev.Addr]; w.ok && w.iter != ev.Iter {
				record(w.stmt, ev.TopStmt, Output, abs(ev.Iter-w.iter))
			}
			if r := lastRead[ev.Addr]; r.ok && r.iter != ev.Iter && r.stmt >= 0 {
				record(r.stmt, ev.TopStmt, Anti, abs(ev.Iter-r.iter))
			}
			lastWrite[ev.Addr] = access{ev.Iter, ev.TopStmt, true}
		}
	}

	keys := make([][3]int, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	for _, k := range keys {
		lp.Carried = append(lp.Carried, *pairs[k])
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// HotLoop ranks a loop by its share of total execution time — the
// VTune-style hotspot view (paper §6, Parallel Studio's first step).
type HotLoop struct {
	Ref   interp.Ref
	Incl  uint64
	Share float64
}

// HotLoops ranks every loop in the program by inclusive virtual time.
func HotLoops(prof *interp.Profile, prog *source.Program) []HotLoop {
	var out []HotLoop
	for _, fn := range prog.Functions() {
		for _, loop := range fn.Loops() {
			ref := interp.Ref{Fn: fn.Name, Stmt: fn.StmtID(loop)}
			incl, ok := prof.Incl[ref]
			if !ok || incl == 0 {
				continue
			}
			share := 0.0
			if prof.Total > 0 {
				share = float64(incl) / float64(prof.Total)
			}
			out = append(out, HotLoop{Ref: ref, Incl: incl, Share: share})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Incl != out[j].Incl {
			return out[i].Incl > out[j].Incl
		}
		if out[i].Ref.Fn != out[j].Ref.Fn {
			return out[i].Ref.Fn < out[j].Ref.Fn
		}
		return out[i].Ref.Stmt < out[j].Ref.Stmt
	})
	return out
}
