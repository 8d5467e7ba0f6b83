package profile

import (
	"go/ast"
	"reflect"
	"testing"

	"patty/internal/interp"
	"patty/internal/source"
)

// onePass profiles every loop of entry in one Options.Dependences run
// and requires each executed loop's summary to equal the per-target
// reference: AnalyzeLoop over a TargetLoop run of that loop. Both
// engines must agree. It returns the one-pass summaries by function
// name and loop ordinal (nil for a loop that never ran), plus the
// program for looking up statement ids.
func onePass(t *testing.T, src, entry string, args func(m *interp.Machine) []interp.Value) (map[string][]*LoopProfile, *source.Program) {
	t.Helper()
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	var first map[string][]*LoopProfile
	for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM} {
		run := func(opts interp.Options) *interp.Profile {
			t.Helper()
			m := interp.NewMachine(prog)
			opts.Engine = eng
			_, prof, err := m.Run(entry, args(m), opts)
			if err != nil {
				t.Fatalf("%v: %v", eng, err)
			}
			return prof
		}
		prof := run(interp.Options{Dependences: true})
		got := make(map[string][]*LoopProfile)
		for _, fn := range prog.Functions() {
			for _, loop := range fn.Loops() {
				ref := interp.Ref{Fn: fn.Name, Stmt: fn.StmtID(loop)}
				var lp *LoopProfile
				if prof.Count[ref] > 0 {
					lp = Loop(prof, fn, loop)
					want := AnalyzeLoop(run(interp.Options{TargetLoop: ref}), fn, loop)
					if !reflect.DeepEqual(lp, want) {
						t.Fatalf("%v %s#%d: one-pass %+v\ntraced reference %+v", eng, fn.Name, ref.Stmt, *lp, *want)
					}
				}
				got[fn.Name] = append(got[fn.Name], lp)
			}
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			t.Fatalf("engines disagree: tree %+v, vm %+v", first, got)
		}
	}
	return first, prog
}

func ints(m *interp.Machine, n int) interp.Value {
	vals := make([]interp.Value, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	return m.NewSlice(vals...)
}

// body returns the statement id of the k-th top-level statement of
// the loop-th loop of fn.
func body(prog *source.Program, fn string, loop, k int) int {
	f := prog.Func(fn)
	switch l := f.Loops()[loop].(type) {
	case *ast.ForStmt:
		return f.StmtID(l.Body.List[k])
	case *ast.RangeStmt:
		return f.StmtID(l.Body.List[k])
	}
	return -2
}

func hasPair(lp *LoopProfile, from, to int, kind DepKind, dist int) bool {
	for _, c := range lp.Carried {
		if c.FromStmt == from && c.ToStmt == to && c.Kind == kind && c.MinDistance == dist {
			return true
		}
	}
	return false
}

func TestOnePassLoopEnteredTwice(t *testing.T) {
	// The second activation restarts at iteration 0, but the shadow
	// keeps the first activation's writes: a[2], written in iteration 2
	// of the first call, is read and rewritten in iteration 0 of the
	// second, a dependence at distance |0-2| = 2.
	lps, prog := onePass(t, `package p
func G(a []int, n, off int) {
	for i := 0; i < n; i++ {
		a[i+off] = a[i+off] + 1
	}
}
func F(a []int) {
	G(a, 4, 0)
	G(a, 2, 2)
}`, "F", func(m *interp.Machine) []interp.Value { return []interp.Value{ints(m, 4)} })
	lp := lps["G"][0]
	if lp.Iters != 2 {
		t.Fatalf("Iters = %d, want 2 (the last activation)", lp.Iters)
	}
	s := body(prog, "G", 0, 0)
	if !hasPair(lp, s, s, Flow, 2) || !hasPair(lp, s, s, Output, 2) {
		t.Fatalf("missing cross-activation pairs at distance 2: %+v", lp.Carried)
	}
}

func TestOnePassRecursiveReentry(t *testing.T) {
	// R re-enters its own live loop through the recursive call. The
	// nested activations neither reset nor advance the outermost one:
	// their accesses belong to its current iteration and top-level
	// statement (the if), and Iters counts only its two iterations.
	lps, prog := onePass(t, `package p
func R(a []int, d int) {
	for i := 0; i < 2; i++ {
		a[d] = a[d] + i
		if d < 2 {
			R(a, d+1)
		}
	}
}`, "R", func(m *interp.Machine) []interp.Value { return []interp.Value{ints(m, 3), int64(0)} })
	lp := lps["R"][0]
	if lp.Iters != 2 {
		t.Fatalf("Iters = %d, want 2", lp.Iters)
	}
	call := body(prog, "R", 0, 1)
	if !hasPair(lp, call, call, Flow, 1) || !hasPair(lp, call, call, Output, 1) {
		t.Fatalf("recursive accesses not attributed to the if: %+v", lp.Carried)
	}
}

func TestOnePassControlStoreClearsShadow(t *testing.T) {
	// The inner loop's post statement stores x. For the inner loop that
	// is loop control: it forgets x, so x = x + 1 pairs with nothing
	// across inner iterations. For the outer loop it is an ordinary
	// store of its only top-level statement, and the last access to x
	// in each outer iteration, so the outer pairs survive only if the
	// inner loop's control store leaves the outer shadow alone.
	lps, prog := onePass(t, `package p
func F(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		for j := 0; j < 3; x = j {
			x = x + 1
			j++
		}
	}
	return x
}`, "F", func(m *interp.Machine) []interp.Value { return []interp.Value{int64(3)} })
	outer, inner := lps["F"][0], lps["F"][1]
	bump := body(prog, "F", 1, 0)
	for _, c := range inner.Carried {
		if c.FromStmt == bump && c.ToStmt == bump {
			t.Fatalf("control store did not clear the inner shadow: %+v", c)
		}
	}
	s := body(prog, "F", 0, 0)
	if !hasPair(outer, s, s, Flow, 1) || !hasPair(outer, s, s, Output, 1) {
		t.Fatalf("outer loop lost the inner post's store: %+v", outer.Carried)
	}
}

func TestOnePassCalleeAccessesReachEveryLiveLoop(t *testing.T) {
	// inc runs inside both loops. Each outer iteration reads and
	// rewrites the same a[j], distance-1 flow and output dependences of
	// the outer loop's body statement. Within an inner activation every
	// a[j] is distinct, and across activations the same element meets
	// the same inner iteration index, so the inner loop carries nothing.
	lps, prog := onePass(t, `package p
func inc(a []int, k int) {
	a[k] = a[k] + 1
}
func F(a []int, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			inc(a, j)
		}
	}
}`, "F", func(m *interp.Machine) []interp.Value { return []interp.Value{ints(m, 3), int64(3)} })
	outer, inner := lps["F"][0], lps["F"][1]
	s := body(prog, "F", 0, 0)
	if !hasPair(outer, s, s, Flow, 1) || !hasPair(outer, s, s, Output, 1) {
		t.Fatalf("callee accesses missing from the outer loop: %+v", outer.Carried)
	}
	for _, c := range inner.Carried {
		if c.FromStmt >= 0 && c.ToStmt >= 0 {
			t.Fatalf("inner loop carries a body dependence: %+v", c)
		}
	}
}

func TestOnePassNestedLoopsOwnTopStatements(t *testing.T) {
	// The running sum s is carried by the inner loop (between its own
	// body statements) but is a fresh cell in every outer iteration;
	// b[j] is rewritten by every outer iteration, which the outer loop
	// sees as its inner-loop statement depending on itself.
	lps, prog := onePass(t, `package p
func F(a, b, c []int, n int) {
	for i := 0; i < n; i++ {
		s := 0
		for j := 0; j < n; j++ {
			s = s + a[j]
			b[j] = s
		}
		c[i] = s
	}
}`, "F", func(m *interp.Machine) []interp.Value {
		return []interp.Value{ints(m, 3), ints(m, 3), ints(m, 3), int64(3)}
	})
	outer, inner := lps["F"][0], lps["F"][1]
	sum := body(prog, "F", 1, 0)
	if !hasPair(inner, sum, sum, Flow, 1) {
		t.Fatalf("inner loop misses its running sum: %+v", inner.Carried)
	}
	nest := body(prog, "F", 0, 1)
	if !hasPair(outer, nest, nest, Output, 1) {
		t.Fatalf("outer loop misses the b[j] rewrite: %+v", outer.Carried)
	}
	inOuter := map[int]bool{-1: true, body(prog, "F", 0, 0): true, nest: true, body(prog, "F", 0, 2): true}
	for _, c := range outer.Carried {
		if !inOuter[c.FromStmt] || !inOuter[c.ToStmt] {
			t.Fatalf("outer pair names a statement that is not its own top-level one: %+v", c)
		}
	}
	inInner := map[int]bool{-1: true, sum: true, body(prog, "F", 1, 1): true}
	for _, c := range inner.Carried {
		if !inInner[c.FromStmt] || !inInner[c.ToStmt] {
			t.Fatalf("inner pair names a statement that is not its own top-level one: %+v", c)
		}
	}
}

func TestOnePassEarlyExitIters(t *testing.T) {
	// A for loop does not count the iteration it leaves by break or
	// return; a range loop does (the interpreter's iterate() bumps the
	// counter before it looks at the body's control outcome).
	lps, _ := onePass(t, `package p
func Find(a []int, k int) int {
	for i := 0; i < len(a); i++ {
		if a[i] == k {
			return i
		}
	}
	return -1
}
func F(a []int) int {
	n := 0
	for i := 0; i < len(a); i++ {
		if a[i] == 2 {
			break
		}
		n++
	}
	for _, v := range a {
		if v == 2 {
			break
		}
		n++
	}
	for _, v := range a {
		if v == 3 {
			return n + Find(a, 1)
		}
	}
	return n
}`, "F", func(m *interp.Machine) []interp.Value { return []interp.Value{ints(m, 5)} })
	want := map[string][]int{"F": {2, 3, 4}, "Find": {1}}
	for fn, iters := range want {
		for k, n := range iters {
			if got := lps[fn][k].Iters; got != n {
				t.Errorf("%s loop %d: Iters = %d, want %d", fn, k, got, n)
			}
		}
	}
}
