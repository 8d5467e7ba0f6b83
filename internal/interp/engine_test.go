package interp

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"

	"patty/internal/source"
)

// engines drives the table-driven ports of the cost/trace tests: every
// subtest runs once per engine and must observe identical behavior.
var engines = []struct {
	name string
	eng  Engine
}{
	{"tree", EngineTree},
	{"vm", EngineVM},
}

func TestEngineIntrinsicCostCharging(t *testing.T) {
	src := `package p
func F(x int) int { return heavy(x) * 2 }`
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			m.RegisterIntrinsic(Intrinsic{Name: "heavy", Cost: 1000, Fn: func(args []Value) Value {
				return toInt(args[0]) + 1
			}})
			vals, prof, err := m.Run("F", []Value{int64(20)}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if vals[0] != int64(42) {
				t.Fatalf("got %v", vals[0])
			}
			if prof.Total < 1000 {
				t.Fatalf("intrinsic cost not charged: total %d", prof.Total)
			}
		})
	}
}

func TestEngineCrossIterationStoreLoad(t *testing.T) {
	src := `package p
func F(a []int, n int) {
	for i := 1; i < n; i++ {
		a[i] = a[i-1] + 1
	}
}`
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			fn := prog.Func("F")
			loop := fn.Loops()[0]
			a := m.NewSlice(int64(0), int64(0), int64(0), int64(0), int64(0))
			_, prof, err := m.Run("F", []Value{a, int64(5)},
				Options{TargetLoop: Ref{Fn: "F", Stmt: fn.StmtID(loop)}})
			if err != nil {
				t.Fatal(err)
			}
			if it := prof.Loops[Ref{Fn: "F", Stmt: fn.StmtID(loop)}].Iters; it != 4 {
				t.Fatalf("target Iters = %d, want 4", it)
			}
			if len(prof.Mem) == 0 {
				t.Fatal("no memory events")
			}
			stores := map[uint64]int{}
			carried := false
			for _, ev := range prof.Mem {
				if ev.Kind == MemStore {
					stores[ev.Addr] = ev.Iter
				} else if it, ok := stores[ev.Addr]; ok && ev.Iter > it {
					carried = true
				}
			}
			if !carried {
				t.Fatal("expected cross-iteration store→load pair in trace")
			}
			if a.Elems[4] != int64(4) {
				t.Fatalf("final array wrong: %v", a.Elems)
			}
		})
	}
}

func TestEngineIndependentLoopTrace(t *testing.T) {
	src := `package p
func F(a, b []int, n int) {
	for i := 0; i < n; i++ {
		b[i] = a[i] * 2
	}
}`
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			fn := prog.Func("F")
			loop := fn.Loops()[0]
			a := m.NewSlice(int64(1), int64(2), int64(3))
			b := m.NewSlice(int64(0), int64(0), int64(0))
			_, prof, err := m.Run("F", []Value{a, b, int64(3)},
				Options{TargetLoop: Ref{Fn: "F", Stmt: fn.StmtID(loop)}})
			if err != nil {
				t.Fatal(err)
			}
			stores := map[uint64]int{}
			for _, ev := range prof.Mem {
				if ev.Kind == MemStore && ev.TopStmt >= 0 {
					stores[ev.Addr] = ev.Iter
				}
			}
			for _, ev := range prof.Mem {
				if it, ok := stores[ev.Addr]; ok && ev.Iter != it && ev.Kind == MemLoad {
					t.Fatalf("unexpected cross-iteration dependence at addr %d", ev.Addr)
				}
			}
		})
	}
}

func TestEngineProfileCountsAndTimes(t *testing.T) {
	src := `package p
func F(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += slow(i)
	}
	return s
}
func slow(x int) int {
	t := 0
	for j := 0; j < 50; j++ {
		t += j * x
	}
	return t
}`
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			_, prof, err := m.Run("F", []Value{int64(20)}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if prof.Total == 0 {
				t.Fatal("no time recorded")
			}
			fn := prog.Func("F")
			loopRef := Ref{Fn: "F", Stmt: fn.StmtID(fn.Loops()[0])}
			if prof.Count[loopRef] != 1 {
				t.Fatalf("loop executed %d times, want 1", prof.Count[loopRef])
			}
			var bodyRef Ref
			found := false
			for id := 0; id < fn.NumStmts(); id++ {
				if as, ok := fn.Stmt(id).(*ast.AssignStmt); ok && as.Tok == token.ADD_ASSIGN {
					bodyRef = Ref{Fn: "F", Stmt: id}
					found = true
				}
			}
			if !found {
				t.Fatal("could not locate s += slow(i)")
			}
			if prof.Count[bodyRef] != 20 {
				t.Fatalf("body count = %d, want 20", prof.Count[bodyRef])
			}
			if prof.Incl[bodyRef] <= prof.Self[bodyRef] {
				t.Fatalf("inclusive time must exceed self time: incl=%d self=%d",
					prof.Incl[bodyRef], prof.Self[bodyRef])
			}
			if prof.Incl[loopRef] < prof.Incl[bodyRef] {
				t.Fatal("loop inclusive time must cover the body")
			}
		})
	}
}

func TestEngineTickBudget(t *testing.T) {
	src := `package p
func F() {
	for {
	}
}`
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", src)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMachine(prog)
			m.SetEngine(e.eng)
			_, _, err = m.Run("F", nil, Options{MaxTicks: 10000})
			if err == nil || !strings.Contains(err.Error(), "budget") {
				t.Fatalf("expected budget exhaustion, got %v", err)
			}
		})
	}
}

// TestEngineEquivalenceFeatures runs a feature-panel of handwritten
// programs on both engines and requires identical values, errors, total
// virtual time and profile — a fast in-package complement to the
// generator-driven differential suite in internal/difftest.
func TestEngineEquivalenceFeatures(t *testing.T) {
	cases := []struct {
		name string
		src  string
		fn   string
		args []Value
	}{
		{"loop-scoped-redefine", `package p
func F() int {
	s := 0
	for i := 0; i < 3; i++ {
		x := i * 2
		x, y := x+1, 5
		s += x + y
	}
	return s
}`, "F", nil},
		{"range-map-mutation", `package p
func F() int {
	m := map[string]int{"a": 1, "b": 2, "c": 3}
	s := 0
	for k, v := range m {
		if k == "a" {
			delete(m, "b")
		}
		s += v
	}
	return s + len(m)
}`, "F", nil},
		{"switch-fallthrough-free", `package p
func F(x int) string {
	switch x % 3 {
	case 0:
		return "zero"
	case 1:
		return "one"
	default:
		return "many"
	}
}`, "F", []Value{int64(7)}},
		{"methods-and-fields", `package p
type Acc struct{ Sum, N int }
func (a *Acc) Add(x int) { a.Sum += x; a.N++ }
func F() int {
	a := &Acc{}
	for i := 0; i < 5; i++ {
		a.Add(i)
	}
	return a.Sum*10 + a.N
}`, "F", nil},
		{"string-ops", `package p
func F(s string) int {
	n := 0
	for i, r := range s {
		n += i + int(r)
	}
	return n + len(s[1:3])
}`, "F", []Value{"héllo"}},
		{"named-results", `package p
func div(a, b int) (q, r int) {
	q = a / b
	r = a % b
	return
}
func F() int {
	q, r := div(17, 5)
	return q*100 + r
}`, "F", nil},
		{"runtime-error", `package p
func F(n int) int {
	a := make([]int, 3)
	return a[n]
}`, "F", []Value{int64(7)}},
		{"division-by-zero", `package p
func F(n int) int { return 10 / n }`, "F", []Value{int64(0)}},
		{"global-init-order", `package p
var a = 10
var b = a * 2
var c = helper()
func helper() int { return b + 1 }
func F() int { return a + b + c }`, "F", nil},
		{"min-max-varargs", `package p
func F() int { return min(3, 1, 2)*100 + max(3, 1, 2) }`, "F", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := source.ParseFile("t.go", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				vals  []string
				errS  string
				total uint64
				nProf int
			}
			runOn := func(eng Engine) outcome {
				m := NewMachine(prog)
				vals, prof, err := m.Run(tc.fn, tc.args, Options{Engine: eng})
				var o outcome
				for _, v := range vals {
					o.vals = append(o.vals, formatValue(v))
				}
				if err != nil {
					o.errS = err.Error()
					return o
				}
				o.total = prof.Total
				o.nProf = len(prof.Count)
				return o
			}
			tr := runOn(EngineTree)
			vm := runOn(EngineVM)
			if tr.errS != vm.errS {
				t.Fatalf("error mismatch: tree=%q vm=%q", tr.errS, vm.errS)
			}
			if strings.Join(tr.vals, ",") != strings.Join(vm.vals, ",") {
				t.Fatalf("value mismatch: tree=%v vm=%v", tr.vals, vm.vals)
			}
			if tr.total != vm.total || tr.nProf != vm.nProf {
				t.Fatalf("profile mismatch: tree total=%d n=%d, vm total=%d n=%d",
					tr.total, tr.nProf, vm.total, vm.nProf)
			}
		})
	}
}

// TestEngineFallback: programs with closures are outside the compiled
// subset; EngineAuto must transparently fall back to the tree engine
// while EngineVM reports the bail reason.
func TestEngineFallback(t *testing.T) {
	src := `package p
func F() int {
	add := func(a, b int) int { return a + b }
	return add(2, 3)
}`
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog)
	vals, _, err := m.Run("F", nil, Options{Engine: EngineAuto})
	if err != nil || vals[0] != int64(5) {
		t.Fatalf("auto fallback: vals=%v err=%v", vals, err)
	}
	_, _, err = m.Run("F", nil, Options{Engine: EngineVM})
	if err == nil || !strings.Contains(err.Error(), "vm:") {
		t.Fatalf("forced vm should report the bail reason, got %v", err)
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"auto", EngineAuto, true},
		{"tree", EngineTree, true},
		{"vm", EngineVM, true},
		{"jit", EngineAuto, false},
	} {
		got, err := ParseEngine(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && got.String() != tc.in {
			t.Fatalf("String() roundtrip failed for %q", tc.in)
		}
	}
}
