package interp

import (
	"go/ast"
	"go/token"
	"strings"
	"testing"

	"patty/internal/source"
)

func run(t *testing.T, src, fnName string, args ...Value) []Value {
	t.Helper()
	vals, _, err := runErr(t, src, fnName, args...)
	if err != nil {
		t.Fatalf("run %s: %v", fnName, err)
	}
	return vals
}

func runErr(t *testing.T, src, fnName string, args ...Value) ([]Value, *Profile, error) {
	t.Helper()
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog)
	return m.Run(fnName, args, Options{})
}

func one(t *testing.T, src, fnName string, args ...Value) Value {
	t.Helper()
	vals := run(t, src, fnName, args...)
	if len(vals) != 1 {
		t.Fatalf("%s returned %d values", fnName, len(vals))
	}
	return vals[0]
}

func TestArithmetic(t *testing.T) {
	src := `package p
func F(a, b int) int { return (a+b)*3 - a/b + a%b }`
	if got := one(t, src, "F", int64(10), int64(3)); got != int64(37) {
		t.Fatalf("got %v", got)
	}
}

func TestFloatArithmeticAndPromotion(t *testing.T) {
	src := `package p
func F(x float64) float64 { return 2*x + 1.5 }`
	if got := one(t, src, "F", 2.0); got != 5.5 {
		t.Fatalf("got %v", got)
	}
}

func TestComparisonAndLogic(t *testing.T) {
	src := `package p
func F(a, b int) bool { return a < b && b <= 10 || a == 42 }`
	if got := one(t, src, "F", int64(1), int64(5)); got != true {
		t.Fatalf("got %v", got)
	}
	if got := one(t, src, "F", int64(42), int64(0)); got != true {
		t.Fatalf("got %v", got)
	}
	if got := one(t, src, "F", int64(9), int64(5)); got != false {
		t.Fatalf("got %v", got)
	}
}

func TestShortCircuitNoSideEffect(t *testing.T) {
	src := `package p
func F(xs []int) int {
	if len(xs) > 0 && xs[0] == 7 {
		return 1
	}
	return 0
}`
	prog, _ := source.ParseFile("t.go", src)
	m := NewMachine(prog)
	empty := m.NewSlice()
	vals, _, err := m.Run("F", []Value{empty}, Options{})
	if err != nil {
		t.Fatalf("short-circuit must protect the index: %v", err)
	}
	if vals[0] != int64(0) {
		t.Fatalf("got %v", vals[0])
	}
}

func TestForLoopSum(t *testing.T) {
	src := `package p
func F(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`
	if got := one(t, src, "F", int64(100)); got != int64(4950) {
		t.Fatalf("got %v", got)
	}
}

func TestWhileStyleAndBreakContinue(t *testing.T) {
	src := `package p
func F() int {
	s := 0
	i := 0
	for {
		i++
		if i > 100 {
			break
		}
		if i%2 == 0 {
			continue
		}
		s += i
	}
	return s
}`
	if got := one(t, src, "F"); got != int64(2500) {
		t.Fatalf("got %v", got)
	}
}

func TestRangeSlice(t *testing.T) {
	src := `package p
func F(xs []int) int {
	s := 0
	for i, x := range xs {
		s += i * x
	}
	return s
}`
	prog, _ := source.ParseFile("t.go", src)
	m := NewMachine(prog)
	xs := m.NewSlice(int64(5), int64(6), int64(7))
	vals, _, err := m.Run("F", []Value{xs}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != int64(20) {
		t.Fatalf("got %v", vals[0])
	}
}

func TestRangeIntAndString(t *testing.T) {
	src := `package p
func F(n int) int {
	s := 0
	for i := range n {
		s += i
	}
	return s
}
func G(str string) int {
	s := 0
	for _, c := range str {
		s += c
	}
	return s
}`
	if got := one(t, src, "F", int64(5)); got != int64(10) {
		t.Fatalf("range int: got %v", got)
	}
	if got := one(t, src, "G", "ab"); got != int64(195) {
		t.Fatalf("range string: got %v", got)
	}
}

func TestMapOperations(t *testing.T) {
	src := `package p
func F() int {
	m := make(map[string]int)
	m["a"] = 1
	m["b"] = 2
	m["a"] = m["a"] + 10
	delete(m, "b")
	s := len(m) * 100
	for _, v := range m {
		s += v
	}
	s += m["missing"]
	return s
}`
	if got := one(t, src, "F"); got != int64(111) {
		t.Fatalf("got %v", got)
	}
}

func TestMapRangeDeterministic(t *testing.T) {
	src := `package p
func F() int {
	m := map[int]int{3: 30, 1: 10, 2: 20}
	order := 0
	for k := range m {
		order = order*10 + k
	}
	return order
}`
	for i := 0; i < 5; i++ {
		if got := one(t, src, "F"); got != int64(123) {
			t.Fatalf("map range not deterministic/sorted: got %v", got)
		}
	}
}

func TestSliceLiteralAppendCopy(t *testing.T) {
	src := `package p
func F() int {
	xs := []int{1, 2, 3}
	xs = append(xs, 4, 5)
	ys := make([]int, 5)
	n := copy(ys, xs)
	s := n * 1000
	for _, y := range ys {
		s += y
	}
	return s + len(xs) + cap(xs)
}`
	got := one(t, src, "F")
	if got != int64(5025) {
		t.Fatalf("got %v", got)
	}
}

func TestSliceExprAliasing(t *testing.T) {
	src := `package p
func F() int {
	xs := []int{1, 2, 3, 4}
	ys := xs[1:3]
	ys[0] = 99
	return xs[1]
}`
	if got := one(t, src, "F"); got != int64(99) {
		t.Fatalf("subslice must alias backing array: got %v", got)
	}
}

func TestStructsAndMethods(t *testing.T) {
	src := `package p
type Point struct{ X, Y int }
func (p *Point) Dist2() int { return p.X*p.X + p.Y*p.Y }
func (p *Point) Move(dx, dy int) { p.X += dx; p.Y += dy }
func F() int {
	pt := Point{X: 3, Y: 4}
	pt.Move(1, 1)
	return pt.Dist2()
}`
	if got := one(t, src, "F"); got != int64(41) {
		t.Fatalf("got %v", got)
	}
}

func TestStructReferenceSemantics(t *testing.T) {
	src := `package p
type Box struct{ V int }
func set(b *Box, v int) { b.V = v }
func F() int {
	b := &Box{V: 1}
	c := b
	set(c, 42)
	return b.V
}`
	if got := one(t, src, "F"); got != int64(42) {
		t.Fatalf("got %v", got)
	}
}

func TestPositionalCompositeAndNew(t *testing.T) {
	src := `package p
type Pair struct{ A, B int }
func F() int {
	p1 := Pair{7, 8}
	p2 := new(Pair)
	p2.A = 1
	return p1.A*10 + p1.B + p2.A
}`
	if got := one(t, src, "F"); got != int64(79) {
		t.Fatalf("got %v", got)
	}
}

func TestClosures(t *testing.T) {
	src := `package p
func F() int {
	counter := 0
	inc := func(by int) int {
		counter += by
		return counter
	}
	inc(5)
	inc(7)
	return counter
}`
	if got := one(t, src, "F"); got != int64(12) {
		t.Fatalf("got %v", got)
	}
}

func TestFunctionValuesAndHigherOrder(t *testing.T) {
	src := `package p
func double(x int) int { return 2 * x }
func apply(f func(int) int, x int) int { return f(x) }
func F() int { return apply(double, 21) }`
	if got := one(t, src, "F"); got != int64(42) {
		t.Fatalf("got %v", got)
	}
}

func TestRecursion(t *testing.T) {
	src := `package p
func fib(n int) int {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}`
	if got := one(t, src, "fib", int64(15)); got != int64(610) {
		t.Fatalf("got %v", got)
	}
}

func TestMultipleReturnsAndSwap(t *testing.T) {
	src := `package p
func divmod(a, b int) (int, int) { return a / b, a % b }
func F() int {
	q, r := divmod(17, 5)
	q, r = r, q
	return q*10 + r
}`
	if got := one(t, src, "F"); got != int64(23) {
		t.Fatalf("got %v", got)
	}
}

func TestNamedResultsBareReturn(t *testing.T) {
	src := `package p
func F(x int) (doubled int) {
	doubled = 2 * x
	return
}`
	if got := one(t, src, "F", int64(21)); got != int64(42) {
		t.Fatalf("got %v", got)
	}
}

func TestSwitch(t *testing.T) {
	src := `package p
func F(x int) string {
	switch x {
	case 1:
		return "one"
	case 2, 3:
		return "few"
	default:
		return "many"
	}
}
func G(x int) int {
	v := 0
	switch {
	case x > 10:
		v = 100
	case x > 5:
		v = 50
	}
	return v
}`
	if got := one(t, src, "F", int64(3)); got != "few" {
		t.Fatalf("got %v", got)
	}
	if got := one(t, src, "F", int64(9)); got != "many" {
		t.Fatalf("got %v", got)
	}
	if got := one(t, src, "G", int64(7)); got != int64(50) {
		t.Fatalf("got %v", got)
	}
	if got := one(t, src, "G", int64(1)); got != int64(0) {
		t.Fatalf("got %v", got)
	}
}

func TestStringOps(t *testing.T) {
	src := `package p
func F(a, b string) string {
	if a < b {
		return a + b
	}
	return b + a
}`
	if got := one(t, src, "F", "xyz", "abc"); got != "abcxyz" {
		t.Fatalf("got %v", got)
	}
}

func TestIntrinsics(t *testing.T) {
	src := `package p
import "math"
func F(x float64) float64 { return math.Sqrt(x) + math.Abs(-2.0) }`
	if got := one(t, src, "F", 9.0); got != 5.0 {
		t.Fatalf("got %v", got)
	}
}

func TestCustomIntrinsic(t *testing.T) {
	src := `package p
func F(x int) int { return heavy(x) * 2 }`
	prog, _ := source.ParseFile("t.go", src)
	m := NewMachine(prog)
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
}

func TestGlobals(t *testing.T) {
	src := `package p
var base = 100
var table = []int{1, 2, 3}
func F() int {
	base += table[2]
	return base
}`
	if got := one(t, src, "F"); got != int64(103) {
		t.Fatalf("got %v", got)
	}
}

func TestPrintln(t *testing.T) {
	src := `package p
func F() { println("hello", 42) }`
	prog, _ := source.ParseFile("t.go", src)
	m := NewMachine(prog)
	var out []string
	_, _, err := m.Run("F", nil, Options{Output: func(s string) { out = append(out, s) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "hello 42" {
		t.Fatalf("out = %v", out)
	}
}

func TestVarDeclZeroValues(t *testing.T) {
	src := `package p
func F() int {
	var a int
	var f float64
	var b bool
	var s string
	if !b && s == "" && f == 0.0 {
		return a + 1
	}
	return -1
}`
	if got := one(t, src, "F"); got != int64(1) {
		t.Fatalf("got %v", got)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ name, src, fn string }{
		{"div-zero", `package p
func F() int { return 1 / zero() }
func zero() int { return 0 }`, "F"},
		{"index-range", `package p
func F() int { xs := []int{1}; return xs[5] }`, "F"},
		{"undefined", `package p
func F() int { return mystery }`, "F"},
		{"nil-map-write", `package p
func F() { var m map[int]int; m[1] = 2 }`, "F"},
		{"panic", `package p
func F() { panic("boom") }`, "F"},
		{"goto", `package p
func F() { goto L; L: return }`, "F"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := runErr(t, tc.src, tc.fn)
			if err == nil {
				t.Fatalf("expected runtime error")
			}
		})
	}
}

func TestTickBudget(t *testing.T) {
	src := `package p
func F() {
	for {
	}
}`
	prog, _ := source.ParseFile("t.go", src)
	m := NewMachine(prog)
	_, _, err := m.Run("F", nil, Options{MaxTicks: 10000})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("expected budget exhaustion, got %v", err)
	}
}

func TestProfileCountsAndTimes(t *testing.T) {
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
	prog, _ := source.ParseFile("t.go", src)
	m := NewMachine(prog)
	_, prof, err := m.Run("F", []Value{int64(20)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Total == 0 {
		t.Fatal("no time recorded")
	}
	fn := prog.Func("F")
	loop := fn.Loops()[0]
	loopRef := Ref{Fn: "F", Stmt: fn.StmtID(loop)}
	if prof.Count[loopRef] != 1 {
		t.Fatalf("loop executed %d times, want 1", prof.Count[loopRef])
	}
	// The s += slow(i) statement runs n times and its inclusive time
	// must cover the callee.
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
		t.Fatalf("inclusive time must exceed self time for a calling statement: incl=%d self=%d",
			prof.Incl[bodyRef], prof.Self[bodyRef])
	}
	if prof.Incl[loopRef] < prof.Incl[bodyRef] {
		t.Fatal("loop inclusive time must cover the body")
	}
}

func TestMemoryTraceTargetLoop(t *testing.T) {
	src := `package p
func F(a []int, n int) {
	for i := 1; i < n; i++ {
		a[i] = a[i-1] + 1
	}
}`
	prog, _ := source.ParseFile("t.go", src)
	m := NewMachine(prog)
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
	// There must be a store in iteration k and a load of the same
	// address in iteration k+1 (the carried dependence signal).
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
}

func TestMemoryTraceIndependentLoop(t *testing.T) {
	src := `package p
func F(a, b []int, n int) {
	for i := 0; i < n; i++ {
		b[i] = a[i] * 2
	}
}`
	prog, _ := source.ParseFile("t.go", src)
	m := NewMachine(prog)
	fn := prog.Func("F")
	loop := fn.Loops()[0]
	a := m.NewSlice(int64(1), int64(2), int64(3))
	b := m.NewSlice(int64(0), int64(0), int64(0))
	_, prof, err := m.Run("F", []Value{a, b, int64(3)},
		Options{TargetLoop: Ref{Fn: "F", Stmt: fn.StmtID(loop)}})
	if err != nil {
		t.Fatal(err)
	}
	// No address stored by a *body* statement (TopStmt >= 0; stores at
	// TopStmt -1 are loop control like i++) may be touched in another
	// iteration.
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
}

func TestHostValuesRoundTrip(t *testing.T) {
	src := `package p
type Item struct{ A, B int }
func F(it *Item) int { return it.A + it.B }`
	prog, _ := source.ParseFile("t.go", src)
	m := NewMachine(prog)
	it := m.NewStructValue("Item", int64(40), int64(2))
	vals, _, err := m.Run("F", []Value{it}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != int64(42) {
		t.Fatalf("got %v", vals[0])
	}
	if v, ok := it.Get("A"); !ok || v != int64(40) {
		t.Fatal("Get broken")
	}
	if len(it.FieldNames()) != 2 {
		t.Fatal("FieldNames broken")
	}
}

func TestFormatValue(t *testing.T) {
	src := `package p
type T struct{ X int }
func F() {}`
	prog, _ := source.ParseFile("t.go", src)
	m := NewMachine(prog)
	s := m.NewSlice(int64(1), "two", 3.5, true, nil)
	if got := formatValue(s); got != "[1 two 3.5 true nil]" {
		t.Fatalf("formatValue slice = %q", got)
	}
	st := m.NewStructValue("T", int64(9))
	if got := formatValue(st); got != "T{X:9}" {
		t.Fatalf("formatValue struct = %q", got)
	}
}

func TestUnknownFunction(t *testing.T) {
	prog, _ := source.ParseFile("t.go", "package p\nfunc F() {}")
	m := NewMachine(prog)
	if _, _, err := m.Run("Nope", nil, Options{}); err == nil {
		t.Fatal("expected error for unknown function")
	}
}

func TestRunawayRecursionGuard(t *testing.T) {
	src := `package p
func F(n int) int { return F(n + 1) }`
	_, _, err := runErr(t, src, "F", int64(0))
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("expected recursion-depth error, got %v", err)
	}
}
