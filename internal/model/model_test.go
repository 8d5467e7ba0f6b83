package model

import (
	"testing"

	"patty/internal/interp"
	"patty/internal/source"
)

const src = `package p

func helper(x int) int { return x * 2 }

func F(a, b []int, n int) int {
	for i := 0; i < n; i++ {
		b[i] = helper(a[i])
	}
	s := 0
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			s += b[i] * j
		}
	}
	return s
}

func Unused(a []int) {
	for i := 1; i < len(a); i++ {
		a[i] = a[i-1]
	}
}
`

func workload() Workload {
	return Workload{
		Entry: "F",
		Args: func(m *interp.Machine) []interp.Value {
			mk := func() *interp.Slice {
				vals := make([]interp.Value, 6)
				for i := range vals {
					vals[i] = int64(i)
				}
				return m.NewSlice(vals...)
			}
			return []interp.Value{mk(), mk(), int64(6)}
		},
	}
}

func build(t *testing.T) *Model {
	t.Helper()
	prog, err := source.ParseFile("t.go", src)
	if err != nil {
		t.Fatal(err)
	}
	return Build(prog)
}

func TestBuildStaticModel(t *testing.T) {
	m := build(t)
	if len(m.Funcs) != 3 {
		t.Fatalf("functions = %d", len(m.Funcs))
	}
	fm := m.Func("F")
	if fm == nil || fm.CFG == nil || fm.Res == nil {
		t.Fatal("missing per-function model pieces")
	}
	if len(fm.Loops) != 3 {
		t.Fatalf("F has %d loop models, want 3", len(fm.Loops))
	}
	nested := 0
	for _, lm := range fm.Loops {
		if lm.Nested {
			nested++
		}
		if lm.Static == nil {
			t.Fatal("missing static loop info")
		}
		if lm.Dynamic != nil {
			t.Fatal("static build must not have dynamic info")
		}
	}
	if nested != 1 {
		t.Fatalf("nested loops = %d, want 1 (the j loop)", nested)
	}
	if m.Profiled {
		t.Fatal("Profiled must be false before enrichment")
	}
}

func TestAllLoopsDeterministicOrder(t *testing.T) {
	m := build(t)
	a := m.AllLoops()
	b := m.AllLoops()
	if len(a) != 4 {
		t.Fatalf("AllLoops = %d, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("AllLoops order not deterministic")
		}
	}
}

func TestEnrichDynamic(t *testing.T) {
	m := build(t)
	w := workload()
	configured := 0
	w.Configure = func(*interp.Machine) { configured++ }
	if err := m.EnrichDynamic(w); err != nil {
		t.Fatal(err)
	}
	if configured != 1 {
		t.Fatalf("Configure ran %d times, want 1: enrichment is one run", configured)
	}
	if !m.Profiled || m.TotalTime == 0 {
		t.Fatal("enrichment did not profile")
	}
	fm := m.Func("F")
	executed := 0
	for _, lm := range fm.Loops {
		if lm.Dynamic != nil {
			executed++
			if lm.Dynamic.Iters == 0 {
				t.Fatal("executed loop has zero iterations")
			}
		}
	}
	if executed != 3 {
		t.Fatalf("executed loop models = %d, want 3", executed)
	}
	// Unused is never executed: no dynamic info, no hot share.
	for _, lm := range m.Func("Unused").Loops {
		if lm.Dynamic != nil || lm.HotShare != 0 {
			t.Fatal("unexecuted loop must stay static-only")
		}
	}
}

func TestEnrichDynamicErrors(t *testing.T) {
	m := build(t)
	if err := m.EnrichDynamic(Workload{}); err == nil {
		t.Fatal("empty workload must fail")
	}
	if err := m.EnrichDynamic(Workload{
		Entry: "Nope",
		Args:  func(*interp.Machine) []interp.Value { return nil },
	}); err == nil {
		t.Fatal("unknown entry must fail")
	}
}

func TestCarriedDepsOptimisticCombination(t *testing.T) {
	m := build(t)
	if err := m.EnrichDynamic(workload()); err != nil {
		t.Fatal(err)
	}
	// The b[i] = helper(a[i]) loop: statically clean, dynamically
	// clean → no carried deps.
	fm := m.Func("F")
	first := fm.Loops[0]
	if len(first.CarriedDeps()) != 0 {
		t.Fatalf("independent loop carried deps: %+v", first.CarriedDeps())
	}
	// Unused has a static recurrence and no dynamic info → static
	// verdict stands.
	unused := m.Func("Unused").Loops[0]
	if len(unused.CarriedDeps()) == 0 {
		t.Fatal("static recurrence must survive without dynamic evidence")
	}
}
