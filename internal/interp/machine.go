package interp

import (
	"fmt"
	"go/ast"
	"math"

	"patty/internal/source"
)

// Ref identifies a statement for profiling: function name plus
// function-local statement id.
type Ref struct {
	Fn   string
	Stmt int
}

// MemKind distinguishes loads from stores in the memory trace.
type MemKind int

const (
	// MemLoad is a read of a traced cell.
	MemLoad MemKind = iota
	// MemStore is a write of a traced cell.
	MemStore
)

// MemEvent is one traced access inside the target loop.
type MemEvent struct {
	Addr uint64
	Kind MemKind
	// Iter is the target-loop iteration index the access happened in.
	Iter int
	// TopStmt is the statement id of the top-level target-loop body
	// statement the access is attributed to (-1 if outside one, e.g.
	// the loop condition).
	TopStmt int
}

// Profile is the runtime information gathered by a run.
type Profile struct {
	// Total is the virtual running time of the whole execution.
	Total uint64
	// Incl is the inclusive virtual time per statement (time spent in
	// the statement and everything it called).
	Incl map[Ref]uint64
	// Self is the exclusive virtual time per statement.
	Self map[Ref]uint64
	// Count is the number of executions per statement.
	Count map[Ref]uint64
	// Mem is the memory trace of the target loop, if one was set.
	Mem []MemEvent
	// Loops holds, per executed loop, what a Dependences run observed;
	// a TargetLoop run holds only the target's iteration count here.
	Loops map[Ref]LoopDeps
}

// RuntimeError is an execution failure (unsupported construct, type
// error, out-of-range access, step budget exhausted).
type RuntimeError struct {
	Msg string
}

func (e *RuntimeError) Error() string { return "interp: " + e.Msg }

func fail(format string, args ...any) {
	panic(&RuntimeError{Msg: fmt.Sprintf(format, args...)})
}

// Intrinsic is a host-implemented function with a declared virtual
// cost, used for workload kernels (image filters, math routines) whose
// internals are not interesting to the analysis.
type Intrinsic struct {
	Name string
	Cost uint64
	Fn   func(args []Value) Value
}

// Options configures a run.
type Options struct {
	// TargetLoop selects the loop whose memory accesses are traced
	// (zero value: no tracing).
	TargetLoop Ref
	// Dependences pairs the loads and stores of every executed loop
	// into carried dependences during the run (Profile.Loops), without
	// a memory trace. It overrides TargetLoop.
	Dependences bool
	// MaxTicks bounds execution (0: default 200 million).
	MaxTicks uint64
	// Output receives println output; nil discards it.
	Output func(string)
	// Engine overrides the engine for this run (zero value: the
	// machine's engine, then DefaultEngine).
	Engine Engine
}

// Machine interprets one program.
type Machine struct {
	prog        *source.Program
	globals     *env
	structTypes map[string][]string
	intrinsics  map[string]*Intrinsic

	clock    uint64
	maxTicks uint64
	nextAddr uint64
	output   func(string)

	// profiling
	prof    *Profile
	depth   int // live call frames; guards against runaway recursion
	stack   []Ref
	target  Ref // zero unless a TargetLoop run
	deps    bool
	tracks  map[Ref]*loopTrack // per tracked loop, for the whole run
	live    []*loopTrack       // tracks with a live outermost activation
	fnStack []string

	// bytecode engine state
	engine  Engine
	vmc     *vmCompiled
	vmcErr  error
	vmcDone bool
	vm      *vmState
}

type funcDecl struct{ d *ast.FuncDecl }
type funcLit struct{ l *ast.FuncLit }

func (funcDecl) isDecl() {}
func (funcLit) isDecl()  {}

// NewMachine prepares an interpreter for prog. Standard intrinsics
// (math.Sqrt, math.Abs, math.Pow, math.Floor, math.Ceil, math.Sin,
// math.Cos, math.Inf) are pre-registered.
func NewMachine(prog *source.Program) *Machine {
	m := &Machine{
		prog:        prog,
		structTypes: make(map[string][]string),
		intrinsics:  make(map[string]*Intrinsic),
		nextAddr:    1,
	}
	m.collectTypes()
	m.registerStdIntrinsics()
	return m
}

// RegisterIntrinsic installs (or replaces) an intrinsic callable by
// name ("f") or qualified name ("pkg.f").
func (m *Machine) RegisterIntrinsic(in Intrinsic) {
	cp := in
	m.intrinsics[in.Name] = &cp
	// The compiled form binds intrinsic pointers; recompile lazily.
	m.vmc, m.vmcErr, m.vmcDone = nil, nil, false
	m.vm = nil
}

func (m *Machine) registerStdIntrinsics() {
	unary := func(name string, cost uint64, f func(float64) float64) {
		m.RegisterIntrinsic(Intrinsic{Name: name, Cost: cost, Fn: func(args []Value) Value {
			return f(toFloat(args[0]))
		}})
	}
	unary("math.Sqrt", 8, math.Sqrt)
	unary("math.Abs", 2, math.Abs)
	unary("math.Floor", 2, math.Floor)
	unary("math.Ceil", 2, math.Ceil)
	unary("math.Sin", 12, math.Sin)
	unary("math.Cos", 12, math.Cos)
	m.RegisterIntrinsic(Intrinsic{Name: "math.Pow", Cost: 16, Fn: func(args []Value) Value {
		return math.Pow(toFloat(args[0]), toFloat(args[1]))
	}})
	m.RegisterIntrinsic(Intrinsic{Name: "math.Inf", Cost: 1, Fn: func(args []Value) Value {
		return math.Inf(int(toInt(args[0])))
	}})
	m.RegisterIntrinsic(Intrinsic{Name: "math.MaxInt", Cost: 1, Fn: func(args []Value) Value {
		return int64(math.MaxInt64)
	}})
}

func toFloat(v Value) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	}
	fail("expected numeric value, got %s", formatValue(v))
	return 0
}

func toInt(v Value) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	fail("expected integer value, got %s", formatValue(v))
	return 0
}

// collectTypes indexes struct type declarations for composite literals
// and zero values.
func (m *Machine) collectTypes() {
	for _, file := range m.prog.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				var fields []string
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						fields = append(fields, name.Name)
					}
				}
				m.structTypes[ts.Name.Name] = fields
			}
		}
	}
}

// alloc reserves n consecutive addresses and returns the first.
func (m *Machine) alloc(n int) uint64 {
	a := m.nextAddr
	m.nextAddr += uint64(n)
	return a
}

// tick advances virtual time and attributes it to the statement stack.
func (m *Machine) tick(cost uint64) {
	m.clock += cost
	if m.maxTicks > 0 && m.clock > m.maxTicks {
		fail("virtual time budget exhausted (%d ticks)", m.maxTicks)
	}
	if m.prof == nil {
		return
	}
	if n := len(m.stack); n > 0 {
		m.prof.Self[m.stack[n-1]] += cost
		// Attribute inclusive time once per distinct frame; the stack
		// is short, so allocation-free linear dedup beats a map here.
		for i, r := range m.stack {
			dup := false
			for j := 0; j < i; j++ {
				if m.stack[j] == r {
					dup = true
					break
				}
			}
			if !dup {
				m.prof.Incl[r] += cost
			}
		}
	}
}

// load/store attribute an access to every live tracked loop.
func (m *Machine) load(addr uint64) {
	m.tick(1)
	if len(m.live) > 0 {
		m.access(addr, MemLoad)
	}
}

func (m *Machine) store(addr uint64) {
	m.tick(1)
	if len(m.live) > 0 {
		m.access(addr, MemStore)
	}
}

// startRun resets the per-run state both engines share.
func (m *Machine) startRun(opts Options, prof *Profile) {
	m.clock = 0
	m.maxTicks = opts.MaxTicks
	if m.maxTicks == 0 {
		m.maxTicks = 200_000_000
	}
	m.output = opts.Output
	m.prof = prof
	m.deps = opts.Dependences
	m.target = Ref{}
	if !m.deps {
		m.target = opts.TargetLoop
	}
	m.tracks = nil
	if m.deps || m.target != (Ref{}) {
		m.tracks = make(map[Ref]*loopTrack)
	}
	m.live = m.live[:0]
	m.stack = m.stack[:0]
	m.fnStack = m.fnStack[:0]
}

// runTree executes the named function on the reference tree-walking
// engine (see Run in engine.go for dispatch).
func (m *Machine) runTree(fnName string, args []Value, opts Options) (results []Value, prof *Profile, err error) {
	fn := m.prog.Func(fnName)
	if fn == nil {
		return nil, nil, fmt.Errorf("interp: function %q not found", fnName)
	}
	m.startRun(opts, &Profile{
		Incl:  make(map[Ref]uint64),
		Self:  make(map[Ref]uint64),
		Count: make(map[Ref]uint64),
	})

	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()

	m.globals = newEnv(nil)
	m.initGlobals()

	ret := m.callFunction(fn, nil, args)
	m.prof.Total = m.clock
	m.prof.Loops = m.loopDeps()
	return ret, m.prof, nil
}

// initGlobals evaluates package-level var declarations in file order.
func (m *Machine) initGlobals() {
	for _, file := range m.prog.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var v Value
					if i < len(vs.Values) {
						v = m.eval(vs.Values[i], m.globals, nil)
					} else {
						v = m.zeroValueFor(vs.Type)
					}
					m.globals.define(name.Name, &cell{addr: m.alloc(1), val: v})
				}
			}
		}
	}
}

// callFunction invokes a program function or method.
func (m *Machine) callFunction(fn *source.Function, recv Value, args []Value) []Value {
	frame := newEnv(m.globals)
	decl := fn.Decl
	if decl.Recv != nil {
		for _, f := range decl.Recv.List {
			for _, name := range f.Names {
				frame.define(name.Name, &cell{addr: m.alloc(1), val: recv})
			}
		}
	}
	idx := 0
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			for _, name := range f.Names {
				if idx >= len(args) {
					fail("too few arguments calling %s", fn.Name)
				}
				frame.define(name.Name, &cell{addr: m.alloc(1), val: args[idx]})
				idx++
			}
		}
	}
	if idx != len(args) {
		fail("argument count mismatch calling %s: have %d, want %d", fn.Name, len(args), idx)
	}
	// Named results start at zero values.
	if decl.Type.Results != nil {
		for _, f := range decl.Type.Results.List {
			for _, name := range f.Names {
				frame.define(name.Name, &cell{addr: m.alloc(1), val: m.zeroValueFor(f.Type)})
			}
		}
	}

	m.depth++
	if m.depth > 4096 {
		fail("call depth exceeds 4096 (runaway recursion in %s?)", fn.Name)
	}
	defer func() { m.depth-- }()
	m.fnStack = append(m.fnStack, fn.Name)
	m.tick(5) // call overhead
	ctrl := m.execBlock(decl.Body, frame, fn)
	m.fnStack = m.fnStack[:len(m.fnStack)-1]

	if ctrl.kind == ctrlReturn && ctrl.hasValues {
		return ctrl.values
	}
	// Bare return or fell off the end: collect named results.
	if decl.Type.Results != nil && len(decl.Type.Results.List) > 0 {
		var out []Value
		for _, f := range decl.Type.Results.List {
			for _, name := range f.Names {
				out = append(out, frame.lookup(name.Name).val)
			}
		}
		return out
	}
	return nil
}

// zeroValueFor produces a zero value from a type expression.
func (m *Machine) zeroValueFor(texpr ast.Expr) Value {
	switch t := texpr.(type) {
	case nil:
		return nil
	case *ast.Ident:
		switch t.Name {
		case "int", "int64", "byte", "rune", "uint", "int32":
			return int64(0)
		case "float64", "float32":
			return float64(0)
		case "bool":
			return false
		case "string":
			return ""
		default:
			if fields, ok := m.structTypes[t.Name]; ok {
				return m.newStruct(t.Name, fields)
			}
			return nil
		}
	case *ast.ArrayType, *ast.MapType:
		return nil // nil slice/map
	case *ast.StarExpr:
		return nil
	case *ast.SelectorExpr:
		return nil
	case *ast.FuncType:
		return nil
	}
	return nil
}

func (m *Machine) newStruct(typeName string, fields []string) *Struct {
	s := &Struct{
		Type:   typeName,
		order:  append([]string(nil), fields...),
		fields: make(map[string]Value, len(fields)),
		index:  make(map[string]int, len(fields)),
		base:   0,
	}
	s.base = m.alloc(len(fields) + 1)
	for i, f := range fields {
		s.fields[f] = nil
		s.index[f] = i
	}
	return s
}

func (s *Struct) fieldAddr(name string) uint64 {
	if i, ok := s.index[name]; ok {
		return s.base + uint64(i)
	}
	return s.base
}

// NewSlice builds a host-provided slice value (for passing inputs).
func (m *Machine) NewSlice(vals ...Value) *Slice {
	s := &Slice{Elems: append([]Value(nil), vals...)}
	s.base = m.alloc(len(vals) + 1)
	return s
}

// NewStructValue builds a host-provided struct instance of a declared
// type, with fields assigned in declaration order.
func (m *Machine) NewStructValue(typeName string, fieldValues ...Value) *Struct {
	fields, ok := m.structTypes[typeName]
	if !ok {
		fail("unknown struct type %s", typeName)
	}
	s := m.newStruct(typeName, fields)
	for i, v := range fieldValues {
		if i < len(fields) {
			s.fields[fields[i]] = v
		}
	}
	return s
}

// Clock returns the current virtual time.
func (m *Machine) Clock() uint64 { return m.clock }
