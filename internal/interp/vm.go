package interp

import (
	"go/token"
	"strings"

	"patty/internal/source"
)

// The bytecode VM. It executes the op stream produced by compile.go
// with preallocated value/slot/loop arenas, reusing the Machine's
// clock, budget and memory-trace plumbing so that virtual time,
// per-statement profile and load/store trace are bit-for-bit identical
// to the tree-walker. The tree-walker remains the differential oracle
// (internal/difftest exercises both engines over the generator space).

// slotCell is one frame-local variable cell. Undefined cells make the
// resolution chain fall through to outer bindings, mirroring the
// tree-walker's nested environments.
type slotCell struct {
	val     Value
	addr    uint64
	defined bool
}

// loopState is the per-activation state of one loop (indexed by static
// nesting depth within the unit).
type loopState struct {
	track *loopTrack // nil unless the run profiles this loop
	rng   rangeIter
}

// vmState is the reusable execution state of the bytecode engine; it
// lives on the Machine so repeated runs reuse the arenas.
type vmState struct {
	m   *Machine
	vmc *vmCompiled

	stk   []Value    // shared value stack
	slots []slotCell // frame-slot arena
	loops []loopState

	res  []Value  // result register of the last call
	res1 [1]Value // allocation-free backing for single results

	gSlots []slotCell // globals, indexed like vmc.globalNames

	// Per-statement profiling over the dense ref table. pend batches
	// ticks between ref-stack changes; flushing on every push/pop keeps
	// attribution identical to the tree-walker's per-tick bookkeeping
	// because no observable event separates merged ticks.
	count    []uint64
	self     []uint64
	incl     []uint64
	occurs   []uint32 // per ref: live occurrences on refStack
	distinct []int32  // refs with occurs > 0, in first-push order
	refStack []int32
	pend     uint64
}

func newVMState(m *Machine, vmc *vmCompiled) *vmState {
	n := len(vmc.refs)
	return &vmState{
		m:      m,
		vmc:    vmc,
		gSlots: make([]slotCell, len(vmc.globalNames)),
		count:  make([]uint64, n),
		self:   make([]uint64, n),
		incl:   make([]uint64, n),
		occurs: make([]uint32, n),
	}
}

// reset clears all run state, including anything a panicked previous
// run may have left behind.
func (vm *vmState) reset() {
	vm.stk = clearValues(vm.stk)
	vm.slots = vm.slots[:cap(vm.slots)]
	for i := range vm.slots {
		vm.slots[i] = slotCell{}
	}
	vm.slots = vm.slots[:0]
	vm.loops = vm.loops[:cap(vm.loops)]
	for i := range vm.loops {
		vm.loops[i] = loopState{}
	}
	vm.loops = vm.loops[:0]
	vm.res = nil
	vm.res1[0] = nil
	for i := range vm.gSlots {
		vm.gSlots[i] = slotCell{}
	}
	for i := range vm.count {
		vm.count[i] = 0
		vm.self[i] = 0
		vm.incl[i] = 0
		vm.occurs[i] = 0
	}
	vm.distinct = vm.distinct[:0]
	vm.refStack = vm.refStack[:0]
	vm.pend = 0
}

func clearValues(s []Value) []Value {
	s = s[:cap(s)]
	for i := range s {
		s[i] = nil
	}
	return s[:0]
}

// runVM executes fnName on the bytecode engine. The Machine-level run
// state is initialized exactly as in runTree; m.stack stays empty so
// m.tick skips its per-ref attribution (the VM keeps its own dense
// counters) while still advancing the clock and checking the budget.
func (m *Machine) runVM(vmc *vmCompiled, fnName string, args []Value, opts Options) (results []Value, prof *Profile, err error) {
	m.startRun(opts, &Profile{})

	vm := m.vm
	if vm == nil || vm.vmc != vmc {
		vm = newVMState(m, vmc)
		m.vm = vm
	}
	vm.reset()

	savedDepth := m.depth
	defer func() {
		if r := recover(); r != nil {
			m.depth = savedDepth
			if re, ok := r.(*RuntimeError); ok {
				results, prof, err = nil, nil, re
				return
			}
			panic(r)
		}
	}()

	vm.runUnit(vmc.initCode, nil, nil, true)
	ret := vm.runUnit(vmc.byName[fnName], nil, args, false)

	vm.flushPend()
	m.prof.Total = m.clock
	m.prof.Incl, m.prof.Self, m.prof.Count = vm.profileMaps()
	m.prof.Loops = m.loopDeps()
	return ret, m.prof, nil
}

// profileMaps converts the dense counters to the tree-walker's map
// form. Every executed statement has count ≥ 1, and its entry push
// ticks at least once, so the three key sets coincide exactly as they
// do in the tree-walker.
func (vm *vmState) profileMaps() (incl, self, count map[Ref]uint64) {
	n := 0
	for _, c := range vm.count {
		if c > 0 {
			n++
		}
	}
	incl = make(map[Ref]uint64, n)
	self = make(map[Ref]uint64, n)
	count = make(map[Ref]uint64, n)
	for i, c := range vm.count {
		if c == 0 {
			continue
		}
		r := vm.vmc.refs[i]
		count[r] = c
		self[r] = vm.self[i]
		incl[r] = vm.incl[i]
	}
	return incl, self, count
}

// tick/load/store wrap the Machine's clock and trace plumbing, also
// accumulating the pending self/incl attribution.
func (vm *vmState) tick(cost uint64) {
	vm.m.tick(cost)
	vm.pend += cost
}

func (vm *vmState) load(addr uint64) {
	vm.m.load(addr)
	vm.pend++
}

func (vm *vmState) store(addr uint64) {
	vm.m.store(addr)
	vm.pend++
}

func (vm *vmState) flushPend() {
	if vm.pend == 0 {
		return
	}
	if n := len(vm.refStack); n > 0 {
		vm.self[vm.refStack[n-1]] += vm.pend
		for _, id := range vm.distinct {
			vm.incl[id] += vm.pend
		}
	}
	vm.pend = 0
}

func (vm *vmState) pushRef(id int32) {
	vm.flushPend()
	vm.count[id]++
	vm.refStack = append(vm.refStack, id)
	vm.occurs[id]++
	if vm.occurs[id] == 1 {
		vm.distinct = append(vm.distinct, id)
	}
	vm.tick(1) // statement entry, as in execStmt
}

func (vm *vmState) popRefs(n int32) {
	vm.flushPend()
	for ; n > 0; n-- {
		top := vm.refStack[len(vm.refStack)-1]
		vm.refStack = vm.refStack[:len(vm.refStack)-1]
		vm.occurs[top]--
		if vm.occurs[top] == 0 {
			// A ref's first occurrence is its deepest, so the zeroed
			// ref is always the most recently added distinct entry.
			vm.distinct = vm.distinct[:len(vm.distinct)-1]
		}
	}
}

func (vm *vmState) push(v Value) { vm.stk = append(vm.stk, v) }

func (vm *vmState) pop() Value {
	v := vm.stk[len(vm.stk)-1]
	vm.stk = vm.stk[:len(vm.stk)-1]
	return v
}

// callArgs yields the argument list for a call-like op: the top n stack
// values, or the last call's results when n is -1 (fan-out). The
// returned slice may alias the stack or the result register; callees
// consume it before pushing anything.
func (vm *vmState) callArgs(n int32) []Value {
	if n < 0 {
		return vm.res
	}
	if n == 0 {
		return nil
	}
	return vm.stk[len(vm.stk)-int(n):]
}

// dropCallArgs truncates fan-in arguments after the call consumed them.
func (vm *vmState) dropCallArgs(n int32) {
	if n > 0 {
		vm.stk = vm.stk[:len(vm.stk)-int(n)]
	}
}

func (vm *vmState) setRes1(v Value) {
	vm.res1[0] = v
	vm.res = vm.res1[:1]
}

// loadName resolves an identifier in value position: defined slot or
// global (with load event), else program function, intrinsic function
// value, or failure — the compiled image of evalIdent's lookup chain.
func (vm *vmState) loadName(r *resolution, sbase int) Value {
	for ; r != nil; r = r.next {
		switch r.kind {
		case resSlot:
			c := &vm.slots[sbase+int(r.idx)]
			if c.defined {
				vm.load(c.addr)
				return c.val
			}
		case resGlobal:
			g := &vm.gSlots[r.idx]
			if g.defined {
				vm.load(g.addr)
				return g.val
			}
		case resFunc:
			u := vm.vmc.units[r.idx]
			return &Func{Name: r.name, decl: funcDecl{u.fn.Decl}}
		case resIntrinsic:
			return &Func{Name: vm.vmc.intrinsics[r.idx].Name}
		case resUndef:
			fail("undefined identifier %q", r.name)
		}
	}
	fail("undefined identifier %q", r.name)
	return nil
}

// storeTarget resolves an identifier in assignment position: only
// variable cells qualify; functions and intrinsics are not cells, so
// the chain skips them exactly like env.lookup missing them.
func (vm *vmState) storeTarget(r *resolution, sbase int) *slotCell {
	for ; r != nil; r = r.next {
		switch r.kind {
		case resSlot:
			c := &vm.slots[sbase+int(r.idx)]
			if c.defined {
				return c
			}
		case resGlobal:
			g := &vm.gSlots[r.idx]
			if g.defined {
				return g
			}
		case resFunc, resIntrinsic:
			// not addressable; keep falling through
		case resUndef:
			fail("assignment to undefined variable %q", r.name)
		}
	}
	fail("assignment to undefined variable %q", r.name)
	return nil
}

// resolveCallee resolves a called identifier: the compiled image of
// evalCallMulti's plain-ident dispatch, including the "value is not a
// function" check firing before the load event.
func (vm *vmState) resolveCallee(r *resolution, sbase int) Value {
	for ; r != nil; r = r.next {
		switch r.kind {
		case resSlot:
			c := &vm.slots[sbase+int(r.idx)]
			if c.defined {
				f, ok := c.val.(*Func)
				if !ok {
					fail("%q is not a function", r.name)
				}
				vm.load(c.addr)
				return f
			}
		case resGlobal:
			g := &vm.gSlots[r.idx]
			if g.defined {
				f, ok := g.val.(*Func)
				if !ok {
					fail("%q is not a function", r.name)
				}
				vm.load(g.addr)
				return f
			}
		case resFunc:
			return calleeFunc{code: vm.vmc.units[r.idx]}
		case resIntrinsic:
			return calleeIntr{in: vm.vmc.intrinsics[r.idx]}
		case resUndef:
			fail("undefined function %q", r.name)
		}
	}
	fail("undefined function %q", r.name)
	return nil
}

// callValue invokes a resolved callee. Intrinsic results go through the
// result register without allocation.
func (vm *vmState) callValue(callee Value, args []Value) []Value {
	m := vm.m
	switch c := callee.(type) {
	case calleeFunc:
		return vm.runUnit(c.code, c.recv, args, false)
	case calleeIntr:
		vm.tick(c.in.Cost)
		vm.setRes1(c.in.Fn(args))
		return vm.res
	case *Func:
		switch d := c.decl.(type) {
		case funcDecl:
			pf := m.prog.Func(source.FuncName(d.d))
			if pf == nil {
				fail("dangling function value %s", c.Name)
			}
			return vm.runUnit(vm.vmc.byName[pf.Name], c.recv, args, false)
		case funcLit:
			// Closures bail the whole program out of compilation, so a
			// compiled program can never construct one.
			fail("cannot call %s", c.Name)
			return nil
		default:
			if in, ok := m.intrinsics[c.Name]; ok {
				vm.tick(in.Cost)
				vm.setRes1(in.Fn(args))
				return vm.res
			}
			fail("cannot call %s", c.Name)
			return nil
		}
	default:
		fail("cannot call %s", formatValue(callee))
		return nil
	}
}

// runUnit executes one compiled unit to completion and returns its
// results. Program-level calls recurse through the Go stack, bounded by
// the interpreter's own 4096-frame guard. isInit marks the package
// initializer, which runs without call overhead or a depth frame
// (initGlobals is not a call in the tree-walker).
func (vm *vmState) runUnit(code *Code, recv Value, args []Value, isInit bool) []Value {
	m := vm.m

	sbase := len(vm.slots)
	for i := 0; i < code.NumSlots; i++ {
		vm.slots = append(vm.slots, slotCell{})
	}
	lbase := len(vm.loops)
	for i := 0; i < code.NumLoops; i++ {
		vm.loops = append(vm.loops, loopState{})
	}
	vbase := len(vm.stk)

	// Frame setup replays callFunction's allocation order: receiver,
	// parameters, then named results (cell address before zero value).
	for _, si := range code.recvSlots {
		vm.slots[sbase+int(si)] = slotCell{val: recv, addr: m.alloc(1), defined: true}
	}
	idx := 0
	for _, si := range code.paramSlots {
		if idx >= len(args) {
			fail("too few arguments calling %s", code.Name)
		}
		vm.slots[sbase+int(si)] = slotCell{val: args[idx], addr: m.alloc(1), defined: true}
		idx++
	}
	if !isInit && idx != len(args) {
		fail("argument count mismatch calling %s: have %d, want %d", code.Name, len(args), idx)
	}
	for i, si := range code.resultSlots {
		a := m.alloc(1)
		vm.slots[sbase+int(si)] = slotCell{val: m.zeroValueFor(code.Types[code.resultTypes[i]]), addr: a, defined: true}
	}
	if !isInit {
		m.depth++
		if m.depth > 4096 {
			fail("call depth exceeds 4096 (runaway recursion in %s?)", code.Name)
		}
		vm.tick(5) // call overhead
	}

	ops := code.Ops
	pc := 0
	var rets []Value

loop:
	for {
		op := ops[pc]
		pc++
		switch op.Code {
		case opConst:
			vm.push(code.Consts[op.A])
		case opDrop:
			vm.stk = vm.stk[:len(vm.stk)-1]
		case opDropN:
			vm.stk = vm.stk[:len(vm.stk)-int(op.A)]
		case opRes1:
			vm.setRes1(vm.pop())
		case opExpect1:
			if len(vm.res) != 1 {
				fail("expression yields %d values where one is required", len(vm.res))
			}
			vm.push(vm.res[0])
		case opExpectN:
			if len(vm.res) != int(op.A) {
				fail("assignment mismatch: %d values, %d targets", len(vm.res), int(op.A))
			}
			vm.stk = append(vm.stk, vm.res...)

		case opTick:
			vm.tick(uint64(op.A))
		case opPushRef:
			vm.pushRef(int32(code.refBase) + op.A)
		case opPopRefs:
			vm.popRefs(op.A)

		case opJump:
			pc = int(op.A)
		case opJfalse:
			b, err := truthy(vm.pop())
			if err != nil {
				fail("%v", err)
			}
			if !b {
				pc = int(op.A)
			}
		case opAndShort:
			b, err := truthy(vm.pop())
			if err != nil {
				fail("%v", err)
			}
			if !b {
				vm.push(false)
				pc = int(op.A)
			}
		case opOrShort:
			b, err := truthy(vm.pop())
			if err != nil {
				fail("%v", err)
			}
			if b {
				vm.push(true)
				pc = int(op.A)
			}
		case opBool:
			b, err := truthy(vm.stk[len(vm.stk)-1])
			if err != nil {
				fail("%v", err)
			}
			vm.stk[len(vm.stk)-1] = b

		case opLoadName:
			vm.push(vm.loadName(code.Res[op.A], sbase))
		case opNameLVGet:
			c := vm.storeTarget(code.Res[op.A], sbase)
			vm.load(c.addr)
			vm.push(c.val)
		case opStoreName:
			c := vm.storeTarget(code.Res[op.A], sbase)
			c.val = vm.pop()
			vm.store(c.addr)
		case opStoreNameAt:
			c := vm.storeTarget(code.Res[op.A], sbase)
			c.val = vm.stk[len(vm.stk)-1-int(op.B)]
			vm.store(c.addr)
		case opCheckName:
			vm.storeTarget(code.Res[op.A], sbase)
		case opDefineSlot:
			v := vm.pop()
			c := &vm.slots[sbase+int(op.A)]
			*c = slotCell{val: v, addr: m.alloc(1), defined: true}
			vm.store(c.addr)
		case opDefineSlotAt:
			v := vm.stk[len(vm.stk)-1-int(op.B)]
			c := &vm.slots[sbase+int(op.A)]
			*c = slotCell{val: v, addr: m.alloc(1), defined: true}
			vm.store(c.addr)
		case opStoreSlot:
			v := vm.pop()
			vm.redeclareSlot(sbase+int(op.A), v)
		case opStoreSlotAt:
			v := vm.stk[len(vm.stk)-1-int(op.B)]
			vm.redeclareSlot(sbase+int(op.A), v)
		case opDefineGlobal:
			v := vm.pop()
			vm.gSlots[op.A] = slotCell{val: v, addr: m.alloc(1), defined: true}
		case opIntrFuncVal:
			vm.push(&Func{Name: code.Names[op.A]})
		case opZeroVal:
			vm.push(m.zeroValueFor(code.Types[op.A]))
		case opClearSlots:
			for i := sbase + int(op.A); i < sbase+code.NumSlots; i++ {
				vm.slots[i] = slotCell{}
			}

		case opBinop:
			b := vm.pop()
			a := vm.pop()
			vm.push(m.binop(token.Token(op.A), a, b))
		case opNeg:
			switch x := vm.stk[len(vm.stk)-1].(type) {
			case int64:
				vm.stk[len(vm.stk)-1] = -x
			case float64:
				vm.stk[len(vm.stk)-1] = -x
			default:
				fail("cannot negate %s", formatValue(x))
			}
		case opNot:
			b, err := truthy(vm.stk[len(vm.stk)-1])
			if err != nil {
				fail("%v", err)
			}
			vm.stk[len(vm.stk)-1] = !b
		case opBitNot:
			vm.stk[len(vm.stk)-1] = ^toInt(vm.stk[len(vm.stk)-1])
		case opToInt:
			vm.stk[len(vm.stk)-1] = toInt(vm.stk[len(vm.stk)-1])
		case opToFloat:
			vm.stk[len(vm.stk)-1] = toFloat(vm.stk[len(vm.stk)-1])
		case opConvStr:
			switch x := vm.stk[len(vm.stk)-1].(type) {
			case int64:
				vm.stk[len(vm.stk)-1] = string(rune(x))
			case string:
				// identity
			default:
				fail("unsupported string conversion")
			}
		case opIncDec:
			vm.stk[len(vm.stk)-1] = toInt(vm.stk[len(vm.stk)-1]) + int64(op.A)

		case opIndex:
			idx := vm.pop()
			base := vm.pop()
			switch b := base.(type) {
			case *Slice:
				i := toInt(idx)
				if i < 0 || int(i) >= len(b.Elems) {
					fail("slice index %d out of range [0:%d)", i, len(b.Elems))
				}
				vm.load(b.base + uint64(i))
				vm.push(b.Elems[i])
			case *Map:
				if b.M == nil {
					vm.push(nil)
					break
				}
				if a, ok := b.addrs[idx]; ok {
					vm.load(a)
				}
				v, ok := b.M[idx]
				if !ok {
					v = mapZero(v)
				}
				vm.push(v)
			case string:
				i := toInt(idx)
				if i < 0 || int(i) >= len(b) {
					fail("string index out of range")
				}
				vm.push(int64(b[i]))
			case nil:
				fail("index of nil value")
			default:
				fail("cannot index %s", formatValue(base))
			}
		case opIndexLVCheck:
			idx := vm.stk[len(vm.stk)-1]
			base := vm.stk[len(vm.stk)-2]
			switch b := base.(type) {
			case *Slice:
				i := toInt(idx)
				if i < 0 || int(i) >= len(b.Elems) {
					fail("slice index %d out of range [0:%d)", i, len(b.Elems))
				}
			case *Map:
				if b.M == nil {
					fail("assignment to entry of nil map")
				}
			default:
				fail("cannot index-assign %s", formatValue(base))
			}
		case opIndexLVGet:
			idx := vm.stk[len(vm.stk)-1]
			base := vm.stk[len(vm.stk)-2]
			switch b := base.(type) {
			case *Slice:
				i := toInt(idx)
				vm.load(b.base + uint64(i))
				vm.push(b.Elems[i])
			case *Map:
				if a, ok := b.addrs[idx]; ok {
					vm.load(a)
				}
				v, ok := b.M[idx]
				if !ok {
					v = mapZero(nil)
				}
				vm.push(v)
			}
		case opIndexSetAt:
			v := vm.stk[len(vm.stk)-1-int(op.A)]
			base := vm.stk[len(vm.stk)-1-int(op.B)]
			idx := vm.stk[len(vm.stk)-int(op.B)]
			switch b := base.(type) {
			case *Slice:
				i := toInt(idx)
				b.Elems[i] = v
				vm.store(b.base + uint64(i))
			case *Map:
				if _, ok := b.addrs[idx]; !ok {
					b.addrs[idx] = m.alloc(1)
				}
				b.M[idx] = v
				vm.store(b.addrs[idx])
			}
		case opSelect:
			name := code.Names[op.A]
			base := vm.pop()
			st, ok := base.(*Struct)
			if !ok {
				fail("cannot select %s from %s", name, formatValue(base))
			}
			if v, ok := st.Get(name); ok {
				vm.load(st.fieldAddr(name))
				vm.push(v)
				break
			}
			if mf := m.prog.Func(st.Type + "." + name); mf != nil {
				vm.push(&Func{Name: mf.Name, decl: funcDecl{mf.Decl}, recv: st})
				break
			}
			fail("type %s has no field or method %s", st.Type, name)
		case opFieldLVCheck:
			name := code.Names[op.A]
			st, ok := vm.stk[len(vm.stk)-1].(*Struct)
			if !ok {
				fail("cannot assign field %s of %s", name, formatValue(vm.stk[len(vm.stk)-1]))
			}
			if _, ok := st.Get(name); !ok {
				fail("type %s has no field %s", st.Type, name)
			}
		case opFieldLVGet:
			name := code.Names[op.A]
			st := vm.stk[len(vm.stk)-1].(*Struct)
			vm.load(st.fieldAddr(name))
			v, _ := st.Get(name)
			vm.push(v)
		case opFieldSetAt:
			name := code.Names[op.A]
			v := vm.stk[len(vm.stk)-1-int(op.B)]
			st := vm.stk[len(vm.stk)-1-int(op.C)].(*Struct)
			st.fields[name] = v
			vm.store(st.fieldAddr(name))
		case opSliceExpr:
			var lo, hi int64 = 0, -1
			if op.B == 1 {
				hi = vm.pop().(int64)
			}
			if op.A == 1 {
				lo = vm.pop().(int64)
			}
			base := vm.pop()
			switch b := base.(type) {
			case *Slice:
				if hi < 0 {
					hi = int64(len(b.Elems))
				}
				if lo < 0 || hi > int64(len(b.Elems)) || lo > hi {
					fail("slice bounds out of range [%d:%d] with length %d", lo, hi, len(b.Elems))
				}
				vm.push(&Slice{Elems: b.Elems[lo:hi], base: b.base + uint64(lo)})
			case string:
				if hi < 0 {
					hi = int64(len(b))
				}
				if lo < 0 || hi > int64(len(b)) || lo > hi {
					fail("string bounds out of range")
				}
				vm.push(b[lo:hi])
			default:
				fail("cannot slice %s", formatValue(base))
			}

		case opNewStruct:
			name := code.Names[op.A]
			vm.push(m.newStruct(name, m.structTypes[name]))
		case opSetField:
			name := code.Names[op.A]
			v := vm.pop()
			st := vm.stk[len(vm.stk)-1].(*Struct)
			st.fields[name] = v
			vm.store(st.fieldAddr(name))
		case opMakeSliceLit:
			n := int(op.A)
			elems := make([]Value, n)
			copy(elems, vm.stk[len(vm.stk)-n:])
			vm.stk = vm.stk[:len(vm.stk)-n]
			s := &Slice{Elems: elems}
			s.base = m.alloc(n + 1)
			vm.push(s)
		case opNewMap:
			vm.push(&Map{M: make(map[Value]Value), addrs: make(map[Value]uint64)})
		case opMapLitSet:
			v := vm.pop()
			k := vm.pop()
			mp := vm.stk[len(vm.stk)-1].(*Map)
			mp.M[k] = v
			mp.addrs[k] = m.alloc(1)

		case opLen:
			v := vm.pop()
			var n int64
			switch x := v.(type) {
			case *Slice:
				n = int64(len(x.Elems))
			case *Map:
				n = int64(len(x.M))
			case string:
				n = int64(len(x))
			case nil:
				n = 0
			default:
				fail("len of %s", formatValue(v))
			}
			vm.setRes1(n)
		case opCap:
			v := vm.pop()
			if s, ok := v.(*Slice); ok {
				vm.setRes1(int64(cap(s.Elems)))
			} else {
				vm.setRes1(int64(0))
			}
		case opAppend:
			args := vm.callArgs(op.B)
			var s *Slice
			if args[0] == nil {
				s = &Slice{base: m.alloc(1)}
			} else {
				s = args[0].(*Slice)
			}
			elems := make([]Value, 0, len(s.Elems)+len(args)-1)
			elems = append(elems, s.Elems...)
			elems = append(elems, args[1:]...)
			ns := &Slice{Elems: elems}
			ns.base = m.alloc(len(ns.Elems) + 1)
			for i := range ns.Elems {
				vm.store(ns.base + uint64(i))
			}
			vm.dropCallArgs(op.B)
			vm.setRes1(ns)
		case opCopy:
			args := vm.callArgs(op.B)
			dst, ok1 := args[0].(*Slice)
			src, ok2 := args[1].(*Slice)
			if !ok1 || !ok2 {
				fail("copy expects slices")
			}
			n := copy(dst.Elems, src.Elems)
			for i := 0; i < n; i++ {
				vm.store(dst.base + uint64(i))
			}
			vm.dropCallArgs(op.B)
			vm.setRes1(int64(n))
		case opDelete:
			args := vm.callArgs(op.B)
			if mp, ok := args[0].(*Map); ok {
				delete(mp.M, args[1])
			}
			vm.dropCallArgs(op.B)
			vm.res = nil
		case opMin:
			args := vm.callArgs(op.B)
			best := args[0]
			if op.A == 1 {
				for _, a := range args[1:] {
					if lessValue(best, a) {
						best = a
					}
				}
			} else {
				for _, a := range args[1:] {
					if lessValue(a, best) {
						best = a
					}
				}
			}
			vm.dropCallArgs(op.B)
			vm.setRes1(best)
		case opPrintln:
			args := vm.callArgs(op.B)
			if m.output != nil {
				parts := make([]string, len(args))
				for i, a := range args {
					parts[i] = formatValue(a)
				}
				m.output(strings.Join(parts, " "))
			}
			vm.tick(10)
			vm.dropCallArgs(op.B)
			vm.res = nil
		case opPanic:
			args := vm.callArgs(op.B)
			fail("program panic: %s", formatValue(args[0]))
		case opMakeSlice:
			var n int64
			if op.A == 1 {
				n = vm.pop().(int64)
			}
			s := &Slice{Elems: make([]Value, n)}
			for i := range s.Elems {
				s.Elems[i] = int64(0)
			}
			s.base = m.alloc(int(n) + 1)
			vm.setRes1(s)
		case opMakeMap:
			vm.setRes1(&Map{M: make(map[Value]Value), addrs: make(map[Value]uint64)})
		case opNewNamed:
			name := code.Names[op.A]
			vm.setRes1(m.newStruct(name, m.structTypes[name]))

		case opLoadCallee:
			vm.push(vm.resolveCallee(code.Res[op.A], sbase))
		case opCheckFunc:
			if _, ok := vm.stk[len(vm.stk)-1].(*Func); !ok {
				fail("cannot call %s", formatValue(vm.stk[len(vm.stk)-1]))
			}
		case opMethodResolve:
			name := code.Names[op.A]
			base := vm.pop()
			st, ok := base.(*Struct)
			if !ok {
				fail("cannot call method %s on %s", name, formatValue(base))
			}
			if mf := m.prog.Func(st.Type + "." + name); mf != nil {
				vm.push(calleeFunc{code: vm.vmc.byName[mf.Name], recv: st})
				break
			}
			if fv, ok := st.Get(name); ok {
				if f, ok := fv.(*Func); ok {
					vm.push(f)
					break
				}
			}
			fail("type %s has no method %s", st.Type, name)
		case opCallValue:
			args := vm.callArgs(op.B)
			var callee Value
			if op.B >= 0 {
				callee = vm.stk[len(vm.stk)-1-int(op.B)]
			} else {
				callee = vm.stk[len(vm.stk)-1]
			}
			rets := vm.callValue(callee, args)
			if op.B >= 0 {
				vm.stk = vm.stk[:len(vm.stk)-1-int(op.B)]
			} else {
				vm.stk = vm.stk[:len(vm.stk)-1]
			}
			vm.res = rets
		case opCallIntrinsic:
			args := vm.callArgs(op.B)
			in := vm.vmc.intrinsics[op.A]
			vm.tick(in.Cost)
			v := in.Fn(args)
			vm.dropCallArgs(op.B)
			vm.setRes1(v)
		case opReturnValues:
			n := int(op.B)
			rets = make([]Value, n)
			copy(rets, vm.stk[len(vm.stk)-n:])
			break loop
		case opReturnRes:
			rets = vm.res
			break loop
		case opReturnBare:
			if n := len(code.resultSlots); n > 0 {
				rets = make([]Value, n)
				for i, si := range code.resultSlots {
					rets[i] = vm.slots[sbase+int(si)].val
				}
			}
			break loop

		case opLoopEnter:
			vm.loops[lbase+int(op.B)].track = m.enterLoop(Ref{Fn: code.Name, Stmt: int(op.A)})
		case opLoopLeave:
			m.leaveLoop(vm.loops[lbase+int(op.A)].track)
		case opIterInc:
			if t := vm.loops[lbase+int(op.A)].track; t.outermost() {
				t.iter++
			}
		case opSetTop:
			if t := vm.loops[lbase+int(op.A)].track; t.outermost() {
				t.top = int(op.B)
			}
		case opRangeStart:
			ls := &vm.loops[lbase+int(op.A)]
			x := vm.pop()
			ls.rng = rangeIter{}
			switch xs := x.(type) {
			case *Slice:
				ls.rng.kind = rangeSlice
				ls.rng.s = xs
			case *Map:
				ls.rng.kind = rangeMap
				ls.rng.mp = xs
				ls.rng.keys = xs.sortedKeys()
			case string:
				runes := make([]strIdx, 0, len(xs))
				for i, r := range xs {
					runes = append(runes, strIdx{i: int64(i), r: int64(r)})
				}
				ls.rng.kind = rangeString
				ls.rng.runes = runes
			case int64:
				ls.rng.kind = rangeInt
				ls.rng.n = xs
			case nil:
				ls.rng.kind = rangeEmpty
			default:
				fail("cannot range over %s", formatValue(x))
			}
		case opRangeNext:
			rng := &vm.loops[lbase+int(op.B)].rng
			switch rng.kind {
			case rangeSlice:
				if rng.i >= len(rng.s.Elems) {
					pc = int(op.A)
					break
				}
				vm.load(rng.s.base + uint64(rng.i))
				rng.curK = int64(rng.i)
				rng.curV = rng.s.Elems[rng.i]
				rng.i++
			case rangeMap:
				if rng.i >= len(rng.keys) {
					pc = int(op.A)
					break
				}
				k := rng.keys[rng.i]
				if a, ok := rng.mp.addrs[k]; ok {
					vm.load(a)
				}
				rng.curK = k
				rng.curV = rng.mp.M[k]
				rng.i++
			case rangeString:
				if rng.i >= len(rng.runes) {
					pc = int(op.A)
					break
				}
				rng.curK = rng.runes[rng.i].i
				rng.curV = rng.runes[rng.i].r
				rng.i++
			case rangeInt:
				if int64(rng.i) >= rng.n {
					pc = int(op.A)
					break
				}
				rng.curK = int64(rng.i)
				rng.curV = nil
				rng.i++
			default: // rangeEmpty
				pc = int(op.A)
			}
		case opRangeKey:
			vm.push(vm.loops[lbase+int(op.A)].rng.curK)
		case opRangeVal:
			vm.push(vm.loops[lbase+int(op.A)].rng.curV)
		case opRangeHasV:
			k := vm.loops[lbase+int(op.B)].rng.kind
			if k == rangeInt || k == rangeEmpty {
				pc = int(op.A)
			}

		case opCaseEq:
			v := vm.pop()
			tag := vm.stk[len(vm.stk)-1]
			if equalValues(tag, v) {
				vm.stk = vm.stk[:len(vm.stk)-1]
				pc = int(op.A)
			}

		case opFail:
			fail("%s", code.Msgs[op.A])

		default:
			fail("vm: invalid opcode %d at %s:%d", op.Code, code.Name, pc-1)
		}
	}

	vm.stk = vm.stk[:vbase]
	vm.slots = vm.slots[:sbase]
	vm.loops = vm.loops[:lbase]
	if !isInit {
		m.depth--
	}
	return rets
}

// redeclareSlot implements := redeclaration: reuse the live cell (its
// address is stable) or, when the slot was cleared by loop re-entry,
// define a fresh cell — exactly execAssign's dynamic env.vars check.
func (vm *vmState) redeclareSlot(i int, v Value) {
	c := &vm.slots[i]
	if !c.defined {
		*c = slotCell{val: v, addr: vm.m.alloc(1), defined: true}
	} else {
		c.val = v
	}
	vm.store(c.addr)
}
