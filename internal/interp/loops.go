package interp

import (
	"fmt"
	"sort"
)

// Loop-level dynamic dependence profiling, shared by both engines.
//
// Each statically distinct loop the run observes gets one loopTrack.
// Its state follows the loop across the whole run: an activation
// count (recursive re-entry nests without resetting anything), the
// iteration and top-level body statement of the outermost activation,
// and, on an Options.Dependences run, SD3-style shadow memory (Kim et
// al., MICRO'10) holding the last write and last read of every address
// touched while the loop was live. Every load and store is paired
// against the shadow of every live loop at once, so one run yields the
// carried dependences of all loops. A TargetLoop run tracks only the
// target and appends its accesses to Profile.Mem instead: that is the
// reference trace package profile pairs offline.

// DepKind mirrors the classic dependence taxonomy.
type DepKind int

const (
	// DepFlow is read-after-write across iterations.
	DepFlow DepKind = iota
	// DepAnti is write-after-read across iterations.
	DepAnti
	// DepOutput is write-after-write across iterations.
	DepOutput
)

// String returns the dependence-kind name.
func (k DepKind) String() string {
	switch k {
	case DepFlow:
		return "flow"
	case DepAnti:
		return "anti"
	case DepOutput:
		return "output"
	default:
		return fmt.Sprintf("dep(%d)", int(k))
	}
}

// CarriedPair is one observed loop-carried dependence between two
// top-level body statements (ids are function-local statement ids;
// -1 denotes loop-control context such as the condition).
type CarriedPair struct {
	FromStmt, ToStmt int
	Kind             DepKind
	// MinDistance is the smallest observed iteration distance.
	MinDistance int
	// Count is the number of dynamic instances.
	Count int
}

// LoopDeps is what a run observed of one executed loop.
type LoopDeps struct {
	// Iters is the number of completed iterations of the loop's last
	// outermost activation.
	Iters int
	// Carried lists the loop-carried dependences paired during an
	// Options.Dependences run, ordered by (FromStmt, ToStmt, Kind).
	// A TargetLoop run leaves it nil: its accesses are in Profile.Mem.
	Carried []CarriedPair
}

// shadowBits sizes a shadow page: 1<<shadowBits consecutive addresses.
const shadowBits = 10

// shadowCell is one address's last write and last read while the loop
// was live. Statement fields hold the top-level statement id plus one,
// so a zero cell (a fresh page) means "no access". A read from
// loop-control context stores 0: it can seed no anti dependence, which
// is exactly how the reference pairing treats it.
type shadowCell struct {
	wIter, rIter int
	wTop, rTop   int32
}

type pairKey struct {
	from, to int
	kind     DepKind
}

type loopTrack struct {
	active int // live activations; above 1 only under recursive re-entry
	iter   int // iteration of the outermost activation
	top    int // its current top-level body statement, -1 outside one
	iters  int // completed iterations of the last outermost activation

	shadow  [][]shadowCell // indexed by address >> shadowBits
	pairs   map[pairKey]int
	carried []CarriedPair
}

// enterLoop opens an activation of the loop ref and returns its track,
// or nil when the run profiles no dependences of that loop.
func (m *Machine) enterLoop(ref Ref) *loopTrack {
	if !m.deps && ref != m.target {
		return nil
	}
	t := m.tracks[ref]
	if t == nil {
		t = &loopTrack{top: -1, pairs: make(map[pairKey]int)}
		m.tracks[ref] = t
	}
	t.active++
	if t.active == 1 {
		t.iter = 0
		m.live = append(m.live, t)
	}
	return t
}

// leaveLoop closes the activation enterLoop opened. Outermost
// activations nest properly, so the live list is a stack.
func (m *Machine) leaveLoop(t *loopTrack) {
	if t == nil {
		return
	}
	if t.active == 1 {
		t.iters = t.iter
		m.live = m.live[:len(m.live)-1]
	}
	t.active--
}

// outermost reports whether t is an outermost activation, the only
// one whose iterations and body statements are counted.
func (t *loopTrack) outermost() bool { return t != nil && t.active == 1 }

// access attributes one load or store to every live loop.
func (m *Machine) access(addr uint64, kind MemKind) {
	for _, t := range m.live {
		if !m.deps {
			m.prof.Mem = append(m.prof.Mem, MemEvent{Addr: addr, Kind: kind, Iter: t.iter, TopStmt: t.top})
			continue
		}
		c := t.cell(addr)
		if kind == MemLoad {
			if c.wTop != 0 && c.wIter != t.iter {
				t.record(int(c.wTop)-1, t.top, DepFlow, t.iter-c.wIter)
			}
			c.rIter, c.rTop = t.iter, int32(t.top+1)
			continue
		}
		if t.top < 0 {
			// Loop-control store (e.g. the induction variable's
			// increment): control state never crosses stages, because
			// the transformation re-implements loop control as the
			// stream generator, so it seeds no dependence.
			*c = shadowCell{}
			continue
		}
		if c.wTop != 0 && c.wIter != t.iter {
			t.record(int(c.wTop)-1, t.top, DepOutput, t.iter-c.wIter)
		}
		if c.rTop != 0 && c.rIter != t.iter {
			t.record(int(c.rTop)-1, t.top, DepAnti, t.iter-c.rIter)
		}
		c.wIter, c.wTop = t.iter, int32(t.top+1)
	}
}

// cell returns addr's shadow cell, allocating its page on first touch.
func (t *loopTrack) cell(addr uint64) *shadowCell {
	p := int(addr >> shadowBits)
	if p >= len(t.shadow) {
		t.shadow = append(t.shadow, make([][]shadowCell, p+1-len(t.shadow))...)
	}
	page := t.shadow[p]
	if page == nil {
		page = make([]shadowCell, 1<<shadowBits)
		t.shadow[p] = page
	}
	return &page[addr&(1<<shadowBits-1)]
}

// record counts one dynamic instance of a carried dependence.
func (t *loopTrack) record(from, to int, kind DepKind, dist int) {
	if dist < 0 {
		dist = -dist
	}
	k := pairKey{from, to, kind}
	if i, ok := t.pairs[k]; ok {
		p := &t.carried[i]
		p.MinDistance = min(p.MinDistance, dist)
		p.Count++
		return
	}
	t.pairs[k] = len(t.carried)
	t.carried = append(t.carried, CarriedPair{FromStmt: from, ToStmt: to, Kind: kind, MinDistance: dist, Count: 1})
}

// loopDeps summarizes every tracked loop for the finished run's profile.
func (m *Machine) loopDeps() map[Ref]LoopDeps {
	if len(m.tracks) == 0 {
		return nil
	}
	out := make(map[Ref]LoopDeps, len(m.tracks))
	for ref, t := range m.tracks {
		c := t.carried
		sort.Slice(c, func(i, j int) bool {
			a, b := c[i], c[j]
			if a.FromStmt != b.FromStmt {
				return a.FromStmt < b.FromStmt
			}
			if a.ToStmt != b.ToStmt {
				return a.ToStmt < b.ToStmt
			}
			return a.Kind < b.Kind
		})
		out[ref] = LoopDeps{Iters: t.iters, Carried: c}
	}
	return out
}
