// Package faultinject deterministically injects faults — panics,
// transient errors, delays — into pattern stage and work functions, so
// the fault tolerance of the parrt runtimes can be validated instead of
// asserted. Decisions are pure functions of (plan seed, site, item):
// two runs over the same plan inject exactly the same faults at exactly
// the same places, which is what lets the differential fuzzer predict
// the surviving item set (the oracle minus the fatal items) and lets a
// shrunk reproducer replay byte-identically from a seed.
package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"patty/internal/seed"
)

// Kind classifies an injected fault.
type Kind int

const (
	// Fatal faults panic on every attempt: a correct SkipItem run
	// drops exactly these items, and no finite retry budget saves them.
	Fatal Kind = iota
	// Transient faults panic on the first Tries attempts of an item and
	// succeed afterwards: a correct RetryItem run with enough retries
	// produces the full result set.
	Transient
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	if k == Fatal {
		return "fatal"
	}
	return "transient"
}

// Fault is the panic value thrown by an injection; typed so tests and
// the fuzzer can tell injected faults from genuine runtime bugs.
type Fault struct {
	Kind Kind
	Site string
	Item int
}

// Error implements the error interface.
func (f Fault) Error() string {
	return fmt.Sprintf("faultinject: %s fault at %q item %d", f.Kind, f.Site, f.Item)
}

// Plan configures an injection campaign. Rates are probabilities in
// [0, 1] evaluated independently per (site, item); a zero-value Plan
// injects nothing.
type Plan struct {
	// Seed drives every decision (via seed.Mix).
	Seed int64
	// PanicRate is the probability of a fatal, always-panicking fault.
	PanicRate float64
	// TransientRate is the probability of a transient fault that
	// panics on the first TransientTries attempts and then succeeds.
	// Fatal wins when both fire.
	TransientRate float64
	// TransientTries is how many attempts a transient fault consumes
	// before succeeding (0 is treated as 1).
	TransientTries int
	// DelayRate is the probability of injecting a Delay-long sleep —
	// slow items exercise back-pressure, reorder buffering and the
	// watchdog's progress accounting without failing anything.
	DelayRate float64
	// Delay is the injected sleep duration.
	Delay time.Duration
}

// Stats counts the faults an Injector actually fired.
type Stats struct {
	Fatal     int64 // fatal panics thrown
	Transient int64 // transient panics thrown (attempts, not items)
	Delays    int64 // delays injected
}

// Injector injects the plan's faults at instrumented sites. Safe for
// concurrent use by the pattern's worker goroutines.
type Injector struct {
	plan Plan

	mu       sync.Mutex
	attempts map[[2]any]int // (site, item) -> attempts seen so far

	fatal     atomic.Int64
	transient atomic.Int64
	delays    atomic.Int64
}

// New returns an injector for plan.
func New(plan Plan) *Injector {
	if plan.TransientTries < 1 {
		plan.TransientTries = 1
	}
	return &Injector{plan: plan, attempts: make(map[[2]any]int)}
}

// roll derives the deterministic decision variable for (site, item,
// salt) as a float in [0, 1) via seed.Roll.
func (inj *Injector) roll(site string, item int, salt int64) float64 {
	return seed.Roll(inj.plan.Seed, site, int64(item)*4+salt)
}

// Enter is called at the top of an instrumented stage/work function,
// before any user code runs — so a skipped or retried item has no
// partial side effects to undo. Depending on the plan it panics with a
// Fault, sleeps, or returns immediately.
func (inj *Injector) Enter(site string, item int) {
	if inj == nil {
		return
	}
	if inj.Fatal(site, item) {
		inj.fatal.Add(1)
		panic(Fault{Kind: Fatal, Site: site, Item: item})
	}
	if inj.roll(site, item, 1) < inj.plan.TransientRate {
		key := [2]any{site, item}
		inj.mu.Lock()
		inj.attempts[key]++
		n := inj.attempts[key]
		inj.mu.Unlock()
		if n <= inj.plan.TransientTries {
			inj.transient.Add(1)
			panic(Fault{Kind: Transient, Site: site, Item: item})
		}
	}
	if inj.plan.Delay > 0 && inj.roll(site, item, 2) < inj.plan.DelayRate {
		inj.delays.Add(1)
		time.Sleep(inj.plan.Delay)
	}
}

// Fatal reports whether (site, item) carries a fatal fault — the
// oracle side of Enter, usable without firing anything.
func (inj *Injector) Fatal(site string, item int) bool {
	if inj == nil {
		return false
	}
	return inj.roll(site, item, 0) < inj.plan.PanicRate
}

// FatalItems returns the sorted item indices in [0, n) that carry a
// fatal fault at site: the exact set a correct SkipItem run must drop.
func (inj *Injector) FatalItems(site string, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if inj.Fatal(site, i) {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// Stats returns the counts of faults fired so far.
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{}
	}
	return Stats{
		Fatal:     inj.fatal.Load(),
		Transient: inj.transient.Load(),
		Delays:    inj.delays.Load(),
	}
}
