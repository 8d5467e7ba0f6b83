package parrt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"patty/internal/obs"
)

// Schedule selects the iteration-to-worker assignment policy of a
// data-parallel loop, mirroring the classic OpenMP schedules.
type Schedule int

const (
	// StaticSchedule splits the iteration space into one contiguous
	// block per worker up front. Lowest overhead, best for uniform
	// iteration cost.
	StaticSchedule Schedule = iota
	// DynamicSchedule hands out fixed-size chunks from a shared
	// counter. Balances irregular iteration cost at the price of one
	// atomic operation per chunk.
	DynamicSchedule
	// GuidedSchedule hands out geometrically shrinking chunks:
	// large chunks early (low overhead), small chunks late (balance).
	GuidedSchedule
)

// String returns the lower-case schedule name used in tuning files.
func (s Schedule) String() string {
	switch s {
	case StaticSchedule:
		return "static"
	case DynamicSchedule:
		return "dynamic"
	case GuidedSchedule:
		return "guided"
	default:
		return "unknown"
	}
}

// ScheduleNames lists the enum choices for the schedule tuning
// parameter, indexed by Schedule value.
var ScheduleNames = []string{"static", "dynamic", "guided"}

// ParallelFor is the tunable data-parallel loop pattern. The detector
// proves (optimistically) that iterations are independent apart from
// recognized reductions; the transformation rewrites the loop body
// into the Body function.
//
// Tuning parameters (registered under "parallelfor.<name>."):
//
//   - workers:             worker count (1..MaxWorkers)
//   - chunksize:           dynamic/guided chunk granularity
//   - schedule:            static / dynamic / guided
//   - sequentialexecution: run the loop inline
//   - minparallellen:      iteration-count threshold for inline execution
//
// The fault policy (see FaultPolicy) is read from the same registry
// under parallelfor.<name>.faultpolicy and friends.
type ParallelFor struct {
	name       string
	maxWorkers int
	params     *Params

	workers  *Param
	chunk    *Param
	schedule *Param
	seq      *Param
	minPl    *Param

	m pfMetrics
}

// pfMetrics holds the loop's observability instruments; nil (and
// enabled == false) until Instrument is called.
type pfMetrics struct {
	enabled    bool
	wall       *obs.Counter
	items      *obs.Counter
	chunkNs    *obs.Histogram
	workerBusy []*obs.Counter
	faults     faultCounters
}

// NewParallelFor constructs a data-parallel loop instance, registering
// tuning parameters in ps (nil allowed). maxWorkers caps the pool;
// 0 means runtime.NumCPU().
func NewParallelFor(name string, ps *Params, maxWorkers int) *ParallelFor {
	if maxWorkers <= 0 {
		maxWorkers = runtime.NumCPU()
	}
	prefix := "parallelfor." + name
	pf := &ParallelFor{name: name, maxWorkers: maxWorkers, params: ps}
	pf.workers = ps.Register(Param{
		Key:  prefix + ".workers",
		Kind: IntParam, Min: 1, Max: maxWorkers, Value: maxWorkers,
	})
	pf.chunk = ps.Register(Param{
		Key:  prefix + ".chunksize",
		Kind: IntParam, Min: 1, Max: 1 << 16, Step: 512, Value: 64,
	})
	pf.schedule = ps.Register(Param{
		Key:  prefix + ".schedule",
		Kind: EnumParam, Min: 0, Max: len(ScheduleNames) - 1,
		Choices: ScheduleNames, Value: int(StaticSchedule),
	})
	pf.seq = ps.Register(Param{
		Key:  prefix + "." + keySequential,
		Kind: BoolParam, Min: 0, Max: 1, Value: 0,
	})
	pf.minPl = ps.Register(Param{
		Key:  prefix + "." + keyMinParallel,
		Kind: IntParam, Min: 0, Max: 1 << 20, Step: 1 << 14, Value: 2,
	})
	return pf
}

// Instrument attaches the loop to a metrics collector and returns the
// loop. It records the chunk-latency distribution (chunk_ns — the
// signal behind chunk-size tuning: too-small chunks show scheduling
// overhead, too-large ones imbalance), the processed iteration count
// (items), per-worker busy time (worker.<w>.busy_ns), wall time and
// the fault-layer counters (faults.errors, faults.retries,
// faults.timeouts, faults.drained) under "parallelfor.<name>.". A nil
// collector leaves the loop uninstrumented.
func (pf *ParallelFor) Instrument(c *obs.Collector) *ParallelFor {
	if c == nil {
		return pf
	}
	prefix := "parallelfor." + pf.name
	pf.m.enabled = true
	pf.m.wall = c.Counter(prefix + ".wall_ns")
	pf.m.items = c.Counter(prefix + ".items")
	pf.m.chunkNs = c.Histogram(prefix + ".chunk_ns")
	pf.m.faults = instrumentFaults(c, prefix)
	pf.m.workerBusy = make([]*obs.Counter, pf.maxWorkers)
	for w := 0; w < pf.maxWorkers; w++ {
		pf.m.workerBusy[w] = c.Counter(fmt.Sprintf("%s.worker.%d.busy_ns", prefix, w))
	}
	return pf
}

// faultBlock bounds how many iterations run inside one panic-capture
// region on the fail-fast fast path, so cancellation is observed with
// bounded latency without paying a defer/recover per iteration.
const faultBlock = 1024

// runChunkCtx executes body over [lo, hi) for worker w under the fault
// policy, recording the chunk latency when instrumented. It reports false
// once the run is canceled, telling the scheduler to stop handing out
// chunks.
func (pf *ParallelFor) runChunkCtx(fr *faultRun, w, lo, hi int, body func(int)) bool {
	var start time.Time
	if pf.m.enabled {
		start = time.Now()
	}
	cont := pf.chunkBodyCtx(fr, lo, hi, body)
	if pf.m.enabled {
		d := int64(time.Since(start))
		pf.m.chunkNs.Record(d)
		pf.m.items.Add(int64(hi - lo))
		if w >= 0 && w < len(pf.m.workerBusy) {
			pf.m.workerBusy[w].Add(d)
		}
	}
	return cont
}

func (pf *ParallelFor) chunkBodyCtx(fr *faultRun, lo, hi int, body func(int)) bool {
	if fr.pol.Kind == FailFast && fr.pol.ItemTimeout <= 0 {
		// Fail-fast fast path: one panic-capture region per block of
		// iterations instead of per iteration.
		for blockLo := lo; blockLo < hi; blockLo += faultBlock {
			if fr.canceled() {
				fr.fc.drained.Add(int64(hi - blockLo))
				return false
			}
			blockHi := blockLo + faultBlock
			if blockHi > hi {
				blockHi = hi
			}
			cur := blockLo
			rec, stack, _, ok := safeCall(0, func() {
				for i := blockLo; i < blockHi; i++ {
					cur = i
					body(i)
				}
			})
			if !ok {
				fr.fail(&ItemError{
					Pattern:   fr.pattern,
					Site:      "body",
					Item:      cur,
					Attempts:  1,
					Recovered: rec,
					Stack:     stack,
				})
				fr.progress.Add(1)
				return false
			}
			fr.progress.Add(int64(blockHi - blockLo))
		}
		return !fr.canceled()
	}
	for i := lo; i < hi; i++ {
		if fr.canceled() {
			fr.fc.drained.Add(int64(hi - i))
			return false
		}
		i := i
		fr.item("body", i, func() { body(i) })
	}
	return !fr.canceled()
}

// Name returns the pattern instance name.
func (pf *ParallelFor) Name() string { return pf.name }

// For executes body(i) for every i in [0, n) according to the current
// tuning parameters. Iterations must be independent; the caller (the
// code generator) guarantees that via the dependence analysis.
//
// For preserves its historical crash contract: under the default
// fail-fast policy a panicking iteration aborts the loop and the
// captured *ItemError is re-panicked on the caller's goroutine. Use
// ForCtx for cancellation and error reporting.
func (pf *ParallelFor) For(n int, body func(i int)) {
	_, err := pf.ForCtx(context.Background(), n, body)
	if err != nil {
		panic(err)
	}
}

// ForCtx executes body(i) for every i in [0, n) under ctx and the
// loop's fault policy. It returns one *ItemError per faulted iteration
// and the abort cause — nil when the loop completed (possibly with
// skipped iterations under SkipItem/RetryItem), the first *ItemError
// under fail-fast, ctx's cancel cause on external cancellation, or a
// *StallError when the stall watchdog fired.
func (pf *ParallelFor) ForCtx(ctx context.Context, n int, body func(i int)) ([]*ItemError, error) {
	if n <= 0 {
		return nil, nil
	}
	pol := policyFromParams(pf.params, "parallelfor."+pf.name)
	fr, finish := newFaultRun(ctx, pf.name, pol, pf.m.faults)
	defer finish()
	var wallStart time.Time
	if pf.m.enabled {
		wallStart = time.Now()
		defer func() { pf.m.wall.Add(int64(time.Since(wallStart))) }()
	}
	if pf.seq.Bool() || n < pf.minPl.Value {
		pf.runChunkCtx(fr, 0, 0, n, body)
		fr.finalizeCause()
		return fr.report.Errors(), fr.report.Err()
	}
	workers := pf.workers.Value
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	run := func(w, lo, hi int) bool { return pf.runChunkCtx(fr, w, lo, hi, body) }
	if err := pf.join(fr, n, func() {
		switch Schedule(pf.schedule.Value) {
		case DynamicSchedule:
			pf.forDynamic(n, workers, pf.chunk.Value, run)
		case GuidedSchedule:
			pf.forGuided(n, workers, pf.chunk.Value, run)
		default:
			pf.forStatic(n, workers, run)
		}
	}); err != nil {
		return fr.report.Errors(), err
	}
	fr.finalizeCause()
	return fr.report.Errors(), fr.report.Err()
}

// join runs the scheduler on a helper goroutine and waits for it,
// arming the stall watchdog. On a stall abort the join is abandoned
// (the stuck body's goroutines leak until they return); on any other
// cancellation the workers exit at the next chunk boundary and the
// join completes cooperatively.
func (pf *ParallelFor) join(fr *faultRun, n int, scheduler func()) error {
	stopWatchdog := fr.startWatchdog(func() string {
		return fmt.Sprintf("loop blocked: %d/%d iterations completed", fr.progress.Load(), n)
	})
	defer stopWatchdog()
	done := make(chan struct{})
	go func() {
		scheduler()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-fr.ctx.Done():
		if _, stalled := context.Cause(fr.ctx).(*StallError); stalled {
			return fr.report.Err()
		}
		<-done
		return nil
	}
}

func (pf *ParallelFor) forStatic(n, workers int, run func(w, lo, hi int) bool) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(w, lo, hi int) {
			defer wg.Done()
			run(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

func (pf *ParallelFor) forDynamic(n, workers, chunk int, run func(w, lo, hi int) bool) {
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if !run(w, lo, hi) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func (pf *ParallelFor) forGuided(n, workers, minChunk int, run func(w, lo, hi int) bool) {
	if minChunk < 1 {
		minChunk = 1
	}
	var mu sync.Mutex
	next := 0
	take := func() (int, int) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, 0
		}
		remaining := n - next
		chunk := remaining / (2 * workers)
		if chunk < minChunk {
			chunk = minChunk
		}
		if chunk > remaining {
			chunk = remaining
		}
		lo := next
		next += chunk
		return lo, lo + chunk
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo, hi := take()
				if lo == hi {
					return
				}
				if !run(w, lo, hi) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Reduce executes a data-parallel reduction: body(i) produces a
// partial value for iteration i, combine folds two partials. combine
// must be associative and commutative (the detector only emits Reduce
// for recognized reduction idioms such as sum += f(i)). identity is
// the neutral element.
//
// Reduce preserves its historical crash contract like For; use
// ReduceCtx for cancellation and error reporting.
func Reduce[R any](pf *ParallelFor, n int, identity R, body func(i int) R, combine func(a, b R) R) R {
	acc, _, err := ReduceCtx(context.Background(), pf, n, identity, body, combine)
	if err != nil {
		panic(err)
	}
	return acc
}

// ReduceCtx executes the reduction under ctx and the loop's fault
// policy. A faulted iteration contributes nothing (the identity) to
// the result; it is reported via its *ItemError instead. The error
// follows the same convention as ForCtx.
func ReduceCtx[R any](ctx context.Context, pf *ParallelFor, n int, identity R, body func(i int) R, combine func(a, b R) R) (R, []*ItemError, error) {
	if n <= 0 {
		return identity, nil, nil
	}
	pol := policyFromParams(pf.params, "parallelfor."+pf.name)
	fr, finish := newFaultRun(ctx, pf.name, pol, pf.m.faults)
	defer finish()
	var wallStart time.Time
	if pf.m.enabled {
		wallStart = time.Now()
		defer func() { pf.m.wall.Add(int64(time.Since(wallStart))) }()
	}
	if pf.seq.Bool() || n < pf.minPl.Value {
		acc := reduceRange(pf, fr, 0, 0, n, identity, body, combine)
		fr.finalizeCause()
		return acc, fr.report.Errors(), fr.report.Err()
	}
	workers := pf.workers.Value
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	partials := make([]R, workers)
	if err := pf.join(fr, n, func() {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			lo := w * n / workers
			hi := (w + 1) * n / workers
			go func(w, lo, hi int) {
				defer wg.Done()
				partials[w] = reduceRange(pf, fr, w, lo, hi, identity, body, combine)
			}(w, lo, hi)
		}
		wg.Wait()
	}); err != nil {
		// Stall abort: the partials race with the stuck worker, so
		// return the identity rather than a torn partial fold.
		return identity, fr.report.Errors(), err
	}
	acc := identity
	for _, p := range partials {
		acc = combine(acc, p)
	}
	fr.finalizeCause()
	return acc, fr.report.Errors(), fr.report.Err()
}

// reduceRange folds body over [lo, hi) for worker w under the fault
// policy, recording the chunk instruments.
func reduceRange[R any](pf *ParallelFor, fr *faultRun, w, lo, hi int, identity R, body func(int) R, combine func(a, b R) R) R {
	var start time.Time
	if pf.m.enabled {
		start = time.Now()
	}
	acc := identity
	for i := lo; i < hi; i++ {
		if fr.canceled() {
			fr.fc.drained.Add(int64(hi - i))
			break
		}
		i := i
		var part R
		if fr.item("body", i, func() { part = body(i) }) {
			acc = combine(acc, part)
		}
	}
	if pf.m.enabled {
		d := int64(time.Since(start))
		pf.m.chunkNs.Record(d)
		pf.m.items.Add(int64(hi - lo))
		if w >= 0 && w < len(pf.m.workerBusy) {
			pf.m.workerBusy[w].Add(d)
		}
	}
	return acc
}
