// Package tuning implements Patty's performance-validation phase: the
// tuning configuration file (paper Fig. 3c) and the auto-tuning cycle
// (Fig. 4c) that repeatedly initializes the parallel patterns with
// parameter values, measures, and proposes new values — adapting the
// application to the target multicore platform without recompilation.
//
// The paper's tuner "explores the search space linearly in each
// dimension"; that algorithm ships as LinearSearch. The smarter
// algorithms the paper names as future work ([29] Karcher/Pankratius,
// [30] Nelder-Mead, [31] tabu search) are implemented as NelderMead,
// TabuSearch and RandomSearch and compared in the E11 ablation bench.
package tuning

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"patty/internal/parrt"
)

// ErrAllConfigsFaulted reports a search in which every evaluated
// configuration faulted (Measure gives faulted runs +Inf cost): there
// is no meaningful best, and Result.Best is only the start assignment
// echoed back. Callers must treat the run as failed rather than apply
// that configuration.
var ErrAllConfigsFaulted = errors.New("tuning: every evaluated configuration faulted; no usable best")

// Entry is one tuning parameter as serialized to the configuration
// file: key, code location, domain and current value.
type Entry struct {
	Key      string   `json:"key"`
	Location string   `json:"location,omitempty"`
	Kind     string   `json:"kind"`
	Min      int      `json:"min"`
	Max      int      `json:"max"`
	Step     int      `json:"step,omitempty"`
	Choices  []string `json:"choices,omitempty"`
	Value    int      `json:"value"`
}

// Config is the on-disk tuning configuration.
type Config struct {
	// Program documents which binary the configuration belongs to.
	Program string  `json:"program,omitempty"`
	Entries []Entry `json:"parameters"`
}

// FromParams snapshots a registry into a Config.
func FromParams(program string, ps *parrt.Params) *Config {
	cfg := &Config{Program: program}
	for _, p := range ps.All() {
		cfg.Entries = append(cfg.Entries, Entry{
			Key: p.Key, Location: p.Location, Kind: p.Kind.String(),
			Min: p.Min, Max: p.Max, Step: p.Step, Choices: p.Choices, Value: p.Value,
		})
	}
	return cfg
}

// Apply writes the configuration's values into a registry. Unknown
// keys are created so that values survive even when loaded before the
// patterns are constructed (parrt.Register keeps tuned values).
func (c *Config) Apply(ps *parrt.Params) {
	for _, e := range c.Entries {
		ps.Set(e.Key, e.Value)
	}
}

// Save writes the configuration as JSON.
func (c *Config) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("tuning: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a configuration from disk.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tuning: %w", err)
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("tuning: %s: %w", path, err)
	}
	return &c, nil
}

// Objective measures one configuration: it applies the assignment,
// runs the workload, and returns the cost (lower is better; typically
// nanoseconds or virtual ticks). Tuners only ever see this function.
type Objective func(assignment map[string]int) float64

// Dim describes one tunable dimension of the search space.
type Dim struct {
	Key  string
	Min  int
	Max  int
	Step int
}

func (d Dim) step() int {
	if d.Step <= 0 {
		return 1
	}
	return d.Step
}

// DimsFromParams derives the search space from a registry.
func DimsFromParams(ps *parrt.Params) []Dim {
	var dims []Dim
	for _, p := range ps.All() {
		if p.Min == p.Max {
			continue // nothing to tune
		}
		dims = append(dims, Dim{Key: p.Key, Min: p.Min, Max: p.Max, Step: p.Step})
	}
	return dims
}

// Result is a tuning run's outcome.
type Result struct {
	Best        map[string]int
	BestCost    float64
	Evaluations int
	// Trace records (evaluation index, cost) pairs of improving steps
	// for the Fig. 4c runtime-tuning visualization.
	Trace []TracePoint
	// Interrupted is set when the search stopped because its context
	// was canceled (SIGINT, job cancellation, deadline): Best is the
	// best-so-far configuration, not the converged one.
	Interrupted bool
	// Err is ErrAllConfigsFaulted when at least one configuration was
	// evaluated and every single one faulted — Best is meaningless.
	Err error
}

// TracePoint is one improving step of a tuning run.
type TracePoint struct {
	Eval int
	Cost float64
}

// Tuner is a search algorithm over the parameter space.
type Tuner interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Tune searches the space defined by dims, starting from start,
	// calling obj at most budget times.
	Tune(dims []Dim, start map[string]int, obj Objective, budget int) Result
	// TuneCtx is Tune with cooperative cancellation: the search stops
	// at the next evaluation boundary once ctx is done and returns the
	// best-so-far Result with Interrupted set.
	TuneCtx(ctx context.Context, dims []Dim, start map[string]int, obj Objective, budget int) Result
}

// --- helpers shared by the tuners ---

type evaluator struct {
	ctx    context.Context
	obj    Objective
	budget int
	res    Result
	cache  map[string]float64
	// requests counts eval calls including cache hits; it backstops
	// termination for searches that revisit a fully cached space.
	requests int
}

func newEvaluator(ctx context.Context, obj Objective, budget int, start map[string]int) *evaluator {
	e := &evaluator{ctx: ctx, obj: obj, budget: budget, cache: make(map[string]float64)}
	e.res.Best = copyAssign(start)
	e.res.BestCost = math.Inf(1)
	return e
}

func (e *evaluator) exhausted() bool {
	return e.ctx.Err() != nil || e.res.Evaluations >= e.budget || e.requests >= 20*e.budget
}

// finish finalizes the shared Result: flags interruption and the
// all-configurations-faulted condition.
func (e *evaluator) finish() Result {
	e.res.Interrupted = e.ctx.Err() != nil
	if e.res.Evaluations > 0 && math.IsInf(e.res.BestCost, 1) {
		e.res.Err = ErrAllConfigsFaulted
	}
	return e.res
}

func (e *evaluator) eval(a map[string]int) float64 {
	e.requests++
	key := assignKey(a)
	if c, ok := e.cache[key]; ok {
		return c
	}
	if e.exhausted() {
		return math.Inf(1)
	}
	c := e.obj(a)
	e.res.Evaluations++
	e.cache[key] = c
	if c < e.res.BestCost {
		e.res.BestCost = c
		e.res.Best = copyAssign(a)
		e.res.Trace = append(e.res.Trace, TracePoint{Eval: e.res.Evaluations, Cost: c})
	}
	return c
}

func copyAssign(a map[string]int) map[string]int {
	out := make(map[string]int, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// AssignKey renders an assignment in canonical form — sorted
// "key=value;" pairs — the identity under which configurations are
// cached, checkpointed and quarantined.
func AssignKey(a map[string]int) string { return assignKey(a) }

func assignKey(a map[string]int) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%d;", k, a[k])
	}
	return s
}

func clampDim(d Dim, v int) int {
	if v < d.Min {
		return d.Min
	}
	if v > d.Max {
		return d.Max
	}
	return v
}

// LinearSearch is the paper's baseline: optimize one dimension at a
// time by sweeping its whole range while holding the others fixed,
// then move to the next dimension, cycling until the budget is spent
// or a full cycle brings no improvement.
type LinearSearch struct{}

// Name implements Tuner.
func (LinearSearch) Name() string { return "linear" }

// Tune implements Tuner.
func (ls LinearSearch) Tune(dims []Dim, start map[string]int, obj Objective, budget int) Result {
	return ls.TuneCtx(context.Background(), dims, start, obj, budget)
}

// TuneCtx implements Tuner.
func (LinearSearch) TuneCtx(ctx context.Context, dims []Dim, start map[string]int, obj Objective, budget int) Result {
	e := newEvaluator(ctx, obj, budget, start)
	cur := copyAssign(start)
	e.eval(cur)
	for improved := true; improved && !e.exhausted(); {
		improved = false
		for _, d := range dims {
			bestV, bestC := cur[d.Key], math.Inf(1)
			for v := d.Min; v <= d.Max; v += d.step() {
				cand := copyAssign(cur)
				cand[d.Key] = v
				c := e.eval(cand)
				if c < bestC {
					bestC, bestV = c, v
				}
				if e.exhausted() {
					break
				}
			}
			if bestV != cur[d.Key] {
				cur[d.Key] = bestV
				improved = true
			}
			if e.exhausted() {
				break
			}
		}
	}
	return e.finish()
}

// RandomSearch samples uniformly — the sanity baseline every smarter
// algorithm has to beat.
type RandomSearch struct {
	// Seed makes runs reproducible; 0 means seed 1.
	Seed int64
}

// Name implements Tuner.
func (r RandomSearch) Name() string { return "random" }

// Tune implements Tuner.
func (r RandomSearch) Tune(dims []Dim, start map[string]int, obj Objective, budget int) Result {
	return r.TuneCtx(context.Background(), dims, start, obj, budget)
}

// TuneCtx implements Tuner.
func (r RandomSearch) TuneCtx(ctx context.Context, dims []Dim, start map[string]int, obj Objective, budget int) Result {
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	e := newEvaluator(ctx, obj, budget, start)
	e.eval(start)
	for !e.exhausted() {
		cand := copyAssign(start)
		for _, d := range dims {
			steps := (d.Max-d.Min)/d.step() + 1
			cand[d.Key] = d.Min + rng.Intn(steps)*d.step()
		}
		e.eval(cand)
	}
	return e.finish()
}

// TabuSearch is a local search that never revisits recently seen
// configurations (Glover's tabu list, paper ref [31]).
type TabuSearch struct {
	// Tenure is the tabu list length (default 16).
	Tenure int
}

// Name implements Tuner.
func (t TabuSearch) Name() string { return "tabu" }

// Tune implements Tuner.
func (t TabuSearch) Tune(dims []Dim, start map[string]int, obj Objective, budget int) Result {
	return t.TuneCtx(context.Background(), dims, start, obj, budget)
}

// TuneCtx implements Tuner.
func (t TabuSearch) TuneCtx(ctx context.Context, dims []Dim, start map[string]int, obj Objective, budget int) Result {
	tenure := t.Tenure
	if tenure <= 0 {
		tenure = 16
	}
	e := newEvaluator(ctx, obj, budget, start)
	cur := copyAssign(start)
	e.eval(cur)
	tabu := map[string]bool{assignKey(cur): true}
	var order []string
	for !e.exhausted() {
		type move struct {
			a map[string]int
			c float64
		}
		var bestMove *move
		for _, d := range dims {
			for _, delta := range []int{-d.step(), d.step()} {
				cand := copyAssign(cur)
				cand[d.Key] = clampDim(d, cand[d.Key]+delta)
				key := assignKey(cand)
				if tabu[key] {
					continue
				}
				c := e.eval(cand)
				if bestMove == nil || c < bestMove.c {
					bestMove = &move{cand, c}
				}
				if e.exhausted() {
					break
				}
			}
			if e.exhausted() {
				break
			}
		}
		if bestMove == nil {
			break // everything neighbouring is tabu
		}
		cur = bestMove.a
		key := assignKey(cur)
		tabu[key] = true
		order = append(order, key)
		if len(order) > tenure {
			delete(tabu, order[0])
			order = order[1:]
		}
	}
	return e.finish()
}

// NelderMead is the derivative-free downhill-simplex method (paper
// ref [30]) on the integer lattice: vertices round to the nearest
// valid lattice point before evaluation.
type NelderMead struct{}

// Name implements Tuner.
func (NelderMead) Name() string { return "nelder-mead" }

// Tune implements Tuner.
func (nm NelderMead) Tune(dims []Dim, start map[string]int, obj Objective, budget int) Result {
	return nm.TuneCtx(context.Background(), dims, start, obj, budget)
}

// TuneCtx implements Tuner.
func (NelderMead) TuneCtx(ctx context.Context, dims []Dim, start map[string]int, obj Objective, budget int) Result {
	e := newEvaluator(ctx, obj, budget, start)
	n := len(dims)
	if n == 0 {
		e.eval(start)
		return e.finish()
	}
	rng := rand.New(rand.NewSource(1))

	toAssign := func(x []float64) map[string]int {
		a := copyAssign(start)
		for i, d := range dims {
			v := int(math.Round(x[i]))
			v = d.Min + ((v-d.Min)/d.step())*d.step()
			a[d.Key] = clampDim(d, v)
		}
		return a
	}
	evalX := func(x []float64) float64 { return e.eval(toAssign(x)) }

	// Initial simplex: start plus one vertex stepped in each dimension.
	simplex := make([][]float64, n+1)
	costs := make([]float64, n+1)
	base := make([]float64, n)
	for i, d := range dims {
		base[i] = float64(start[d.Key])
	}
	simplex[0] = append([]float64(nil), base...)
	for i := 0; i < n; i++ {
		v := append([]float64(nil), base...)
		span := float64(dims[i].Max-dims[i].Min) / 2
		if span < float64(dims[i].step()) {
			span = float64(dims[i].step())
		}
		v[i] = math.Min(v[i]+span, float64(dims[i].Max))
		if v[i] == base[i] {
			v[i] = math.Max(base[i]-span, float64(dims[i].Min))
		}
		simplex[i+1] = v
	}
	for i := range simplex {
		costs[i] = evalX(simplex[i])
	}

	for !e.exhausted() {
		idx := make([]int, n+1)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return costs[idx[a]] < costs[idx[b]] })
		bestI, worstI := idx[0], idx[n]

		centroid := make([]float64, n)
		for _, i := range idx[:n] {
			for j := 0; j < n; j++ {
				centroid[j] += simplex[i][j] / float64(n)
			}
		}
		reflect := make([]float64, n)
		for j := 0; j < n; j++ {
			reflect[j] = centroid[j] + (centroid[j] - simplex[worstI][j])
		}
		rc := evalX(reflect)
		switch {
		case rc < costs[bestI]:
			expand := make([]float64, n)
			for j := 0; j < n; j++ {
				expand[j] = centroid[j] + 2*(centroid[j]-simplex[worstI][j])
			}
			ec := evalX(expand)
			if ec < rc {
				simplex[worstI], costs[worstI] = expand, ec
			} else {
				simplex[worstI], costs[worstI] = reflect, rc
			}
		case rc < costs[idx[n-1]]:
			simplex[worstI], costs[worstI] = reflect, rc
		default:
			contract := make([]float64, n)
			for j := 0; j < n; j++ {
				contract[j] = centroid[j] + 0.5*(simplex[worstI][j]-centroid[j])
			}
			cc := evalX(contract)
			if cc < costs[worstI] {
				simplex[worstI], costs[worstI] = contract, cc
			} else {
				// Shrink toward the best vertex.
				for _, i := range idx[1:] {
					for j := 0; j < n; j++ {
						simplex[i][j] = simplex[bestI][j] + 0.5*(simplex[i][j]-simplex[bestI][j])
					}
					costs[i] = evalX(simplex[i])
					if e.exhausted() {
						break
					}
				}
			}
		}
		// Degenerate simplex (all vertices round to the same lattice
		// point): restart from a random point with the remaining
		// budget — NM plateaus easily on small discrete spaces.
		same := true
		k0 := assignKey(toAssign(simplex[0]))
		for _, v := range simplex[1:] {
			if assignKey(toAssign(v)) != k0 {
				same = false
				break
			}
		}
		if same {
			for i := range simplex {
				v := make([]float64, n)
				for j, d := range dims {
					steps := (d.Max-d.Min)/d.step() + 1
					v[j] = float64(d.Min + rng.Intn(steps)*d.step())
				}
				if i == 0 {
					// Keep the incumbent best as one vertex.
					for j, d := range dims {
						v[j] = float64(e.res.Best[d.Key])
					}
				}
				simplex[i] = v
				costs[i] = evalX(v)
				if e.exhausted() {
					break
				}
			}
		}
	}
	return e.finish()
}
