package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"patty/internal/evalcache"
	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/seed"
	"patty/internal/tuning"
)

// Options configures a distributed search.
type Options struct {
	// Workers are the base URLs of `patty worker` processes
	// ("http://host:port"). At least one is required.
	Workers []string
	// Spec is the opaque objective specification shipped with every
	// shard; the worker's NewObjective hook interprets it.
	Spec json.RawMessage
	// LocalObjective evaluates a configuration in-process. Required: it
	// is the replay's fallback for table misses, keeping the distributed
	// result identical even for configurations no shard covered.
	LocalObjective tuning.Objective
	// Checkpoint, when non-empty, journals merged evaluations to this
	// path in the `patty tune -checkpoint` format: a crashed coordinator
	// resumes from it, and so does a plain local search.
	Checkpoint string
	// Collector receives the fleet.* metrics (nil: discarded).
	Collector *obs.Collector
	// ShardSize caps configurations per shard. Default: the space split
	// four ways per worker, so stealing has slack to work with.
	ShardSize int
	// LeaseTTL bounds one shard dispatch: when it elapses the in-flight
	// HTTP request is canceled and the shard is re-dispatched
	// (default 30s).
	LeaseTTL time.Duration
	// StealAfter is the in-flight age past which an idle worker may
	// speculatively duplicate-dispatch a shard (default LeaseTTL/4).
	StealAfter time.Duration
	// MaxSpace refuses to enumerate spaces larger than this many
	// configurations (default 65536).
	MaxSpace int
	// WorkerFailLimit benches a worker permanently after this many
	// consecutive dispatch failures (default 3).
	WorkerFailLimit int
	// Client is the HTTP client for shard dispatch (default
	// http.DefaultClient). A netchaos.Injector Transport plugs in here.
	Client *http.Client

	// Program and Seed are the objective's content address
	// (evalcache.ProgramHash / SpecHash and the measurement seed).
	// Program is required: every shard carries the pair, so worker
	// caches never mix objectives, and it is part of the checkpoint's
	// search identity (tuning.ObjectiveID).
	Program string
	Seed    int64

	// Cache, when non-nil, is the persistent content-addressed
	// evaluation store, keyed by (Program, config, Seed): enumerated
	// configurations already cached are merged into the table before
	// sharding (they never hit the wire), every fresh merged
	// evaluation is recorded in it, and byzantine repairs correct it.
	// CacheTenant attributes hits.
	Cache       *evalcache.Store
	CacheTenant string

	// CrossCheck is the byzantine audit width: per completed shard, this
	// many sampled configurations are re-evaluated locally and compared
	// against the worker's report (default 2; -1 disables auditing).
	CrossCheck int
	// CrossCheckSeed drives the audit's sample selection
	// (default seed.Default); the sample is a pure function of
	// (seed, search signature, shard id).
	CrossCheckSeed int64
	// CrossCheckTol is the relative tolerance separating float noise
	// from a lie (default 1e-9; the objective is pure, so honest
	// divergence is at most rounding).
	CrossCheckTol float64
	// RetryJitterSeed seeds the per-worker retry/backoff jitter
	// (default seed.Default). Jitter spreads synchronized retries; the
	// seed keeps tests deterministic.
	RetryJitterSeed int64
}

func (o Options) withDefaults(space int) Options {
	if o.ShardSize <= 0 {
		per := space / (4 * max(len(o.Workers), 1))
		o.ShardSize = max(per, 1)
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.StealAfter <= 0 {
		o.StealAfter = o.LeaseTTL / 4
	}
	if o.MaxSpace <= 0 {
		o.MaxSpace = 1 << 16
	}
	if o.WorkerFailLimit <= 0 {
		o.WorkerFailLimit = 3
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.CrossCheck == 0 {
		o.CrossCheck = 2
	}
	if o.CrossCheckSeed == 0 {
		o.CrossCheckSeed = seed.Default
	}
	if o.CrossCheckTol <= 0 {
		o.CrossCheckTol = 1e-9
	}
	if o.RetryJitterSeed == 0 {
		o.RetryJitterSeed = seed.Default
	}
	return o
}

// Stats summarizes what the fleet did to produce a Result — the
// distributed layer's side channel, since the Result itself is
// indistinguishable from a local run's by design.
type Stats struct {
	Workers      int      // workers the search started with
	WorkersLost  int      // workers benched after repeated failures
	Shards       int      // shards the space was partitioned into
	Merged       int      // distinct evaluations merged into the table
	Duplicates   int      // worker evaluations discarded as duplicates
	Redispatched int      // lease expiries / failures re-queued
	Stolen       int      // speculative duplicate dispatches
	LocalEvals   int      // replay table misses evaluated locally
	Resumed      int      // evaluations re-adopted from the checkpoint
	CacheHits    int      // configs answered from the shared store before sharding
	Quarantined  []string // faulted configs the replay read back

	// Hostile-network ledger.
	NetFaults map[string]int // classified dispatch faults by FaultClass

	// Byzantine-defense ledger.
	CrossChecked         int            // audited (worker cost vs local truth) comparisons
	Divergent            int            // audited comparisons that disagreed
	Reverified           int            // prior contributions re-measured after a quarantine
	Corrected            int            // re-verified records whose cost was repaired
	ByzantineQuarantined []string       // workers quarantined for divergent costs
	Health               []WorkerHealth // per-worker scorecards, sorted by worker
}

// scheduler is the coordinator's shared shard state. All fields are
// guarded by mu; cond wakes workers blocked in next.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	shards  []Shard
	pending []int            // shard ids awaiting (re-)dispatch
	lease   map[int]*leaseIn // shard id -> in-flight state
	done    map[int]bool
	nDone   int

	// ck is the merge table: the checkpoint journal, in memory when
	// checkpointing is off. step records into it and the shared
	// evaluation store, and the replay evaluates through it.
	ck     *tuning.Checkpointer
	step   *tuning.Step
	source map[string]string            // eval key -> worker that produced the merged record
	truth  map[string]tuning.EvalRecord // locally re-measured records (audit cache)
	health map[string]*workerHealth     // per-worker scorecards
	byz    *jobs.Breaker                // byzantine quarantine (keyed by worker URL)

	stats Stats
	inst  fleetInstruments
	coll  *obs.Collector // for dynamic fleet.net.* / fleet.peer.* keys

	now func() time.Time
}

type leaseIn struct {
	holders int
	since   time.Time
}

type fleetInstruments struct {
	shardsDone   *obs.Counter
	redispatched *obs.Counter
	stolen       *obs.Counter
	merged       *obs.Counter
	duplicate    *obs.Counter
	local        *obs.Counter
	resumed      *obs.Counter
	lost         *obs.Counter
	rtt          *obs.Histogram

	crosschecked *obs.Counter
	divergent    *obs.Counter
	quarantined  *obs.Counter
	reverified   *obs.Counter
	corrected    *obs.Counter
}

func newInstruments(c *obs.Collector) fleetInstruments {
	return fleetInstruments{
		shardsDone:   c.Counter("fleet.shards.done"),
		redispatched: c.Counter("fleet.shards.redispatched"),
		stolen:       c.Counter("fleet.shards.stolen"),
		merged:       c.Counter("fleet.evals.merged"),
		duplicate:    c.Counter("fleet.evals.duplicate"),
		local:        c.Counter("fleet.evals.local"),
		resumed:      c.Counter("fleet.evals.resumed"),
		lost:         c.Counter("fleet.workers.lost"),
		rtt:          c.Histogram("fleet.shard.rtt_ns"),

		crosschecked: c.Counter("fleet.byzantine.crosschecked"),
		divergent:    c.Counter("fleet.byzantine.divergent"),
		quarantined:  c.Counter("fleet.byzantine.quarantined"),
		reverified:   c.Counter("fleet.byzantine.reverified"),
		corrected:    c.Counter("fleet.byzantine.corrected"),
	}
}

// next blocks until a shard is available for this worker and leases it.
// Pending shards are served first; with none pending it steals the
// oldest in-flight shard that has been out longer than stealAfter and
// has fewer than two holders. Returns ok=false when every shard is done
// or ctx is canceled.
func (s *scheduler) next(ctx context.Context, stealAfter time.Duration) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ctx.Err() != nil || s.nDone == len(s.shards) {
			return 0, false
		}
		if len(s.pending) > 0 {
			id := s.pending[0]
			s.pending = s.pending[1:]
			l := s.lease[id]
			if l == nil {
				l = &leaseIn{since: s.now()}
				s.lease[id] = l
			}
			l.holders++
			return id, true
		}
		// Steal: oldest in-flight shard past the speculation age.
		best, bestAge := -1, stealAfter
		for id, l := range s.lease {
			if s.done[id] || l.holders == 0 || l.holders >= 2 {
				continue
			}
			if age := s.now().Sub(l.since); age >= bestAge {
				best, bestAge = id, age
			}
		}
		if best >= 0 {
			s.lease[best].holders++
			s.stats.Stolen++
			s.inst.stolen.Inc()
			return best, true
		}
		// Nothing to do yet. If an in-flight shard will become
		// steal-eligible, wake up in time to take it.
		var wake *time.Timer
		wakeIn := time.Duration(-1)
		for id, l := range s.lease {
			if s.done[id] || l.holders == 0 || l.holders >= 2 {
				continue
			}
			d := max(stealAfter-s.now().Sub(l.since), time.Millisecond)
			if wakeIn < 0 || d < wakeIn {
				wakeIn = d
			}
		}
		if wakeIn >= 0 {
			wake = time.AfterFunc(wakeIn, s.cond.Broadcast)
		}
		s.cond.Wait()
		if wake != nil {
			wake.Stop()
		}
	}
}

// release returns a failed lease. When the last holder gives up and the
// shard is not done it is re-queued at the front; redispatch counts the
// re-queue only for genuine failures (counted=true), not 503 busy
// answers.
func (s *scheduler) release(id int, counted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.lease[id]
	if l == nil {
		return
	}
	l.holders--
	if l.holders <= 0 && !s.done[id] {
		delete(s.lease, id)
		s.pending = append([]int{id}, s.pending...)
		if counted {
			s.stats.Redispatched++
			s.inst.redispatched.Inc()
		}
		s.cond.Broadcast()
	}
}

// complete merges one shard response. First completion wins; a late
// duplicate (steal loser, or a re-dispatched shard whose original
// eventually answered) contributes nothing and is counted as such.
// Evaluations are deduplicated by canonical assignment key across the
// whole search, and journaled through the checkpointer (one Flush per
// merged shard bounds the re-evaluation window after a coordinator
// crash).
func (s *scheduler) complete(id int, worker string, evals []tuning.EvalRecord, rtt time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inst.rtt.Record(int64(rtt))
	if l := s.lease[id]; l != nil {
		l.holders--
	}
	h := s.healthOf(worker)
	fresh := 0
	for _, rec := range evals {
		if !s.step.Record(rec) {
			s.stats.Duplicates++
			s.inst.duplicate.Inc()
			continue
		}
		// Provenance: re-verified if the worker turns byzantine.
		s.source[tuning.AssignKey(rec.Assignment)] = worker
		s.stats.Merged++
		s.inst.merged.Inc()
		h.evals++
		h.inst.evals.Inc()
		fresh++
	}
	if !s.done[id] {
		s.done[id] = true
		s.nDone++
		delete(s.lease, id)
		s.inst.shardsDone.Inc()
		if fresh > 0 {
			s.ck.Flush() // best effort; the final Flush reports errors
		}
	}
	s.cond.Broadcast()
}

// benched records a permanently lost worker.
func (s *scheduler) benched() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.WorkersLost++
	s.inst.lost.Inc()
	s.cond.Broadcast()
}

// busyError is a worker's refusal (503 shed or 429 throttle): honor
// the advertised Retry-After, don't bench.
type busyError struct {
	after    time.Duration
	throttle bool // true: 429 quota refusal; false: 503 shed
}

func (e busyError) Error() string { return fmt.Sprintf("worker busy, retry after %s", e.after) }

// dispatch sends one shard to one worker and decodes the answer. The
// request context carries the lease TTL: a hung worker is abandoned
// when it expires and the shard is re-queued by the caller. Failures
// come back classified (WireError / busyError) so the caller's retry
// policy and the fleet.net.* ledger can tell fault classes apart, and
// the response is validated to actually answer the shard that was
// asked: evaluation count and per-index assignment keys must match the
// request, anything else is ClassMismatch.
func dispatch(ctx context.Context, client *http.Client, worker string, req ShardRequest, ttl time.Duration) (*ShardResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	lctx, cancel := context.WithTimeout(ctx, ttl)
	defer cancel()
	hreq, err := http.NewRequestWithContext(lctx, http.MethodPost, worker+"/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, &WireError{Worker: worker, Class: classifyTransport(err), Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
		after := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return nil, busyError{after: after, throttle: resp.StatusCode == http.StatusTooManyRequests}
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, &WireError{Worker: worker, Class: ClassOther,
			Err: fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))}
	}
	var sr ShardResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, MaxBodyBytes)).Decode(&sr); err != nil {
		return nil, &WireError{Worker: worker, Class: classifyDecode(err),
			Err: fmt.Errorf("bad shard response: %w", err)}
	}
	if len(sr.Evals) != len(req.Configs) {
		return nil, &WireError{Worker: worker, Class: ClassMismatch,
			Err: fmt.Errorf("shard %d: %d evals for %d configs", req.Shard, len(sr.Evals), len(req.Configs))}
	}
	for i, rec := range sr.Evals {
		if tuning.AssignKey(rec.Assignment) != tuning.AssignKey(req.Configs[i]) {
			return nil, &WireError{Worker: worker, Class: ClassMismatch,
				Err: fmt.Errorf("shard %d eval %d answers %q, asked %q", req.Shard, i,
					tuning.AssignKey(rec.Assignment), tuning.AssignKey(req.Configs[i]))}
		}
	}
	return &sr, nil
}

// Tune runs the distributed search: enumerate, partition, lease shards
// to workers, merge, then replay tn locally against the merged cost
// table. The returned Result is identical to an uninterrupted local
// tn.TuneCtx run with the same inputs (see the package comment for the
// argument); Stats reports what the fleet did along the way.
func Tune(ctx context.Context, tn tuning.Tuner, dims []tuning.Dim, start map[string]int, budget int, opts Options) (tuning.Result, *Stats, error) {
	if len(opts.Workers) == 0 {
		return tuning.Result{}, nil, errors.New("fleet: no workers")
	}
	if opts.LocalObjective == nil {
		return tuning.Result{}, nil, errors.New("fleet: LocalObjective is required")
	}
	if opts.Program == "" {
		return tuning.Result{}, nil, errors.New("fleet: Program (the objective's content address) is required")
	}
	space := SpaceSize(dims, start)
	opts = opts.withDefaults(space)
	if space > opts.MaxSpace {
		return tuning.Result{}, nil, fmt.Errorf("fleet: search space has %d configurations, above the %d cap; tune locally or raise MaxSpace", space, opts.MaxSpace)
	}

	meta := tuning.SearchMeta{Algo: tn.Name(), Budget: budget, Dims: dims, Start: start,
		Objective: tuning.ObjectiveID(opts.Program, opts.Seed)}
	// Resume: re-adopt the merged prefix from the journal; only the
	// remainder of the space is sharded out.
	ck, resumed, err := tuning.NewCheckpointer(opts.Checkpoint, meta)
	if err != nil {
		return tuning.Result{}, nil, err
	}
	sched := &scheduler{
		lease:  make(map[int]*leaseIn),
		done:   make(map[int]bool),
		ck:     ck,
		step:   &tuning.Step{Journal: ck, Cache: opts.Cache, Program: opts.Program, Seed: opts.Seed, Tenant: opts.CacheTenant},
		source: make(map[string]string),
		truth:  make(map[string]tuning.EvalRecord),
		health: make(map[string]*workerHealth),
		// One divergence is enough: a worker caught lying about a pure
		// function stays out for the rest of the search.
		byz:  jobs.NewBreaker(1, time.Hour),
		inst: newInstruments(opts.Collector),
		coll: opts.Collector,
		now:  time.Now,
	}
	sched.stats.NetFaults = make(map[string]int)
	sched.stats.Resumed = resumed
	sched.inst.resumed.Add(int64(resumed))
	sched.cond = sync.NewCond(&sched.mu)
	exclude := make(map[string]bool)
	for _, rec := range ck.Records() {
		exclude[tuning.AssignKey(rec.Assignment)] = true
	}

	// Cache pre-filter: enumerated configurations already in the shared
	// store merge straight into the table — they never hit the wire.
	configs := Enumerate(dims, start)
	if opts.Cache != nil {
		for _, a := range configs {
			key := tuning.AssignKey(a)
			if exclude[key] {
				continue
			}
			if _, ok := sched.step.Lookup(a); !ok {
				continue
			}
			exclude[key] = true
			sched.stats.CacheHits++
			sched.stats.Merged++
			sched.inst.merged.Inc()
		}
		if sched.stats.CacheHits > 0 {
			ck.Flush()
		}
	}

	sched.shards = Partition(configs, opts.ShardSize, exclude)
	for i := range sched.shards {
		sched.pending = append(sched.pending, i)
	}
	sched.stats.Workers = len(opts.Workers)
	sched.stats.Shards = len(sched.shards)
	opts.Collector.Gauge("fleet.workers").Set(int64(len(opts.Workers)))
	opts.Collector.Gauge("fleet.shards.total").Set(int64(len(sched.shards)))

	// Dispatch loop: one goroutine per worker; a canceled ctx or the
	// last merged shard drains them all.
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watch := make(chan struct{})
	go func() { // wake cond waiters on cancellation
		defer close(watch)
		<-fctx.Done()
		sched.cond.Broadcast()
	}()

	var wg sync.WaitGroup
	for widx, worker := range opts.Workers {
		wg.Add(1)
		go func(widx int, worker string) {
			defer wg.Done()
			// Per-worker jitter stream: deterministic under the seed,
			// different per worker so synchronized refusals de-correlate.
			rng := rand.New(rand.NewSource(seed.Mix(opts.RetryJitterSeed, int64(widx))))
			consecFail := 0
			backoff := 50 * time.Millisecond
			for {
				if !sched.byz.Allow(worker) {
					return // quarantined: out for the rest of the search
				}
				id, ok := sched.next(fctx, opts.StealAfter)
				if !ok {
					return
				}
				req := ShardRequest{
					Search:  meta.Signature(),
					Shard:   id,
					Spec:    opts.Spec,
					Program: opts.Program,
					Seed:    opts.Seed,
					Configs: sched.shards[id].Configs,
				}
				sched.noteDispatch(worker)
				t0 := time.Now()
				resp, err := dispatch(fctx, opts.Client, worker, req, opts.LeaseTTL)
				var busy busyError
				switch {
				case err == nil:
					consecFail = 0
					backoff = 50 * time.Millisecond
					if sched.crossCheck(worker, req, resp, opts) {
						// The audit caught a lie: never merge this
						// response; quarantine the worker, repair its
						// past contributions, and hand the shard to an
						// honest worker.
						sched.quarantine(worker, opts)
						sched.release(id, true)
						return
					}
					sched.complete(id, worker, resp.Evals, time.Since(t0))
				case errors.As(err, &busy):
					// Overloaded, not broken: hand the shard back and
					// honor the advertised backoff, jittered so a crowd
					// of refused dispatchers spreads out (capped).
					class := ClassBusy
					if busy.throttle {
						class = ClassThrottle
					}
					sched.noteFault(worker, class, false)
					sched.release(id, false)
					sleepCtx(fctx, min(jobs.Jitter(rng, busy.after), 2*time.Second))
				case fctx.Err() != nil:
					// The search is shutting down, not the worker
					// failing: hand the shard back uncounted.
					sched.release(id, false)
				default:
					sched.noteFault(worker, classOf(err), true)
					sched.release(id, true)
					consecFail++
					if consecFail >= opts.WorkerFailLimit {
						sched.noteBenched(worker)
						return
					}
					sleepCtx(fctx, jobs.Jitter(rng, backoff))
					backoff = min(backoff*2, time.Second)
				}
			}
		}(widx, worker)
	}
	wg.Wait()
	cancel()
	<-watch
	sched.stats.Health = sched.healthRows(opts.Workers)

	sched.mu.Lock()
	unfinished := len(sched.shards) - sched.nDone
	sched.mu.Unlock()
	if unfinished > 0 && ctx.Err() == nil {
		// Every worker was benched or quarantined with shards
		// outstanding. The merged prefix is journaled; a re-run (fleet
		// or local) resumes it.
		ck.Flush()
		st := sched.stats
		return tuning.Result{}, &st, fmt.Errorf("fleet: all %d workers lost (%d benched, %d quarantined) with %d of %d shards unfinished",
			len(opts.Workers), st.WorkersLost, len(st.ByzantineQuarantined), unfinished, len(sched.shards))
	}

	// Replay: run the actual search algorithm locally against the merged
	// table, through the same evaluation step a local run uses. A table
	// miss (exotic tuner step outside the enumerated superset) falls
	// back to one local evaluation, which objective purity keeps
	// identical to what a worker would have measured.
	local := func(a map[string]int) float64 {
		sched.stats.LocalEvals++
		sched.inst.local.Inc()
		return opts.LocalObjective(a)
	}
	res := tn.TuneCtx(ctx, dims, start, sched.step.Objective(local), budget)

	sched.stats.Quarantined = sched.step.Quarantined()
	if err := ck.Flush(); err != nil {
		st := sched.stats
		return res, &st, fmt.Errorf("fleet: checkpoint not durable: %w", err)
	}
	st := sched.stats
	return res, &st, nil
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
