// Package netchaos deterministically injects wire faults — latency,
// connection drops, black-hole timeouts, truncated bodies, corrupted
// JSON, duplicated requests, reordered responses, timed partitions and
// synthetic 429 throttles — into HTTP exchanges, so the fleet
// coordinator's hostile-network tolerance can be validated instead of
// asserted. It is the network sibling of internal/faultinject and
// follows the same discipline: every item-keyed decision is a pure
// function of (plan seed, site, arrival index), so the i-th request to
// a site draws exactly the same faults in every run, and a gate can
// prove up front (see Decide and the gate-coverage test) that a fixed
// request budget exercises every fault class.
//
// The injector is pluggable on both ends of the wire: Transport wraps
// the coordinator's http.RoundTripper, Middleware wraps the worker's
// handler. The site key is the URL path only — deliberately excluding
// host and port — so the decision stream does not depend on ephemeral
// test ports and is shared across the workers of one fleet: the n-th
// shard dispatch overall sees the n-th decision, whichever worker it
// lands on.
package netchaos

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"patty/internal/obs"
	"patty/internal/seed"
)

// Fault classes, as they appear in Stats and in the
// fleet.net.injected.<class> metric keys.
const (
	ClassLatency   = "latency"
	ClassDrop      = "drop"
	ClassTimeout   = "timeout"
	ClassTruncate  = "truncate"
	ClassCorrupt   = "corrupt"
	ClassDuplicate = "duplicate"
	ClassReorder   = "reorder"
	ClassPartition = "partition"
	ClassThrottle  = "throttle"
)

// Classes lists every fault class the injector can fire, in a stable
// order.
var Classes = []string{
	ClassLatency, ClassDrop, ClassTimeout, ClassTruncate, ClassCorrupt,
	ClassDuplicate, ClassReorder, ClassPartition, ClassThrottle,
}

// salts separate the per-class decision streams of one (site, item).
const (
	saltDrop = iota + 1
	saltTimeout
	saltLatency
	saltDuplicate
	saltTruncate
	saltCorrupt
	saltReorder
	saltThrottle
)

// Plan configures an injection campaign. Rates are probabilities in
// [0, 1] evaluated independently per (site, arrival index); the zero
// value injects nothing. Client-side (Transport) classes: latency,
// drop, timeout, truncate, corrupt, duplicate, reorder, partition.
// Server-side (Middleware) classes: throttle, latency, drop.
type Plan struct {
	// Seed drives every item-keyed decision (via seed.Mix).
	Seed int64

	// LatencyRate injects a Latency-long sleep before the request is
	// forwarded (client) or handled (server).
	LatencyRate float64
	Latency     time.Duration

	// DropRate fails the exchange outright: the client transport
	// returns a connection-reset-shaped error, the server middleware
	// aborts the response mid-flight.
	DropRate float64

	// TimeoutRate black-holes the request on the client side: the
	// transport holds it until the request context (the coordinator's
	// lease TTL) expires. No bytes ever flow.
	TimeoutRate float64

	// TruncateRate cuts the response body in half, producing the
	// unexpected-EOF shape a mid-transfer connection loss leaves.
	TruncateRate float64

	// CorruptRate overwrites bytes inside the response body, producing
	// syntactically invalid JSON with an intact HTTP envelope.
	CorruptRate float64

	// DuplicateRate sends the request twice (the second send reuses
	// GetBody); the caller sees the second response. Exercises worker
	// idempotency and the coordinator's evaluation dedup.
	DuplicateRate float64

	// ReorderRate delays an already-received response by ReorderDelay
	// before handing it to the caller, so responses complete out of
	// send order.
	ReorderRate  float64
	ReorderDelay time.Duration

	// ThrottleRate (server middleware) answers 429 with Retry-After: 1
	// before the real handler runs — the synthetic quota refusal the
	// coordinator must honor with jittered backoff.
	ThrottleRate float64

	// Timed partition: every client request arriving inside a window
	// fails fast with ErrPartition, consuming no arrival index. The
	// first window opens PartitionAfter after the injector is built and
	// lasts PartitionFor; with PartitionEvery > 0 it repeats at that
	// period.
	PartitionAfter time.Duration
	PartitionFor   time.Duration
	PartitionEvery time.Duration
}

// PlanSpec is the JSON/CLI wire form of a Plan, with durations in
// milliseconds (`patty tune -net-chaos`, `patty worker -chaos`, serve
// job specs).
type PlanSpec struct {
	Seed             int64   `json:"seed"`
	LatencyRate      float64 `json:"latency_rate,omitempty"`
	LatencyMs        int     `json:"latency_ms,omitempty"`
	DropRate         float64 `json:"drop_rate,omitempty"`
	TimeoutRate      float64 `json:"timeout_rate,omitempty"`
	TruncateRate     float64 `json:"truncate_rate,omitempty"`
	CorruptRate      float64 `json:"corrupt_rate,omitempty"`
	DuplicateRate    float64 `json:"duplicate_rate,omitempty"`
	ReorderRate      float64 `json:"reorder_rate,omitempty"`
	ReorderDelayMs   int     `json:"reorder_delay_ms,omitempty"`
	ThrottleRate     float64 `json:"throttle_rate,omitempty"`
	PartitionAfterMs int     `json:"partition_after_ms,omitempty"`
	PartitionForMs   int     `json:"partition_for_ms,omitempty"`
	PartitionEveryMs int     `json:"partition_every_ms,omitempty"`
}

// Plan converts the wire form into an executable Plan.
func (s PlanSpec) Plan() Plan {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return Plan{
		Seed:        s.Seed,
		LatencyRate: s.LatencyRate, Latency: ms(s.LatencyMs),
		DropRate:      s.DropRate,
		TimeoutRate:   s.TimeoutRate,
		TruncateRate:  s.TruncateRate,
		CorruptRate:   s.CorruptRate,
		DuplicateRate: s.DuplicateRate,
		ReorderRate:   s.ReorderRate, ReorderDelay: ms(s.ReorderDelayMs),
		ThrottleRate:   s.ThrottleRate,
		PartitionAfter: ms(s.PartitionAfterMs),
		PartitionFor:   ms(s.PartitionForMs),
		PartitionEvery: ms(s.PartitionEveryMs),
	}
}

// GateSpec is the canonical hostile-network plan of the `make
// netchaos` gate, shared by the in-package fleet gate and the CLI
// chaos leg. Its seed is pinned by TestGateSeedCoversAllClasses: with
// these rates, every item-keyed fault class fires at least once within
// the first GateCoverageBudget arrivals at /shards, and the partition
// window opens at t=0 so the very first dispatch of a run provably
// lands in it.
func GateSpec() PlanSpec {
	return PlanSpec{
		Seed:             GateSeed,
		LatencyRate:      0.25,
		LatencyMs:        2,
		DropRate:         0.12,
		TimeoutRate:      0.08,
		TruncateRate:     0.12,
		CorruptRate:      0.12,
		DuplicateRate:    0.12,
		ReorderRate:      0.15,
		ReorderDelayMs:   3,
		ThrottleRate:     0.2,
		PartitionAfterMs: 0,
		PartitionForMs:   60,
		PartitionEveryMs: 700,
	}
}

// GateSeed is the pinned seed of GateSpec; see GateSpec.
const GateSeed int64 = 1

// GateCoverageBudget is the arrival count within which GateSpec
// provably fires every item-keyed client fault class (enforced by
// TestGateSeedCoversAllClasses).
const GateCoverageBudget = 15

// GatePlan is GateSpec as an executable Plan.
func GatePlan() Plan { return GateSpec().Plan() }

// ErrPartition is the error a partitioned client request fails with.
var ErrPartition = fmt.Errorf("netchaos: network partition")

// injectedError marks transport failures the injector manufactured.
type injectedError struct {
	class string
	site  string
	item  int
}

func (e injectedError) Error() string {
	return fmt.Sprintf("netchaos: injected %s at %q item %d", e.class, e.site, e.item)
}

// Decision is the item-keyed fault verdict for one (site, arrival)
// pair, with class precedence already applied: a drop masks everything
// after it, a timeout masks everything but the drop roll, truncation
// masks corruption. Latency, duplicate and reorder stack with the body
// faults.
type Decision struct {
	Drop      bool
	Timeout   bool
	Latency   bool
	Duplicate bool
	Truncate  bool
	Corrupt   bool
	Reorder   bool
}

// Classes returns the class names the decision fires, in Classes
// order.
func (d Decision) Classes() []string {
	var out []string
	add := func(on bool, c string) {
		if on {
			out = append(out, c)
		}
	}
	add(d.Latency, ClassLatency)
	add(d.Drop, ClassDrop)
	add(d.Timeout, ClassTimeout)
	add(d.Truncate, ClassTruncate)
	add(d.Corrupt, ClassCorrupt)
	add(d.Duplicate, ClassDuplicate)
	add(d.Reorder, ClassReorder)
	return out
}

// Stats is a point-in-time copy of the per-class fire counts, plus the
// total arrivals that consumed an index.
type Stats struct {
	Requests int64
	Fired    map[string]int64
}

// Injector injects the plan's faults. Safe for concurrent use; one
// injector may serve a client transport and a server middleware at
// once (their sites are disjoint: client sites are URL paths, server
// sites are "srv:" + path).
type Injector struct {
	plan  Plan
	start time.Time

	mu  sync.Mutex
	seq map[string]int

	requests atomic.Int64
	fired    map[string]*atomic.Int64
	inst     map[string]*obs.Counter
}

// New returns an injector for plan. The partition clock starts now.
func New(plan Plan) *Injector {
	inj := &Injector{
		plan:  plan,
		start: time.Now(),
		seq:   make(map[string]int),
		fired: make(map[string]*atomic.Int64),
	}
	for _, c := range Classes {
		inj.fired[c] = &atomic.Int64{}
	}
	return inj
}

// Instrument mirrors every fired fault into c as a
// fleet.net.injected.<class> counter, the observability half of the
// netchaos gate ("every injected fault class is visible in the
// fleet.net.* grammar"). Returns the injector for chaining.
func (inj *Injector) Instrument(c *obs.Collector) *Injector {
	if c == nil {
		return inj
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.inst = make(map[string]*obs.Counter, len(Classes))
	for _, class := range Classes {
		inj.inst[class] = c.Counter("fleet.net.injected." + class)
	}
	return inj
}

// Stats returns the per-class fire counts so far.
func (inj *Injector) Stats() Stats {
	if inj == nil {
		return Stats{Fired: map[string]int64{}}
	}
	s := Stats{Requests: inj.requests.Load(), Fired: make(map[string]int64, len(inj.fired))}
	for c, n := range inj.fired {
		s.Fired[c] = n.Load()
	}
	return s
}

// MissingClasses returns the fault classes that have not fired yet, in
// stable order — the gate asserts it is empty after a chaos run.
func (inj *Injector) MissingClasses() []string {
	st := inj.Stats()
	var out []string
	for _, c := range Classes {
		if st.Fired[c] == 0 {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

func (inj *Injector) count(class string) {
	inj.fired[class].Add(1)
	inj.mu.Lock()
	ctr := inj.inst[class]
	inj.mu.Unlock()
	ctr.Inc() // nil-safe
}

// roll derives the deterministic decision variable for (site, item,
// salt) as a float in [0, 1) via seed.Roll.
func (inj *Injector) roll(site string, item int, salt int64) float64 {
	return seed.Roll(inj.plan.Seed, site, int64(item)*16+salt)
}

// Decide returns the item-keyed fault verdict for (site, item) — the
// oracle side of the transport, usable without firing anything. The
// gate-coverage test runs it over a fixed arrival budget to prove the
// pinned seed exercises every class.
func (inj *Injector) Decide(site string, item int) Decision {
	p := inj.plan
	var d Decision
	if inj.roll(site, item, saltDrop) < p.DropRate {
		d.Drop = true
		return d
	}
	if inj.roll(site, item, saltTimeout) < p.TimeoutRate {
		d.Timeout = true
		return d
	}
	d.Latency = p.Latency > 0 && inj.roll(site, item, saltLatency) < p.LatencyRate
	d.Duplicate = inj.roll(site, item, saltDuplicate) < p.DuplicateRate
	d.Truncate = inj.roll(site, item, saltTruncate) < p.TruncateRate
	d.Corrupt = !d.Truncate && inj.roll(site, item, saltCorrupt) < p.CorruptRate
	d.Reorder = p.ReorderDelay > 0 && inj.roll(site, item, saltReorder) < p.ReorderRate
	return d
}

// next assigns the next arrival index for site.
func (inj *Injector) next(site string) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	item := inj.seq[site]
	inj.seq[site]++
	return item
}

// partitioned reports whether the timed partition is open at offset t
// from the injector's start.
func (p Plan) partitioned(t time.Duration) bool {
	if p.PartitionFor <= 0 {
		return false
	}
	rel := t - p.PartitionAfter
	if rel < 0 {
		return false
	}
	if p.PartitionEvery > 0 {
		rel %= p.PartitionEvery
	}
	return rel < p.PartitionFor
}

// Transport wraps base (nil: http.DefaultTransport) with the
// client-side fault classes. Partitioned requests fail without
// consuming an arrival index, so the item-keyed decision stream stays
// aligned with the requests that actually reach the wire.
func (inj *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if inj == nil {
		if base == nil {
			return http.DefaultTransport
		}
		return base
	}
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{inj: inj, base: base}
}

type transport struct {
	inj  *Injector
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	inj, p := t.inj, t.inj.plan
	ctx := req.Context()
	site := req.URL.Path
	if site == "" {
		site = "/"
	}
	if p.partitioned(time.Since(inj.start)) {
		inj.count(ClassPartition)
		return nil, fmt.Errorf("%w: %s unreachable", ErrPartition, req.URL.Host)
	}
	item := inj.next(site)
	inj.requests.Add(1)
	d := inj.Decide(site, item)
	if d.Drop {
		inj.count(ClassDrop)
		return nil, injectedError{class: ClassDrop, site: site, item: item}
	}
	if d.Timeout {
		// Black hole: no bytes flow until the caller's deadline (the
		// coordinator's lease TTL) gives up on us.
		inj.count(ClassTimeout)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if d.Latency {
		inj.count(ClassLatency)
		sleepCtx(ctx, p.Latency)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.Duplicate && req.GetBody != nil {
		// The same request hits the wire twice; the caller sees the
		// second answer. A correct worker (idempotent evaluation,
		// journal cache) answers both identically.
		inj.count(ClassDuplicate)
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBuffer))
		resp.Body.Close()
		dup := req.Clone(ctx)
		dup.Body, err = req.GetBody()
		if err != nil {
			return nil, err
		}
		resp, err = t.base.RoundTrip(dup)
		if err != nil {
			return nil, err
		}
	}
	switch {
	case d.Truncate:
		inj.count(ClassTruncate)
		resp = truncateBody(resp)
	case d.Corrupt:
		inj.count(ClassCorrupt)
		resp = corruptBody(resp, inj.plan.Seed, item)
	}
	if d.Reorder {
		// Hold a finished response back so it completes after
		// later-sent ones — reordering as the merge layer sees it.
		inj.count(ClassReorder)
		sleepCtx(ctx, p.ReorderDelay)
	}
	return resp, nil
}

// maxBodyBuffer bounds the body bytes the injector will buffer when
// rewriting a response (comfortably above fleet.MaxBodyBytes).
const maxBodyBuffer = 4 << 20

// truncateBody replaces the response body with its first half — the
// shape a connection cut mid-transfer leaves: valid envelope, JSON
// that ends mid-token.
func truncateBody(resp *http.Response) *http.Response {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBuffer))
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(b[:len(b)/2]))
	resp.ContentLength = -1
	return resp
}

// corruptBody deterministically overwrites three body bytes with NUL —
// an intact length, a broken payload — so the decoder sees corruption
// rather than truncation.
func corruptBody(resp *http.Response, planSeed int64, item int) *http.Response {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBuffer))
	resp.Body.Close()
	if len(b) > 0 {
		for i := 0; i < 3; i++ {
			pos := int(uint64(seed.Mix(planSeed, int64(item)*8+int64(i))) % uint64(len(b)))
			b[pos] = 0x00
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(b))
	resp.ContentLength = int64(len(b))
	return resp
}

// Middleware wraps a server handler with the server-side fault
// classes: throttle (429 + Retry-After before the handler runs),
// latency, and drop (response aborted mid-flight). Server sites are
// "srv:" + path, so a shared injector keeps client and server decision
// streams independent.
func (inj *Injector) Middleware(next http.Handler) http.Handler {
	if inj == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := inj.plan
		site := "srv:" + r.URL.Path
		item := inj.next(site)
		if inj.roll(site, item, saltThrottle) < p.ThrottleRate {
			inj.count(ClassThrottle)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "netchaos: injected throttle", http.StatusTooManyRequests)
			return
		}
		if p.Latency > 0 && inj.roll(site, item, saltLatency) < p.LatencyRate {
			inj.count(ClassLatency)
			sleepCtx(r.Context(), p.Latency)
		}
		if inj.roll(site, item, saltDrop) < p.DropRate {
			inj.count(ClassDrop)
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(w, r)
	})
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
