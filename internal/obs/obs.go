// Package obs is the runtime-observability layer of the parallel
// pattern runtime: lock-cheap counters, gauges and fixed-bucket
// latency histograms behind a Collector with a consistent-enough
// Snapshot API. It closes the feedback loop the paper's process model
// ends on — the auto-tuning cycle (Fig. 4c) consumes a black-box cost;
// per-stage service times, queue occupancy and worker imbalance
// explain *why* a configuration won (see internal/report).
//
// Design rules:
//
//   - Every instrument method is safe on a nil receiver and compiles
//     to a single predictable branch there, so an uninstrumented
//     pattern pays (sub-)nanoseconds per record on the hot path
//     (BenchmarkNoop* prove the bound).
//   - Writers never take a lock; all state is atomic. Snapshots are
//     per-field atomic reads: totals are exact once writers quiesce
//     and monotonically consistent while they run.
//   - Instruments are identified by dotted keys mirroring the tuning
//     parameter scheme, e.g. "pipeline.video.stage.2.service_ns", so
//     that metric streams and tuning configurations join trivially.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, replica count).
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of every Histogram: bucket i
// holds samples v with bits.Len64(v) == i, i.e. exponential base-2
// bucket boundaries 0, 1, 2, 4, 8, ... — 63 buckets cover the whole
// non-negative int64 range (≈292 years in nanoseconds), so latency
// recording never needs range configuration.
const histBuckets = 64

// Histogram is a fixed-bucket latency histogram with power-of-two
// bucket boundaries, plus exact count/sum and approximate min/max.
// All operations are atomic; Record never allocates or locks.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid iff count > 0
	max     atomic.Int64
}

// bucketOf returns the bucket index for a sample value.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	return bits.Len64(uint64(v)) // 0 for 0, else floor(log2(v))+1
}

// BucketLow returns the inclusive lower bound of bucket i
// (0, 1, 2, 4, 8, ...).
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// Record adds one sample (typically nanoseconds). Negative samples
// are clamped to zero. No-op on a nil receiver.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	if h.count.Add(1) == 1 {
		// First sample initializes min/max; racing later samples fix
		// themselves up in the CAS loops below.
		h.min.Store(v)
		h.max.Store(v)
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// snapshot copies the histogram state with per-field atomic reads.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Min:   h.min.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Low: BucketLow(i), Count: n})
		}
	}
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	}
	return s
}

// Bucket is one non-empty histogram bucket: Low is the inclusive
// lower bound; the next bucket's Low (or Max) bounds it above.
type Bucket struct {
	Low   int64 `json:"low"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the arithmetic mean sample, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket
// counts, interpolating linearly within the winning bucket. The
// estimate is exact to within one power-of-two bucket.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q >= 1 {
		return float64(s.Max)
	}
	rank := q * float64(s.Count-1)
	var seen float64
	for i, b := range s.Buckets {
		if rank < seen+float64(b.Count) {
			lo := float64(b.Low)
			var hi float64
			if i+1 < len(s.Buckets) {
				hi = lo * 2
			} else {
				hi = float64(s.Max) + 1
			}
			if hi <= lo {
				hi = lo + 1
			}
			frac := (rank - seen) / float64(b.Count)
			v := lo + frac*(hi-lo)
			return math.Min(v, float64(s.Max))
		}
		seen += float64(b.Count)
	}
	return float64(s.Max)
}

// Collector is a named registry of instruments. Instrument lookup
// takes a lock; the returned pointers are lock-free, so callers hoist
// lookups out of hot loops (the parrt patterns do this once at
// Instrument time). A nil *Collector is valid: every lookup returns a
// nil instrument, which records nothing.
type Collector struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	labels   map[string]string
}

// New returns an empty Collector.
func New() *Collector {
	return &Collector{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		labels:   make(map[string]string),
	}
}

// Counter returns (creating if needed) the counter named key.
// Returns nil on a nil Collector.
func (c *Collector) Counter(key string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ct, ok := c.counters[key]
	if !ok {
		ct = &Counter{}
		c.counters[key] = ct
	}
	return ct
}

// Gauge returns (creating if needed) the gauge named key.
// Returns nil on a nil Collector.
func (c *Collector) Gauge(key string) *Gauge {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.gauges[key]
	if !ok {
		g = &Gauge{}
		c.gauges[key] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram named key.
// Returns nil on a nil Collector.
func (c *Collector) Histogram(key string) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.hists[key]
	if !ok {
		h = &Histogram{}
		c.hists[key] = h
	}
	return h
}

// SetLabel attaches a static string (e.g. a stage name) to key.
// No-op on a nil Collector.
func (c *Collector) SetLabel(key, value string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.labels[key] = value
}

// Snapshot is a point-in-time copy of every instrument in a
// Collector. Maps are fresh copies; mutating a snapshot never affects
// the live collector.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	Labels     map[string]string       `json:"labels,omitempty"`
}

// Snapshot copies the current value of every instrument. Individual
// values are atomic reads; the set as a whole is weakly consistent
// while writers run and exact once they quiesce. Returns a zero
// Snapshot on a nil Collector.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Counters = make(map[string]int64, len(c.counters))
	for k, ct := range c.counters {
		s.Counters[k] = ct.Value()
	}
	s.Gauges = make(map[string]int64, len(c.gauges))
	for k, g := range c.gauges {
		s.Gauges[k] = g.Value()
	}
	s.Histograms = make(map[string]HistSnapshot, len(c.hists))
	for k, h := range c.hists {
		s.Histograms[k] = h.snapshot()
	}
	s.Labels = make(map[string]string, len(c.labels))
	for k, v := range c.labels {
		s.Labels[k] = v
	}
	return s
}

// Reset zeroes every registered instrument (keys and labels survive),
// so one Collector can be reused across tuning evaluations without
// re-instrumenting the patterns. No-op on a nil Collector.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ct := range c.counters {
		ct.v.Store(0)
	}
	for _, g := range c.gauges {
		g.v.Store(0)
	}
	for _, h := range c.hists {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
		h.min.Store(0)
		h.max.Store(0)
	}
}

// Keys returns the sorted union of all instrument keys.
func (c *Collector) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[string]bool, len(c.counters)+len(c.gauges)+len(c.hists))
	for k := range c.counters {
		seen[k] = true
	}
	for k := range c.gauges {
		seen[k] = true
	}
	for k := range c.hists {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
