package fleet

import (
	"math"
	"sort"
	"strings"

	"patty/internal/obs"
	"patty/internal/seed"
	"patty/internal/tuning"
)

// The byzantine defense: a worker that answers quickly and
// well-formedly but with *wrong costs* is invisible to every transport
// check, and one adopted lie poisons the deterministic merge that the
// replay — and every downstream gate — trusts. So the coordinator
// audits: for each completed shard it re-evaluates a seeded sample of
// K configurations locally (the objective is pure, so the honest cost
// is reproducible anywhere) and compares. A worker whose report
// diverges beyond tolerance is quarantined through the breaker, its
// in-flight shard is re-queued for an honest worker, and every
// evaluation it previously contributed is re-verified locally —
// divergent records are corrected in both the merge table and the
// checkpoint journal. The sample indices are a pure function of
// (seed, search signature, shard id), so auditing never perturbs the
// bit-identical-merge guarantee.
//
// The sampling argument: a liar that corrupts a fraction f of its
// evaluations escapes one shard's audit with probability (1-f)^K —
// 64% for f=0.2, K=2 — but must escape *every* shard it answers, and
// a single detection retroactively voids all of its contributions via
// re-verification. Lying is therefore only safe at f≈0, i.e. when the
// lies don't matter.

// WorkerHealth is the per-worker scorecard in Stats.Health — one row
// per configured worker, rendered by report.FleetTable.
type WorkerHealth struct {
	Worker       string `json:"worker"`
	Dispatched   int    `json:"dispatched"`
	Failed       int    `json:"failed"`
	Evals        int    `json:"evals"`
	CrossChecked int    `json:"cross_checked"`
	Divergent    int    `json:"divergent"`
	Benched      bool   `json:"benched,omitempty"`
	Quarantined  bool   `json:"quarantined,omitempty"`
}

// workerHealth is the scheduler's mutable counterpart (guarded by mu).
type workerHealth struct {
	dispatched, failed, evals, checked, divergent int
	benched, quarantined                          bool
	inst                                          peerInstruments
}

// peerInstruments are the live fleet.peer.<name>.* metrics for one
// worker.
type peerInstruments struct {
	dispatched, failed, evals *obs.Counter
	crosschecked, divergent   *obs.Counter
	quarantined, benched      *obs.Gauge
}

// peerKey turns a worker base URL into a metric-key segment:
// scheme stripped, ':' and '/' folded to '-'
// ("http://127.0.0.1:4713" -> "127.0.0.1-4713").
func peerKey(worker string) string {
	s := worker
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '.', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, s)
}

// healthOf returns (creating on first use) the scorecard for worker.
// Callers hold s.mu.
func (s *scheduler) healthOf(worker string) *workerHealth {
	h := s.health[worker]
	if h == nil {
		pk := "fleet.peer." + peerKey(worker) + "."
		h = &workerHealth{inst: peerInstruments{
			dispatched:   s.coll.Counter(pk + "dispatched"),
			failed:       s.coll.Counter(pk + "failed"),
			evals:        s.coll.Counter(pk + "evals"),
			crosschecked: s.coll.Counter(pk + "crosschecked"),
			divergent:    s.coll.Counter(pk + "divergent"),
			quarantined:  s.coll.Gauge(pk + "quarantined"),
			benched:      s.coll.Gauge(pk + "benched"),
		}}
		s.health[worker] = h
	}
	return h
}

// noteDispatch counts a shard dispatch attempt against worker.
func (s *scheduler) noteDispatch(worker string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.healthOf(worker)
	h.dispatched++
	h.inst.dispatched.Inc()
}

// noteFault records a classified dispatch fault. Busy/throttle
// refusals count as net faults but not against the worker's health
// (an overloaded worker is not a broken one).
func (s *scheduler) noteFault(worker string, class FaultClass, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.NetFaults[string(class)]++
	s.coll.Counter("fleet.net." + string(class)).Inc()
	if failed {
		h := s.healthOf(worker)
		h.failed++
		h.inst.failed.Inc()
	}
}

// noteBenched flags worker as permanently lost after repeated
// failures.
func (s *scheduler) noteBenched(worker string) {
	s.mu.Lock()
	h := s.healthOf(worker)
	h.benched = true
	h.inst.benched.Set(1)
	s.mu.Unlock()
	s.benched()
}

// healthRows exports the scorecards, sorted by worker, for Stats.
func (s *scheduler) healthRows(workers []string) []WorkerHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range workers { // ensure every configured worker has a row
		s.healthOf(w)
	}
	out := make([]WorkerHealth, 0, len(s.health))
	for w, h := range s.health {
		out = append(out, WorkerHealth{
			Worker: w, Dispatched: h.dispatched, Failed: h.failed,
			Evals: h.evals, CrossChecked: h.checked, Divergent: h.divergent,
			Benched: h.benched, Quarantined: h.quarantined,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// pickSample deterministically selects k distinct indices in [0, n)
// for the audit — a pure function of (seedBase, search signature,
// shard id), so every run (and every holder of a stolen shard) audits
// the same configurations.
func pickSample(seedBase int64, search string, shard, n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	h := seedBase
	for _, b := range []byte(search) {
		h = seed.Mix(h, int64(b))
	}
	h = seed.Mix(h, int64(shard))
	picked := make(map[int]bool, k)
	out := make([]int, 0, k)
	for i := 0; len(out) < k; i++ {
		idx := int(uint64(seed.Mix(h, int64(i))) % uint64(n))
		if !picked[idx] {
			picked[idx] = true
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// costsAgree compares a reported cost against the local truth. Faulted
// evaluations (Inf/NaN) agree only with faulted evaluations; finite
// costs agree within a relative tolerance (the objective is pure, so
// honest divergence is at most float noise).
func costsAgree(reported, truth, tol float64) bool {
	rBad := math.IsInf(reported, 0) || math.IsNaN(reported)
	tBad := math.IsInf(truth, 0) || math.IsNaN(truth)
	if rBad || tBad {
		return rBad == tBad
	}
	return math.Abs(reported-truth) <= tol*math.Max(1, math.Max(math.Abs(reported), math.Abs(truth)))
}

// localTruth returns the honest record of an assignment, measuring
// LocalObjective at most once per key (cached across audits and
// re-verification).
func (s *scheduler) localTruth(a map[string]int, opts Options) tuning.EvalRecord {
	key := tuning.AssignKey(a)
	s.mu.Lock()
	if rec, ok := s.truth[key]; ok {
		s.mu.Unlock()
		return rec
	}
	s.mu.Unlock()
	rec := tuning.Measure(opts.LocalObjective, a) // outside the lock: may be slow
	s.mu.Lock()
	s.truth[key] = rec
	s.mu.Unlock()
	return rec
}

// crossCheck audits one shard response: re-evaluate the seeded sample
// locally and compare. Reports whether the worker diverged (in which
// case the response must not be merged).
func (s *scheduler) crossCheck(worker string, req ShardRequest, resp *ShardResponse, opts Options) bool {
	if opts.CrossCheck <= 0 || len(resp.Evals) == 0 {
		return false
	}
	divergent := false
	for _, idx := range pickSample(opts.CrossCheckSeed, req.Search, req.Shard, len(resp.Evals), opts.CrossCheck) {
		reported := resp.Evals[idx].EffectiveCost()
		truth := s.localTruth(resp.Evals[idx].Assignment, opts).EffectiveCost()
		s.mu.Lock()
		h := s.healthOf(worker)
		h.checked++
		h.inst.crosschecked.Inc()
		s.stats.CrossChecked++
		s.inst.crosschecked.Inc()
		if !costsAgree(reported, truth, opts.CrossCheckTol) {
			divergent = true
			h.divergent++
			h.inst.divergent.Inc()
			s.stats.Divergent++
			s.inst.divergent.Inc()
		}
		s.mu.Unlock()
	}
	return divergent
}

// quarantine removes a divergent worker from the fleet and repairs the
// damage: trip the byzantine breaker (so the worker stays out for the
// rest of the search), then re-verify every evaluation the worker
// previously contributed to the merge — records whose cost disagrees
// with the locally re-measured truth are corrected in the table and
// the shared store. After this the merged table contains only
// honest costs, which is what keeps the replay bit-identical to a
// local run.
func (s *scheduler) quarantine(worker string, opts Options) {
	s.mu.Lock()
	s.byz.Record(worker, true)
	h := s.healthOf(worker)
	if h.quarantined {
		s.mu.Unlock()
		return
	}
	h.quarantined = true
	h.inst.quarantined.Set(1)
	s.stats.ByzantineQuarantined = append(s.stats.ByzantineQuarantined, worker)
	sort.Strings(s.stats.ByzantineQuarantined)
	s.inst.quarantined.Inc()
	// Snapshot the worker's prior contributions under the lock; the
	// re-measurement happens outside it.
	var suspect []tuning.EvalRecord
	for key, src := range s.source {
		if src == worker {
			rec, _ := s.ck.Lookup(key)
			suspect = append(suspect, rec)
		}
	}
	s.mu.Unlock()

	for _, rec := range suspect {
		truth := s.localTruth(rec.Assignment, opts)
		s.mu.Lock()
		s.stats.Reverified++
		s.inst.reverified.Inc()
		if !costsAgree(rec.EffectiveCost(), truth.EffectiveCost(), opts.CrossCheckTol) {
			// The liar's cost reached the journal and the shared store
			// when its shard merged; a poisoned entry must not outlive
			// the search, let alone answer another tenant's job.
			s.step.Correct(truth)
			delete(s.source, tuning.AssignKey(rec.Assignment)) // now locally vouched for
			s.stats.Corrected++
			s.inst.corrected.Inc()
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	if s.stats.Corrected > 0 {
		s.ck.Flush() // best effort; the final Flush reports errors
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}
