package tuning

import (
	"math"
	"sort"

	"patty/internal/evalcache"
)

// Step is the one evaluation step every tune path runs: how a
// configuration's cost is obtained, classified and recorded. A lookup
// tries the journal first, then the evaluation cache; only a miss in
// both measures, and a fresh record goes to both. Local searches, the
// fleet coordinator (cache pre-filter, shard merge, replay) and fleet
// workers all evaluate through a Step, so a cost read back from any of
// them is the cost a measurement would have produced.
//
// A faulted configuration is its own quarantine: the tuner's evaluator
// never asks twice within a search, and the journal and cache answer
// every later request for it with +Inf instead of measuring again. The
// objectives here are deterministic, so a retry could not heal it.
//
// A Step is not safe for concurrent use.
type Step struct {
	// Journal, when non-nil, is the search's checkpoint (or the fleet's
	// in-memory merge table): consulted first, appended to on a miss.
	Journal *Checkpointer
	// Cache, when non-nil, is the persistent evaluation store, addressed
	// by (Program, config, Seed). Tenant attributes hits and inserts.
	Cache   *evalcache.Store
	Program string
	Seed    int64
	Tenant  string

	faulted map[string]bool // faulted configurations Eval has served
}

// Measure runs obj on a and classifies the outcome. It is the one
// fault rule: a panic or a non-finite cost is Faulted, stored with
// cost 0 (the flag carries the infinity JSON cannot) and read back as
// +Inf by EvalRecord.EffectiveCost.
func Measure(obj Objective, a map[string]int) (rec EvalRecord) {
	rec.Assignment = copyAssign(a)
	defer func() {
		if recover() != nil {
			rec.Cost, rec.Faulted = 0, true
		}
	}()
	if c := obj(a); math.IsInf(c, 0) || math.IsNaN(c) {
		rec.Faulted = true
	} else {
		rec.Cost = c
	}
	return rec
}

// Lookup answers a from the journal, then from the cache. A cache hit
// is appended to the journal, so a resumed search replays it without
// the store; the journal is persisted by the caller's next Flush.
func (s *Step) Lookup(a map[string]int) (EvalRecord, bool) {
	key := assignKey(a)
	if s.Journal != nil {
		if rec, ok := s.Journal.Lookup(key); ok {
			return rec, true
		}
	}
	if s.Cache == nil {
		return EvalRecord{}, false
	}
	e, ok := s.Cache.Get(evalcache.Key{Program: s.Program, Config: key, Seed: s.Seed}, s.Tenant)
	if !ok {
		return EvalRecord{}, false
	}
	rec := EvalRecord{Assignment: copyAssign(a), Cost: e.Cost, Faulted: e.Faulted}
	if s.Journal != nil {
		s.Journal.Record(rec)
	}
	return rec, true
}

// Record stores a record produced elsewhere (a worker's shard answer)
// or just measured: appended to the journal and the cache, both
// first-wins. It reports false, and stores nothing, when the journal
// already holds the configuration.
func (s *Step) Record(rec EvalRecord) bool {
	if s.Journal != nil && !s.Journal.Record(rec) {
		return false
	}
	if s.Cache != nil {
		// The store only saves work: a failed insert costs a later
		// re-measurement, never a wrong answer.
		s.Cache.Put(s.entry(rec))
	}
	return true
}

// Correct overwrites a record in the journal and the cache: the fleet
// coordinator's repair of costs a byzantine worker lied about.
func (s *Step) Correct(rec EvalRecord) {
	if s.Journal != nil {
		s.Journal.Correct(rec)
	}
	if s.Cache != nil {
		s.Cache.Correct(s.entry(rec))
	}
}

func (s *Step) entry(rec EvalRecord) evalcache.Entry {
	return evalcache.Entry{Program: s.Program, Config: assignKey(rec.Assignment), Seed: s.Seed,
		Cost: rec.Cost, Faulted: rec.Faulted, Tenant: s.Tenant}
}

// Eval returns a's record: looked up, or measured with obj, recorded
// and persisted before it is returned.
func (s *Step) Eval(a map[string]int, obj Objective) EvalRecord {
	rec, ok := s.Lookup(a)
	if !ok {
		rec = Measure(obj, a)
		s.Record(rec)
		if s.Journal != nil {
			s.Journal.Flush() // a save error sticks; the caller's final Flush reports it
		}
	}
	if rec.Faulted {
		if s.faulted == nil {
			s.faulted = make(map[string]bool)
		}
		s.faulted[assignKey(a)] = true
	}
	return rec
}

// Objective adapts Eval to the Objective a tuner calls.
func (s *Step) Objective(obj Objective) Objective {
	return func(a map[string]int) float64 { return s.Eval(a, obj).EffectiveCost() }
}

// Quarantined returns the sorted keys of the faulted configurations
// Eval has served: the search's quarantine set.
func (s *Step) Quarantined() []string {
	var out []string
	for k := range s.faulted {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
