package jobs

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker lifecycle.
type breakerState int

const (
	// closed: the key is healthy; calls flow.
	closed breakerState = iota
	// open: the key faulted threshold times in a row; calls are
	// short-circuited until the cooldown elapses.
	open
	// halfOpen: cooldown elapsed; exactly one probe call is let
	// through. Success closes the breaker, a fault reopens it with a
	// doubled cooldown.
	halfOpen
)

// Breaker is a keyed circuit breaker. HTTP intakes key it by
// IntakeKey to turn repeated load shedding into a growing Retry-After,
// and the fleet coordinator keys it by worker URL to keep a worker
// caught lying out of the search: after threshold consecutive faults
// on one key, the key trips open and every further call is refused
// until a cooldown probe proves the key healed.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu      sync.Mutex
	entries map[string]*breakerEntry
	jit     *rand.Rand // Retry-After jitter; guarded by mu
}

type breakerEntry struct {
	state     breakerState
	consec    int
	openUntil time.Time
	cooldown  time.Duration
	probing   bool
}

// NewBreaker returns a breaker that trips a key after threshold
// consecutive faults (min 1) and re-probes it after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		entries:   make(map[string]*breakerEntry),
	}
}

// Allow reports whether a call for key may proceed. An open key whose
// cooldown elapsed turns half-open and admits exactly one
// probe; concurrent callers are refused until that probe resolves via
// Record.
func (b *Breaker) Allow(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil || e.state == closed {
		return true
	}
	if e.state == open && b.now().After(e.openUntil) {
		e.state = halfOpen
		e.probing = false
	}
	if e.state == halfOpen && !e.probing {
		e.probing = true
		return true
	}
	return false
}

// Record reports the outcome of an allowed call for key. A fault
// increments the consecutive-fault count and trips the breaker at the
// threshold (or immediately when the call was a half-open probe, with
// a doubled cooldown, capped at 16x); success closes the breaker and
// resets the count.
func (b *Breaker) Record(key string, faulted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil {
		e = &breakerEntry{cooldown: b.cooldown}
		b.entries[key] = e
	}
	wasProbe := e.state == halfOpen
	e.probing = false
	if !faulted {
		e.state = closed
		e.consec = 0
		e.cooldown = b.cooldown
		return
	}
	e.consec++
	if wasProbe || e.consec >= b.threshold {
		if wasProbe {
			e.cooldown = time.Duration(math.Min(float64(e.cooldown)*2, float64(16*b.cooldown)))
		}
		e.state = open
		e.openUntil = b.now().Add(e.cooldown)
	}
}

// RetryAfter returns the remaining open-state cooldown for key, or 0
// when the key is not open (or its cooldown already elapsed). HTTP
// intakes use it to answer 503 with an honest Retry-After instead of a
// constant.
func (b *Breaker) RetryAfter(key string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil || e.state != open {
		return 0
	}
	if d := e.openUntil.Sub(b.now()); d > 0 {
		return d
	}
	return 0
}

// IntakeKey is the breaker key HTTP intakes use for admission events.
const IntakeKey = "intake"

// ShedRetryAfter drives an intake breaker through one shed admission
// and returns the advisory Retry-After in whole seconds: the breaker's
// remaining cooldown, jittered ±25% (see Jitter) and floored at one
// second. Repeated shed storms trip the breaker and double the cooldown
// through its half-open probes, so the advertised backoff grows while
// the overload persists; the first accepted submission
// (Record(IntakeKey, false)) resets it.
func ShedRetryAfter(b *Breaker) int {
	b.Allow(IntakeKey) // advance open -> half-open when the cooldown elapsed
	b.Record(IntakeKey, true)
	secs := int(math.Ceil(b.jitter(b.RetryAfter(IntakeKey)).Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
