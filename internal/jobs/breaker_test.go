package jobs

import (
	"sync"
	"testing"
	"time"
)

// fakeClock lets breaker tests step time deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	b := NewBreaker(threshold, cooldown)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

// tripped reports whether key is open: refused, with a cooldown left.
func tripped(b *Breaker, key string) bool { return b.RetryAfter(key) > 0 }

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	const key = "intake"
	for i := 0; i < 2; i++ {
		if !b.Allow(key) {
			t.Fatalf("fault %d should not trip yet", i)
		}
		b.Record(key, true)
	}
	if tripped(b, key) || !b.Allow(key) {
		t.Fatal("two faults must stay closed at threshold 3")
	}
	b.Record(key, true)
	if !tripped(b, key) {
		t.Fatal("third consecutive fault must trip open")
	}
	if b.Allow(key) {
		t.Fatal("open breaker must short-circuit")
	}
	if !b.Allow("other") || tripped(b, "other") {
		t.Fatal("unrelated keys must stay closed")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	const key = "k"
	b.Record(key, true)
	b.Record(key, true)
	b.Record(key, false) // heal
	b.Record(key, true)
	b.Record(key, true)
	if tripped(b, key) || !b.Allow(key) {
		t.Fatal("non-consecutive faults must not trip")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	const key = "k"
	b.Record(key, true)
	if b.Allow(key) {
		t.Fatal("tripped key allowed before cooldown")
	}
	clk.advance(61 * time.Second)
	if !b.Allow(key) {
		t.Fatal("cooldown elapsed: one probe must be allowed")
	}
	if b.Allow(key) {
		t.Fatal("second concurrent probe must be refused while the first is in flight")
	}
	// Probe faults: reopen with doubled cooldown.
	b.Record(key, true)
	if got := b.RetryAfter(key); got != 2*time.Minute {
		t.Fatalf("failed probe: cooldown %v, want doubled to 2m", got)
	}
	clk.advance(61 * time.Second)
	if b.Allow(key) {
		t.Fatal("doubled cooldown: 61s must not be enough after a failed probe")
	}
	clk.advance(60 * time.Second)
	if !b.Allow(key) {
		t.Fatal("doubled cooldown elapsed: probe expected")
	}
	// Probe heals: closed again, every call admitted.
	b.Record(key, false)
	if tripped(b, key) || !b.Allow(key) || !b.Allow(key) {
		t.Fatal("healed probe must close the breaker")
	}
}

// TestBreakerConcurrencySafe hammers one breaker from many goroutines;
// run under -race this is the data-race property test.
func TestBreakerConcurrencySafe(t *testing.T) {
	b := NewBreaker(3, time.Millisecond)
	keys := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keys[(g+i)%len(keys)]
				if b.Allow(k) {
					b.Record(k, (g+i)%3 == 0)
				}
				if i%97 == 0 {
					b.RetryAfter(k)
					ShedRetryAfter(b)
				}
			}
		}(g)
	}
	wg.Wait()
}
