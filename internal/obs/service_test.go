package obs

import "testing"

func TestAnalyzeServiceDigest(t *testing.T) {
	c := New()
	c.Gauge("jobs.queue.depth").Set(3)
	c.Gauge("jobs.queue.cap").Set(4)
	c.Gauge("jobs.running").Set(2)
	c.Gauge("jobs.workers").Set(2)
	c.Counter("jobs.submitted").Add(10)
	c.Counter("jobs.shed").Add(2)
	c.Counter("jobs.done").Add(4)
	c.Counter("jobs.failed").Add(1)
	c.Counter("jobs.canceled").Add(1)
	c.Counter("jobs.worker.restarts").Add(1)
	c.Histogram("jobs.latency_ns").Record(1000)

	h, ok := AnalyzeService(c.Snapshot())
	if !ok {
		t.Fatal("jobs keys present: ok must be true")
	}
	if h.QueueFill() != 0.75 {
		t.Fatalf("QueueFill = %v", h.QueueFill())
	}
	if got := h.ShedRate(); got != 2.0/12.0 {
		t.Fatalf("ShedRate = %v", got)
	}
	if h.Finished() != 6 || h.Pending() != 4 {
		t.Fatalf("finished=%d pending=%d", h.Finished(), h.Pending())
	}
	if !h.Degraded() {
		t.Fatal("shed+restarts: must be Degraded")
	}
	if h.Latency.Count != 1 {
		t.Fatalf("latency snapshot lost: %+v", h.Latency)
	}
}

func TestAnalyzeServiceAbsent(t *testing.T) {
	c := New()
	c.Counter("pipeline.video.wall_ns").Add(5) // pattern keys only
	if _, ok := AnalyzeService(c.Snapshot()); ok {
		t.Fatal("no jobs.* keys: ok must be false")
	}
	var h ServiceHealth
	if h.QueueFill() != 0 || h.ShedRate() != 0 || h.Degraded() || h.Pending() != 0 {
		t.Fatal("zero health must be calm")
	}
}
