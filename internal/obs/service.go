package obs

// Service-layer metric key grammar, published by internal/jobs:
//
//	jobs.queue.depth           gauge    (instantaneous admission queue)
//	jobs.queue.cap             gauge    (admission queue bound)
//	jobs.running               gauge    (jobs in flight)
//	jobs.workers               gauge    (worker-pool size)
//	jobs.submitted             counter  (admitted jobs)
//	jobs.shed                  counter  (submissions refused: overload)
//	jobs.quota_denied          counter  (submissions refused: tenant over quota)
//	jobs.restored              counter  (terminal jobs recovered from the store)
//	jobs.resubmitted           counter  (unfinished jobs re-enqueued from the store)
//	jobs.journal.errors        counter  (advisory journal writes that failed)
//	jobs.done                  counter
//	jobs.failed                counter
//	jobs.canceled              counter
//	jobs.worker.restarts       counter  (supervisor restarts after crash)
//	jobs.latency_ns            histogram (submit -> terminal)
//	jobs.run_ns                histogram (start -> terminal)
//
// The keys live beside the pattern keys in one Collector; Analyze
// skips them (no pattern kind prefix) and AnalyzeService digests them.

// ServiceHealth is the digest of the jobs.* keys in a Snapshot — the
// service-level analogue of PatternAnalysis, feeding report.ServiceTable
// and the /statusz endpoint of `patty serve`.
type ServiceHealth struct {
	QueueDepth int64 `json:"queue_depth"`
	QueueCap   int64 `json:"queue_cap"`
	Running    int64 `json:"running"`
	Workers    int64 `json:"workers"`

	Submitted   int64 `json:"submitted"`
	Shed        int64 `json:"shed"`
	QuotaDenied int64 `json:"quota_denied"`
	Restored    int64 `json:"restored"`
	Resubmitted int64 `json:"resubmitted"`
	JournalErrs int64 `json:"journal_errors"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`

	WorkerRestarts int64 `json:"worker_restarts"`

	Latency HistSnapshot `json:"latency_ns"`
	RunTime HistSnapshot `json:"run_ns"`
}

// AnalyzeService extracts the service digest from a snapshot. ok is
// false when the snapshot holds no jobs.* signal at all (the collector
// never served jobs).
func AnalyzeService(s Snapshot) (h ServiceHealth, ok bool) {
	h = ServiceHealth{
		QueueDepth:     s.Gauges["jobs.queue.depth"],
		QueueCap:       s.Gauges["jobs.queue.cap"],
		Running:        s.Gauges["jobs.running"],
		Workers:        s.Gauges["jobs.workers"],
		Submitted:      s.Counters["jobs.submitted"],
		Shed:           s.Counters["jobs.shed"],
		QuotaDenied:    s.Counters["jobs.quota_denied"],
		Restored:       s.Counters["jobs.restored"],
		Resubmitted:    s.Counters["jobs.resubmitted"],
		JournalErrs:    s.Counters["jobs.journal.errors"],
		Done:           s.Counters["jobs.done"],
		Failed:         s.Counters["jobs.failed"],
		Canceled:       s.Counters["jobs.canceled"],
		WorkerRestarts: s.Counters["jobs.worker.restarts"],
		Latency:        s.Histograms["jobs.latency_ns"],
		RunTime:        s.Histograms["jobs.run_ns"],
	}
	ok = h.QueueCap > 0 || h.Workers > 0 || h.Submitted > 0 || h.Shed > 0
	return h, ok
}

// QueueFill is the admission-queue occupancy in [0,1] (0 when the cap
// is unknown).
func (h ServiceHealth) QueueFill() float64 {
	if h.QueueCap <= 0 {
		return 0
	}
	return float64(h.QueueDepth) / float64(h.QueueCap)
}

// ShedRate is the fraction of submission attempts refused by admission
// control.
func (h ServiceHealth) ShedRate() float64 {
	attempts := h.Submitted + h.Shed
	if attempts == 0 {
		return 0
	}
	return float64(h.Shed) / float64(attempts)
}

// Finished is the number of jobs that reached a terminal state.
func (h ServiceHealth) Finished() int64 { return h.Done + h.Failed + h.Canceled }

// Pending is the number of admitted jobs not yet terminal.
func (h ServiceHealth) Pending() int64 {
	if p := h.Submitted - h.Finished(); p > 0 {
		return p
	}
	return 0
}

// Degraded reports whether the service shows distress: load shedding,
// crashed workers, or failed journal writes (durability at risk).
func (h ServiceHealth) Degraded() bool {
	return h.Shed > 0 || h.WorkerRestarts > 0 || h.JournalErrs > 0
}
