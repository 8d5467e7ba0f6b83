package report

import (
	"fmt"
	"strings"

	"patty/internal/obs"
)

// ServiceTable renders the jobs-layer digest (obs.AnalyzeService) the
// way BottleneckTable renders the pattern layer: one queue/worker
// summary line, the job ledger, end-to-end latency quantiles, and —
// only when present — the distress signals (shed load, worker
// restarts, journal write errors). It backs the /statusz page of `patty serve`.
func ServiceTable(h obs.ServiceHealth) string {
	var b strings.Builder
	b.WriteString("=== job service (from internal/obs jobs.* keys) ===\n")
	fmt.Fprintf(&b, "queue   %d/%d (%.0f%% full)   workers %d (%d running)\n",
		h.QueueDepth, h.QueueCap, 100*h.QueueFill(), h.Workers, h.Running)
	fmt.Fprintf(&b, "jobs    submitted %d, done %d, failed %d, canceled %d, pending %d\n",
		h.Submitted, h.Done, h.Failed, h.Canceled, h.Pending())
	if h.Latency.Count > 0 {
		fmt.Fprintf(&b, "latency p50 %.1f ms, p95 %.1f ms, max %.1f ms (submit->finish, %d jobs)\n",
			h.Latency.Quantile(0.5)/1e6, h.Latency.Quantile(0.95)/1e6,
			float64(h.Latency.Max)/1e6, h.Latency.Count)
	}
	if h.Degraded() {
		b.WriteString("distress:\n")
		if h.Shed > 0 {
			fmt.Fprintf(&b, "   shed %d submission(s) (%.0f%% of attempts) — queue overloaded\n",
				h.Shed, 100*h.ShedRate())
		}
		if h.WorkerRestarts > 0 {
			fmt.Fprintf(&b, "   %d worker restart(s) after job panics\n", h.WorkerRestarts)
		}
		if h.JournalErrs > 0 {
			fmt.Fprintf(&b, "   %d journal write error(s) — durability at risk\n", h.JournalErrs)
		}
	} else {
		b.WriteString("no distress: nothing shed, no worker crashes\n")
	}
	return b.String()
}
