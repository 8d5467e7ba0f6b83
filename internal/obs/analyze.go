package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Metric key grammar shared by the parrt patterns and this analyzer.
// Pattern names must not contain dots; the parrt constructors use
// plain identifiers ("video", "indexer") in practice.
//
//	pipeline.<name>.wall_ns                       counter
//	pipeline.<name>.queue_cap                     gauge
//	pipeline.<name>.reorder.pending               gauge
//	pipeline.<name>.reorder.held                  counter
//	pipeline.<name>.stage.<i>.service_ns          histogram
//	pipeline.<name>.stage.<i>.blocked_ns          counter
//	pipeline.<name>.stage.<i>.queue_sum           counter
//	pipeline.<name>.stage.<i>.replicas            gauge
//	pipeline.<name>.stage.<i>.label               label
//	masterworker.<name>.wall_ns                   counter
//	masterworker.<name>.tasks                     counter
//	masterworker.<name>.worker.<w>.items          counter
//	masterworker.<name>.worker.<w>.busy_ns        counter
//	masterworker.<name>.worker.<w>.idle_ns        counter
//	parallelfor.<name>.wall_ns                    counter
//	parallelfor.<name>.items                      counter
//	parallelfor.<name>.chunk_ns                   histogram
//	parallelfor.<name>.worker.<w>.busy_ns         counter
//
// Every pattern kind additionally publishes its fault-layer counters:
//
//	<kind>.<name>.faults.errors                   counter
//	<kind>.<name>.faults.retries                  counter
//	<kind>.<name>.faults.timeouts                 counter
//	<kind>.<name>.faults.drained                  counter
const (
	KindPipeline     = "pipeline"
	KindMasterWorker = "masterworker"
	KindParallelFor  = "parallelfor"
)

// SaturationThreshold is the utilization above which a stage counts
// as saturated: adding capacity elsewhere cannot improve throughput.
const SaturationThreshold = 0.95

// StageMetrics summarizes one pipeline stage from a snapshot.
type StageMetrics struct {
	Index   int
	Name    string       // stage label, or "stage i" when unlabeled
	Service HistSnapshot // per-item service time (ns)
	// BlockedNs is time stage workers spent blocked pushing downstream
	// — back-pressure from the next stage or the reorder buffer.
	BlockedNs int64
	// Replicas is the stage's worker count during the run.
	Replicas int64
	// Utilization is busy time per worker lane over the wall time:
	// Service.Sum / (Replicas * WallNs). 1.0 means the stage computed
	// for the entire run — it bounds pipeline throughput.
	Utilization float64
	// QueueFill is the mean input-queue occupancy (observed at each
	// dequeue) divided by the queue capacity. High fill means the
	// stage is the consumer of a congested edge.
	QueueFill float64
}

// WorkerMetrics summarizes one master/worker or parallel-for worker.
type WorkerMetrics struct {
	Index  int
	Items  int64
	BusyNs int64
	IdleNs int64
}

// PatternAnalysis is the per-pattern-instance digest of a Snapshot:
// the inputs to the bottleneck table (internal/report).
type PatternAnalysis struct {
	Kind   string // KindPipeline, KindMasterWorker or KindParallelFor
	Name   string
	WallNs int64
	Items  int64

	Stages  []StageMetrics  // pipeline only, indexed by stage
	Workers []WorkerMetrics // masterworker / parallelfor only

	// BottleneckStage indexes the stage with the highest utilization
	// (-1 when there are no stages).
	BottleneckStage int
	// BottleneckUtil is that stage's utilization (or the busiest
	// worker's share of wall time for worker patterns).
	BottleneckUtil float64
	// QueuePressure is the highest mean queue fill across stages.
	QueuePressure float64
	// Imbalance is max/mean busy time across workers (worker
	// patterns) or across per-lane stage busy times (pipelines);
	// 1.0 is perfectly balanced, 0 means no signal.
	Imbalance float64

	// Reorder statistics (pipelines with order-preserving replicated
	// stages): peak held-back elements and total out-of-order holds.
	ReorderPending int64
	ReorderHeld    int64

	// ChunkNs is the chunk-latency distribution (parallelfor only).
	ChunkNs HistSnapshot

	// Fault-layer counters: items that exhausted their fault policy,
	// extra attempts made under RetryItem, per-item timeout expiries,
	// and items discarded during a cancel or fail-fast drain.
	FaultErrors   int64
	FaultRetries  int64
	FaultTimeouts int64
	FaultDrained  int64
}

// Faulted reports whether the run recorded any fault-layer activity;
// the bottleneck table prints the fault ledger of such runs.
func (a PatternAnalysis) Faulted() bool {
	return a.FaultErrors > 0 || a.FaultRetries > 0 || a.FaultTimeouts > 0 || a.FaultDrained > 0
}

// Bottleneck names the bottleneck: the top stage for pipelines, the
// busiest worker otherwise. Empty when the analysis has no signal.
func (a PatternAnalysis) Bottleneck() string {
	if a.BottleneckStage >= 0 && a.BottleneckStage < len(a.Stages) {
		return a.Stages[a.BottleneckStage].Name
	}
	if len(a.Workers) > 0 {
		busiest := 0
		for i, w := range a.Workers {
			if w.BusyNs > a.Workers[busiest].BusyNs {
				busiest = i
			}
		}
		return fmt.Sprintf("worker %d", a.Workers[busiest].Index)
	}
	return ""
}

// Saturated reports whether the bottleneck utilization exceeds
// SaturationThreshold.
func (a PatternAnalysis) Saturated() bool {
	return a.BottleneckUtil >= SaturationThreshold
}

// patternKey identifies one pattern instance while grouping keys.
type patternKey struct {
	kind, name string
}

// Analyze digests a snapshot into one PatternAnalysis per pattern
// instance found in it, sorted by kind then name. Keys that do not
// follow the metric grammar are ignored.
func Analyze(s Snapshot) []PatternAnalysis {
	groups := make(map[patternKey]*PatternAnalysis)
	get := func(kind, name string) *PatternAnalysis {
		k := patternKey{kind, name}
		a, ok := groups[k]
		if !ok {
			a = &PatternAnalysis{Kind: kind, Name: name, BottleneckStage: -1}
			groups[k] = a
		}
		return a
	}
	stage := func(a *PatternAnalysis, i int) *StageMetrics {
		for len(a.Stages) <= i {
			a.Stages = append(a.Stages, StageMetrics{
				Index: len(a.Stages),
				Name:  fmt.Sprintf("stage %d", len(a.Stages)),
			})
		}
		return &a.Stages[i]
	}
	worker := func(a *PatternAnalysis, w int) *WorkerMetrics {
		for len(a.Workers) <= w {
			a.Workers = append(a.Workers, WorkerMetrics{Index: len(a.Workers)})
		}
		return &a.Workers[w]
	}

	queueSums := make(map[patternKey]map[int]int64)

	visit := func(key string, apply func(a *PatternAnalysis, sub []string)) {
		parts := strings.Split(key, ".")
		if len(parts) < 3 {
			return
		}
		kind := parts[0]
		if kind != KindPipeline && kind != KindMasterWorker && kind != KindParallelFor {
			return
		}
		apply(get(kind, parts[1]), parts[2:])
	}

	for key, v := range s.Counters {
		v := v
		visit(key, func(a *PatternAnalysis, sub []string) {
			switch {
			case len(sub) == 1 && sub[0] == "wall_ns":
				a.WallNs = v
			case len(sub) == 1 && (sub[0] == "items" || sub[0] == "tasks"):
				a.Items = v
			case len(sub) == 2 && sub[0] == "reorder" && sub[1] == "held":
				a.ReorderHeld = v
			case len(sub) == 2 && sub[0] == "faults":
				switch sub[1] {
				case "errors":
					a.FaultErrors = v
				case "retries":
					a.FaultRetries = v
				case "timeouts":
					a.FaultTimeouts = v
				case "drained":
					a.FaultDrained = v
				}
			case len(sub) == 3 && sub[0] == "stage":
				i, err := strconv.Atoi(sub[1])
				if err != nil || i < 0 {
					return
				}
				switch sub[2] {
				case "blocked_ns":
					stage(a, i).BlockedNs = v
				case "queue_sum":
					m := queueSums[patternKey{a.Kind, a.Name}]
					if m == nil {
						m = make(map[int]int64)
						queueSums[patternKey{a.Kind, a.Name}] = m
					}
					m[i] = v
					stage(a, i) // make sure the stage exists
				}
			case len(sub) == 3 && sub[0] == "worker":
				w, err := strconv.Atoi(sub[1])
				if err != nil || w < 0 {
					return
				}
				switch sub[2] {
				case "items":
					worker(a, w).Items = v
				case "busy_ns":
					worker(a, w).BusyNs = v
				case "idle_ns":
					worker(a, w).IdleNs = v
				}
			}
		})
	}
	queueCaps := make(map[patternKey]int64)
	for key, v := range s.Gauges {
		v := v
		visit(key, func(a *PatternAnalysis, sub []string) {
			switch {
			case len(sub) == 1 && sub[0] == "queue_cap":
				queueCaps[patternKey{a.Kind, a.Name}] = v
			case len(sub) == 2 && sub[0] == "reorder" && sub[1] == "pending":
				a.ReorderPending = v
			case len(sub) == 3 && sub[0] == "stage" && sub[2] == "replicas":
				if i, err := strconv.Atoi(sub[1]); err == nil && i >= 0 {
					stage(a, i).Replicas = v
				}
			}
		})
	}
	for key, h := range s.Histograms {
		h := h
		visit(key, func(a *PatternAnalysis, sub []string) {
			switch {
			case len(sub) == 1 && sub[0] == "chunk_ns":
				a.ChunkNs = h
			case len(sub) == 3 && sub[0] == "stage" && sub[2] == "service_ns":
				if i, err := strconv.Atoi(sub[1]); err == nil && i >= 0 {
					stage(a, i).Service = h
				}
			}
		})
	}
	for key, label := range s.Labels {
		label := label
		visit(key, func(a *PatternAnalysis, sub []string) {
			if len(sub) == 3 && sub[0] == "stage" && sub[2] == "label" {
				if i, err := strconv.Atoi(sub[1]); err == nil && i >= 0 && label != "" {
					stage(a, i).Name = label
				}
			}
		})
	}

	out := make([]PatternAnalysis, 0, len(groups))
	for k, a := range groups {
		finalize(a, queueSums[k], queueCaps[k])
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// finalize computes the derived ratios once all raw values are in.
func finalize(a *PatternAnalysis, queueSums map[int]int64, queueCap int64) {
	wall := float64(a.WallNs)
	for i := range a.Stages {
		st := &a.Stages[i]
		lanes := st.Replicas
		if lanes < 1 {
			lanes = 1
			st.Replicas = 1
		}
		if wall > 0 {
			st.Utilization = float64(st.Service.Sum) / (float64(lanes) * wall)
			if st.Utilization > 1 {
				st.Utilization = 1
			}
		}
		if queueCap > 0 && st.Service.Count > 0 {
			st.QueueFill = float64(queueSums[i]) / float64(st.Service.Count) / float64(queueCap)
			if st.QueueFill > 1 {
				st.QueueFill = 1
			}
		}
		if st.Utilization > a.BottleneckUtil {
			a.BottleneckUtil = st.Utilization
			a.BottleneckStage = i
		}
		if st.QueueFill > a.QueuePressure {
			a.QueuePressure = st.QueueFill
		}
	}
	if len(a.Stages) > 0 {
		if a.BottleneckStage < 0 {
			a.BottleneckStage = 0
		}
		a.Imbalance = imbalance(a.Stages, func(s StageMetrics) int64 {
			return s.Service.Sum / s.Replicas
		})
		if a.Items == 0 {
			a.Items = a.Stages[0].Service.Count
		}
	}
	if len(a.Workers) > 0 {
		a.Imbalance = imbalance(a.Workers, func(w WorkerMetrics) int64 { return w.BusyNs })
		if wall > 0 {
			var maxBusy int64
			for _, w := range a.Workers {
				if w.BusyNs > maxBusy {
					maxBusy = w.BusyNs
				}
			}
			u := float64(maxBusy) / wall
			if u > 1 {
				u = 1
			}
			if u > a.BottleneckUtil {
				a.BottleneckUtil = u
			}
		}
	}
	if a.Items == 0 && a.ChunkNs.Count > 0 {
		a.Items = a.ChunkNs.Count
	}
}

// imbalance returns max/mean of the extracted values, or 0 when the
// mean is zero.
func imbalance[T any](xs []T, f func(T) int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, max int64
	for _, x := range xs {
		v := f(x)
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(xs))
	return float64(max) / mean
}
