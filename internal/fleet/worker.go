package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"patty/internal/evalcache"
	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/report"
	"patty/internal/tuning"
)

// Worker serves shard evaluations: the `patty worker` process body.
// Every shard request is admitted through a jobs.Service (bounded
// queue, load shedding, supervised pool) and evaluated configuration
// by configuration. When a Cache is attached, every configuration is
// looked up in — and every fresh measurement journaled into — the
// persistent content-addressed store, so a worker restarted after a
// crash (or serving a resubmitted program, from any search) answers
// already-measured costs instead of re-running them. Hits and inserts
// count in the shared cache.* grammar, the same keys local tuning
// publishes.
type Worker struct {
	svc          *jobs.Service
	newObjective func(spec json.RawMessage) (tuning.Objective, error)
	cache        *evalcache.Store
	maxBody      int64

	// intake is the admission breaker: sheds trip it and its remaining
	// cooldown becomes the 503 Retry-After value.
	intake *jobs.Breaker

	shards  *obs.Counter
	evals   *obs.Counter
	statusz func() obs.Snapshot
}

// NewWorker wires a Worker onto an admission service. newObjective
// reconstructs the objective from the opaque per-shard spec; cache nil
// disables evaluation caching; c receives the fleet.worker.* metrics
// (nil: discarded).
func NewWorker(svc *jobs.Service, newObjective func(json.RawMessage) (tuning.Objective, error), cache *evalcache.Store, c *obs.Collector) *Worker {
	return &Worker{
		svc:          svc,
		newObjective: newObjective,
		cache:        cache,
		maxBody:      MaxBodyBytes,
		intake:       jobs.NewBreaker(3, time.Second),
		shards:       c.Counter("fleet.worker.shards"),
		evals:        c.Counter("fleet.worker.evals"),
		statusz:      c.Snapshot,
	}
}

// evaluate runs one shard through the evaluation step, honoring
// cancellation between configurations.
func (wk *Worker) evaluate(ctx context.Context, req ShardRequest) (*ShardResponse, error) {
	obj, err := wk.newObjective(req.Spec)
	if err != nil {
		return nil, fmt.Errorf("bad shard spec: %w", err)
	}
	measure := func(a map[string]int) float64 {
		wk.evals.Inc()
		return obj(a)
	}
	step := tuning.Step{Cache: wk.cache, Program: req.Program, Seed: req.Seed}
	resp := &ShardResponse{Shard: req.Shard, Evals: make([]tuning.EvalRecord, 0, len(req.Configs))}
	for _, a := range req.Configs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp.Evals = append(resp.Evals, step.Eval(a, measure))
	}
	wk.shards.Inc()
	return resp, nil
}

// handleShard is POST /shards: hardened intake, admission through the
// jobs service, synchronous answer. A shed submission answers 503 with
// the intake breaker's remaining cooldown as Retry-After.
func (wk *Worker) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if !DecodeJSON(w, r, wk.maxBody, &req) {
		return
	}
	if len(req.Configs) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("shard carries no configurations"))
		return
	}
	if req.Program == "" {
		WriteError(w, http.StatusBadRequest, errors.New("shard carries no program address"))
		return
	}
	id, err := wk.svc.Submit("shard", func(ctx context.Context) (any, error) {
		return wk.evaluate(ctx, req)
	})
	if errors.Is(err, jobs.ErrOverloaded) || errors.Is(err, jobs.ErrDraining) {
		w.Header().Set("Retry-After", fmt.Sprint(jobs.ShedRetryAfter(wk.intake)))
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	wk.intake.Record(jobs.IntakeKey, false)
	if _, err := wk.svc.Wait(r.Context(), id); err != nil {
		// The coordinator went away; stop burning the evaluation.
		wk.svc.Cancel(id)
		WriteError(w, http.StatusRequestTimeout, err)
		return
	}
	res, info, err := wk.svc.Result(id)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if info.Status != jobs.StatusDone {
		WriteError(w, http.StatusInternalServerError,
			fmt.Errorf("shard job %s: %s", info.Status, info.Error))
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

// Mux returns the worker's HTTP surface: POST /shards plus the same
// health/status endpoints `patty serve` exposes.
func (wk *Worker) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shards", wk.handleShard)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if wk.svc.Draining() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		snap := wk.statusz()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if h, ok := obs.AnalyzeService(snap); ok {
			fmt.Fprint(w, report.ServiceTable(h))
		}
		if fh, ok := obs.AnalyzeFleet(snap); ok {
			fmt.Fprint(w, report.FleetTable(fh))
		}
		if ch, ok := obs.AnalyzeCache(snap); ok {
			fmt.Fprint(w, report.CacheTable(ch))
		}
	})
	mux.HandleFunc("GET /metricz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, wk.statusz())
	})
	return mux
}
