package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"patty/internal/jobs"
	"patty/internal/obs"
	"patty/internal/ptest"
	"patty/internal/store"
)

// newTestServer wires a server onto httptest with a tiny queue so
// overload is easy to provoke. Cleanups run LIFO: the leak check is
// registered first so it runs last, after the server and service have
// shut down and the shared client has dropped its keep-alive conns.
func newTestServer(t *testing.T, opts jobs.Options) (*server, *httptest.Server) {
	t.Helper()
	t.Cleanup(ptest.NoLeaks(t))
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	if opts.Collector == nil {
		opts.Collector = obs.New()
	}
	svc := jobs.New(opts)
	srv := newServer(svc, "")
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return srv, ts
}

func TestServeSubmitStatusResult(t *testing.T) {
	_, ts := newTestServer(t, jobs.Options{Workers: 1})
	id, code := postJob(t, ts.URL, `{"kind":"tune","algo":"linear","budget":30}`)
	if code != http.StatusAccepted || id == "" {
		t.Fatalf("submit: HTTP %d id=%q", code, id)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	var info jobs.Info
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.Status != jobs.StatusDone {
		t.Fatalf("job info: %+v", info)
	}
	rr, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res struct{ Result tuneOutcome }
	json.NewDecoder(rr.Body).Decode(&res)
	rr.Body.Close()
	if res.Result.Best == nil || res.Result.Evaluations == 0 {
		t.Fatalf("result: %+v", res.Result)
	}
	// Unknown id and bad kind map to 404 / 400.
	r404, err := http.Get(ts.URL + "/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", r404.StatusCode)
	}
	if _, code := postJob(t, ts.URL, `{"kind":"bogus"}`); code != http.StatusBadRequest {
		t.Fatalf("bad kind: HTTP %d", code)
	}
}

func TestServeOverloadSheds503(t *testing.T) {
	_, ts := newTestServer(t, jobs.Options{Workers: 1, QueueDepth: 1})
	// A slow fuzz job occupies the worker, a second fills the queue.
	slow := `{"kind":"fuzz","seed":9,"n":500,"configs":1}`
	if _, code := postJob(t, ts.URL, slow); code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}
	// Wait for the worker to pick up the first job so the queue empties.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var list []jobs.Info
		r, err := http.Get(ts.URL + "/jobs")
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(r.Body).Decode(&list)
		r.Body.Close()
		if len(list) > 0 && list[len(list)-1].Status == jobs.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, code := postJob(t, ts.URL, slow); code != http.StatusAccepted {
		t.Fatalf("queued submit: HTTP %d", code)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
}

func TestServeCancelAndHealth(t *testing.T) {
	srv, ts := newTestServer(t, jobs.Options{Workers: 1})
	id, _ := postJob(t, ts.URL, `{"kind":"fuzz","seed":3,"n":500,"configs":1}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	info, err := srv.svc.Wait(ctx, id)
	if err != nil || info.Status != jobs.StatusCanceled {
		t.Fatalf("canceled job: %+v err=%v", info, err)
	}

	for _, ep := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(ts.URL + ep)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("%s: %v %v", ep, err, r)
		}
		r.Body.Close()
	}
	// Draining flips readyz to 503.
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := srv.svc.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: HTTP %d, want 503", r.StatusCode)
	}
	// Submissions during drain shed with 503 too.
	if _, code := postJob(t, ts.URL, `{"kind":"study"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("drain submit: HTTP %d, want 503", code)
	}
}

// TestServeQuota429AndTenantFilter covers the tenant intake: a tenant
// over its token-bucket quota gets 429 + Retry-After (not the 503 the
// overload shed uses), other tenants are unaffected, and /jobs?tenant=
// filters the ledger.
func TestServeQuota429AndTenantFilter(t *testing.T) {
	_, ts := newTestServer(t, jobs.Options{
		Workers: 1, TenantRate: 0.001, TenantBurst: 1,
	})
	id, code := postJobTenant(t, ts.URL, "greedy", `{"kind":"bench","sleep_ms":1}`)
	if code != http.StatusAccepted || id == "" {
		t.Fatalf("first submit: HTTP %d id=%q", code, id)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs",
		strings.NewReader(`{"kind":"bench","sleep_ms":1}`))
	req.Header.Set("X-Tenant", "greedy")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	// Another tenant has its own bucket.
	if _, code := postJobTenant(t, ts.URL, "modest", `{"kind":"bench","sleep_ms":1}`); code != http.StatusAccepted {
		t.Fatalf("other tenant: HTTP %d", code)
	}
	// A tenant id the header charset rejects is a 400, not a shed.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/jobs",
		strings.NewReader(`{"kind":"bench","sleep_ms":1}`))
	req.Header.Set("X-Tenant", "no spaces allowed")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tenant id: HTTP %d, want 400", resp.StatusCode)
	}

	var list []jobs.Info
	r, err := http.Get(ts.URL + "/jobs?tenant=greedy")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r.Body).Decode(&list)
	r.Body.Close()
	if len(list) != 1 || list[0].ID != id || list[0].Tenant != "greedy" {
		t.Fatalf("?tenant=greedy: %+v", list)
	}
	// A tenant with no jobs filters to an empty JSON array, not null.
	r, err = http.Get(ts.URL + "/jobs?tenant=nobody")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 16)
	n, _ := r.Body.Read(body)
	r.Body.Close()
	if got := strings.TrimSpace(string(body[:n])); got != "[]" {
		t.Fatalf("empty filter body = %q, want []", got)
	}
}

// TestServeTenantFairnessUnderHog is the fair-share gate: three
// tenants with two closed-loop clients each and one hog tenant with ten
// share four workers at equal weights, and the server's own per-tenant
// goodput (obs.FairnessRatio) must stay within maxFairness. Every
// tenant must finish at least one job, or the ratio is unmeasurable.
//
// Jobs sleep 20 ms so that a client's turnaround (the result, then the
// next submit) stays shorter than a job even under -race on a busy
// host. Otherwise a small tenant's queue runs dry between jobs, the
// work-conserving dispatcher rightly hands its share to the hog, and
// the ratio measures the host rather than the dispatcher.
func TestServeTenantFairnessUnderHog(t *testing.T) {
	const maxFairness = 2.0
	collector := obs.New()
	_, ts := newTestServer(t, jobs.Options{
		Workers: 4, QueueDepth: 64, Collector: collector,
		TenantRate: 300, TenantBurst: 16,
	})
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer hc.CloseIdleConnections()

	clients := map[string]int{"t1": 2, "t2": 2, "t3": 2, "hog": 10}
	ctx, cancel := context.WithTimeout(context.Background(), 800*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	var n int64
	for tenant, k := range clients {
		for c := 0; c < k; c++ {
			n++
			wg.Add(1)
			go func(tenant string, rng *rand.Rand) {
				defer wg.Done()
				if err := closedLoopClient(ctx, hc, ts.URL, tenant, rng); err != nil {
					t.Error(err)
				}
			}(tenant, rand.New(rand.NewSource(n)))
		}
	}
	wg.Wait()

	ths := obs.AnalyzeTenants(collector.Snapshot())
	for _, th := range ths {
		t.Logf("%-4s %2d client(s): %d done, %d x 429, %d x 503",
			th.Tenant, clients[th.Tenant], th.Done, th.QuotaDenied, th.Shed)
	}
	if len(ths) != len(clients) {
		t.Fatalf("%d tenant(s) reported, want %d", len(ths), len(clients))
	}
	for _, th := range ths {
		if th.Goodput() == 0 {
			t.Fatalf("fairness unmeasurable: tenant %s finished zero jobs", th.Tenant)
		}
	}
	ratio := obs.FairnessRatio(ths)
	t.Logf("max/min tenant goodput %.2f", ratio)
	if ratio == 0 || ratio > maxFairness {
		t.Fatalf("max/min tenant goodput %.2f, gate (0, %.1f]", ratio, maxFairness)
	}
}

// closedLoopClient submits 20 ms bench jobs as tenant and waits for
// each to finish, until ctx ends. A 429 or 503 backs off a few
// jittered milliseconds: the advertised Retry-After is whole seconds,
// far longer than the run.
func closedLoopClient(ctx context.Context, hc *http.Client, base, tenant string, rng *rand.Rand) error {
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs",
			strings.NewReader(`{"kind":"bench","sleep_ms":20}`))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := hc.Do(req)
		if err != nil {
			return nil // the deadline hit mid-request
		}
		var out struct{ ID string }
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			wreq, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+out.ID+"?wait=1", nil)
			if err != nil {
				return err
			}
			wresp, err := hc.Do(wreq)
			if err != nil {
				return nil
			}
			wresp.Body.Close()
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			select {
			case <-ctx.Done():
			case <-time.After(time.Duration(1+rng.Intn(5)) * time.Millisecond):
			}
		default:
			return fmt.Errorf("tenant %s submit: HTTP %d", tenant, resp.StatusCode)
		}
	}
	return nil
}

// TestServeStoreRecoveryInProcess is the unit-level half of the chaos
// gate: a journaled service is torn down (no crash needed — Close is
// just the easy way to stop writing), its store reopened, and the
// recovered service must list the finished job with its tenant and
// result while new submissions continue above the old seq ceiling.
func TestServeStoreRecoveryInProcess(t *testing.T) {
	t.Cleanup(ptest.NoLeaks(t))
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := jobs.New(jobs.Options{Workers: 1, Collector: obs.New(), Journal: st})
	srv := newServer(svc, "")
	ts := httptest.NewServer(srv.mux())
	id, code := postJobTenant(t, ts.URL, "acme", `{"kind":"bench","sleep_ms":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	r, err := http.Get(ts.URL + "/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	ts.Close()
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2 := jobs.New(jobs.Options{Workers: 1, Collector: obs.New(), Journal: st2})
	defer svc2.Close()
	srv2 := newServer(svc2, "")
	restored, resumed := recoverJobs(svc2, srv2, st2)
	if restored != 1 || resumed != 0 {
		t.Fatalf("recovered (%d, %d), want (1, 0)", restored, resumed)
	}
	infos := svc2.Jobs()
	if len(infos) != 1 || infos[0].ID != id || infos[0].Status != jobs.StatusDone ||
		infos[0].Tenant != "acme" {
		t.Fatalf("recovered ledger: %+v", infos)
	}
	ts2 := httptest.NewServer(srv2.mux())
	defer ts2.Close()
	id2, code := postJobTenant(t, ts2.URL, "acme", `{"kind":"bench","sleep_ms":1}`)
	if code != http.StatusAccepted || id2 == id {
		t.Fatalf("post-recovery submit: HTTP %d id=%q (old id %q)", code, id2, id)
	}
	r, err = http.Get(ts2.URL + "/jobs/" + id2 + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
}

func TestServeStatuszAndMetricz(t *testing.T) {
	c := obs.New()
	_, ts := newTestServer(t, jobs.Options{Workers: 1, Collector: c})
	old := metrics
	metrics = c
	defer func() { metrics = old }()

	id, _ := postJob(t, ts.URL, `{"kind":"study","seed":4713}`)
	r, err := http.Get(ts.URL + "/jobs/" + id + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	sr, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := sr.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	sr.Body.Close()
	if !strings.Contains(sb.String(), "job service") || !strings.Contains(sb.String(), "submitted 1") {
		t.Fatalf("statusz:\n%s", sb.String())
	}
	mr, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	json.NewDecoder(mr.Body).Decode(&snap)
	mr.Body.Close()
	if snap.Counters["jobs.submitted"] != 1 {
		t.Fatalf("metricz counters: %v", snap.Counters)
	}
}
