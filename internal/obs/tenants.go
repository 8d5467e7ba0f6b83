package obs

import (
	"sort"
	"strings"
)

// Tenant-layer metric key grammar, published by internal/jobs for each
// tenant id (sanitized to [A-Za-z0-9._-]):
//
//	jobs.tenant.<id>.submitted   counter  (admitted jobs)
//	jobs.tenant.<id>.done        counter
//	jobs.tenant.<id>.failed      counter
//	jobs.tenant.<id>.canceled    counter
//	jobs.tenant.<id>.shed        counter  (refused: shared queue full)
//	jobs.tenant.<id>.quota       counter  (refused: token bucket empty)
//	jobs.tenant.<id>.queued      gauge    (jobs waiting in this tenant's FIFO)
//	jobs.tenant.<id>.latency_ns  histogram (submit -> terminal)

// tenantPrefix roots the per-tenant key space.
const tenantPrefix = "jobs.tenant."

// TenantHealth is the digest of one tenant's jobs.tenant.<id>.* keys.
type TenantHealth struct {
	Tenant string `json:"tenant"`

	Submitted   int64 `json:"submitted"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`
	Shed        int64 `json:"shed"`
	QuotaDenied int64 `json:"quota_denied"`
	Queued      int64 `json:"queued"`

	Latency HistSnapshot `json:"latency_ns"`
}

// Goodput is the tenant's count of successfully completed jobs — the
// quantity the fairness gate compares across tenants.
func (t TenantHealth) Goodput() int64 { return t.Done }

// RefusalRate is the fraction of this tenant's submission attempts
// refused by either admission path (quota or shed).
func (t TenantHealth) RefusalRate() float64 {
	attempts := t.Submitted + t.Shed + t.QuotaDenied
	if attempts == 0 {
		return 0
	}
	return float64(t.Shed+t.QuotaDenied) / float64(attempts)
}

// AnalyzeTenants extracts the per-tenant digests from a snapshot,
// sorted by tenant id. Tenant ids may themselves contain dots, so keys
// parse from the right: the segment after the last dot is the field,
// everything between the prefix and it is the id.
func AnalyzeTenants(s Snapshot) []TenantHealth {
	byID := make(map[string]*TenantHealth)
	get := func(key string) (*TenantHealth, string) {
		rest := strings.TrimPrefix(key, tenantPrefix)
		cut := strings.LastIndexByte(rest, '.')
		if cut <= 0 || cut == len(rest)-1 {
			return nil, ""
		}
		id, field := rest[:cut], rest[cut+1:]
		th := byID[id]
		if th == nil {
			th = &TenantHealth{Tenant: id}
			byID[id] = th
		}
		return th, field
	}
	for key, v := range s.Counters {
		if !strings.HasPrefix(key, tenantPrefix) {
			continue
		}
		th, field := get(key)
		if th == nil {
			continue
		}
		switch field {
		case "submitted":
			th.Submitted = v
		case "done":
			th.Done = v
		case "failed":
			th.Failed = v
		case "canceled":
			th.Canceled = v
		case "shed":
			th.Shed = v
		case "quota":
			th.QuotaDenied = v
		}
	}
	for key, v := range s.Gauges {
		if !strings.HasPrefix(key, tenantPrefix) {
			continue
		}
		if th, field := get(key); th != nil && field == "queued" {
			th.Queued = v
		}
	}
	for key, h := range s.Histograms {
		if !strings.HasPrefix(key, tenantPrefix) {
			continue
		}
		// The histogram field is "latency_ns": strip it as one suffix
		// (LastIndexByte would split inside "latency_ns" at no dot).
		if id, ok := strings.CutSuffix(strings.TrimPrefix(key, tenantPrefix), ".latency_ns"); ok && id != "" {
			th := byID[id]
			if th == nil {
				th = &TenantHealth{Tenant: id}
				byID[id] = th
			}
			th.Latency = h
		}
	}
	out := make([]TenantHealth, 0, len(byID))
	for _, th := range byID {
		out = append(out, *th)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Tenant < out[k].Tenant })
	return out
}

// FairnessRatio is the max/min goodput across tenants that completed
// at least one job — 1.0 is perfect fairness, and
// TestServeTenantFairnessUnderHog (cmd/patty) requires <= 2.0 when one
// tenant offers 5x the others' load at equal weights.
// Returns 0 when fewer than two tenants have goodput.
func FairnessRatio(ths []TenantHealth) float64 {
	var min, max int64 = -1, 0
	n := 0
	for _, th := range ths {
		g := th.Goodput()
		if g <= 0 {
			continue
		}
		n++
		if min < 0 || g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	if n < 2 || min <= 0 {
		return 0
	}
	return float64(max) / float64(min)
}
