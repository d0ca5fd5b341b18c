package server

import (
	"fmt"
	"strings"
)

// Multi-tenant QoS: every job belongs to a tenant (the X-Tenant request
// header; DefaultTenant when absent). The job manager keeps one FIFO
// queue per tenant and drains them by weighted fair share — see
// jobManager.pickLocked and grantLocked in jobs.go — while per-tenant
// quotas (max queued, max running) bound how much of the service one
// tenant can occupy. A submit beyond the tenant's queued quota is shed
// with 429 + Retry-After; the global QueueDepth bound still answers 503,
// as before, since it signals service saturation rather than one
// tenant's.

// DefaultTenant is the tenant of requests that carry no X-Tenant header.
const DefaultTenant = "default"

// tenantHeader carries the caller's tenant on every request.
const tenantHeader = "X-Tenant"

// maxTenantName bounds tenant identifiers; they key maps and appear in
// metrics, so they must not grow with request variety.
const maxTenantName = 64

// validTenant reports whether a tenant identifier is acceptable:
// non-empty, bounded, and drawn from [A-Za-z0-9._-].
func validTenant(name string) bool {
	if name == "" || len(name) > maxTenantName {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// tenantState is one tenant's slice of the scheduler: its FIFO of queued
// jobs, its running count, its fair-share weight, and the admission
// counters surfaced on /metrics.
type tenantState struct {
	name   string
	weight int
	queue  []*job
	// running counts this tenant's jobs currently occupying a worker.
	running int
	// lastPick is the scheduler tick of the tenant's most recent drain —
	// the round-robin tie-break between tenants with equal fair-share
	// deficit.
	lastPick int64
	// admitted / finished / shed are lifetime counters: jobs accepted into
	// the queue, jobs that reached a terminal state, and submits rejected
	// by the tenant's queued quota.
	admitted int64
	finished int64
	shed     int64
}

// errQuotaExceeded rejects a submit that crossed its tenant's queued
// quota. RetryAfter is the estimated seconds until the tenant's queue
// drains one slot — the Retry-After response header.
type errQuotaExceeded struct {
	tenant     string
	maxQueued  int
	retryAfter int
}

func (e errQuotaExceeded) Error() string {
	return fmt.Sprintf("tenant %q has %d queued jobs (the quota); retry later", e.tenant, e.maxQueued)
}

// qosOptions carries the tenant-layer configuration into the job
// manager.
type qosOptions struct {
	// maxQueued caps one tenant's queued jobs (429 beyond it).
	maxQueued int
	// maxRunning caps one tenant's concurrently running jobs; 0 leaves
	// tenants bounded only by the worker pool.
	maxRunning int
	// weights are the fair-share weights; tenants not listed weigh 1.
	weights map[string]int
}

// weightOf returns the configured weight of a tenant (minimum 1).
func (q qosOptions) weightOf(name string) int {
	if w, ok := q.weights[name]; ok && w > 0 {
		return w
	}
	return 1
}

// tenantLocked returns (creating on first use) the tenant's scheduler
// state. Caller holds m.mu.
func (m *jobManager) tenantLocked(name string) *tenantState {
	if t, ok := m.tenants[name]; ok {
		return t
	}
	t := &tenantState{name: name, weight: m.qos.weightOf(name)}
	m.tenants[name] = t
	m.tenantOrder = append(m.tenantOrder, name)
	return t
}

// pickLocked chooses the tenant to drain next: among tenants with queued
// work and headroom under their running cap, the one with the lowest
// running/weight ratio (compared cross-multiplied, so weights are exact),
// breaking ties toward the least recently drained. Nil when no tenant is
// pickable. Caller holds m.mu.
func (m *jobManager) pickLocked() *tenantState {
	var best *tenantState
	for _, name := range m.tenantOrder {
		t := m.tenants[name]
		if len(t.queue) == 0 {
			continue
		}
		if m.qos.maxRunning > 0 && t.running >= m.qos.maxRunning {
			continue
		}
		if best == nil {
			best = t
			continue
		}
		lhs, rhs := t.running*best.weight, best.running*t.weight
		if lhs < rhs || (lhs == rhs && t.lastPick < best.lastPick) {
			best = t
		}
	}
	return best
}

// grantLocked computes a job's worker grant under weighted fair share:
// the worker budget splits over the tenants currently running jobs in
// proportion to their weights, and a tenant's share splits evenly over
// its running jobs. Every running job gets at least one worker, and no
// job more than it requested; requested <= 0 (a job that left workers
// unset) requests the whole budget, so it runs on its fair share.
// Caller holds m.mu and t.running counts the job being granted.
func (m *jobManager) grantLocked(t *tenantState, requested int) int {
	if requested <= 0 {
		requested = m.budgetTotal
	}
	sumW := 0
	for _, name := range m.tenantOrder {
		if u := m.tenants[name]; u.running > 0 {
			sumW += u.weight
		}
	}
	if sumW == 0 {
		sumW = t.weight
	}
	running := t.running
	if running < 1 {
		running = 1
	}
	per := m.budgetTotal * t.weight / sumW / running
	if per < 1 {
		per = 1
	}
	if requested < per {
		return requested
	}
	return per
}

// grantFor is the renegotiation entry point the miner calls between
// levels (through Options.WorkersFunc): it recomputes the job's fair
// share against the tenants running right now, so a newly-arrived
// tenant's first job shrinks an incumbent's parallelism at its next
// level boundary instead of waiting for the whole run to end.
func (m *jobManager) grantFor(tenant string, requested int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[tenant]
	if !ok {
		return requested
	}
	return m.grantLocked(t, requested)
}

// retryAfterLocked estimates the seconds until tenant t's queue drains
// one slot: queued jobs times the observed average job duration, divided
// by the worker pool, clamped to [1, 300]. Deliberately rough — it is a
// politeness hint, not a guarantee. Caller holds m.mu.
func (m *jobManager) retryAfterLocked(t *tenantState) int {
	avg := m.avgJobMillis
	if avg <= 0 {
		avg = 1000
	}
	workers := m.workerCount
	if workers < 1 {
		workers = 1
	}
	queued := int64(len(t.queue))
	if queued < 1 {
		queued = 1
	}
	secs := int((queued*avg/int64(workers) + 999) / 1000)
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// noteJobDurationLocked folds one finished mining run into the EWMA the
// Retry-After estimate reads. Caller holds m.mu.
func (m *jobManager) noteJobDurationLocked(millis int64) {
	if millis < 1 {
		millis = 1
	}
	if m.avgJobMillis == 0 {
		m.avgJobMillis = millis
		return
	}
	m.avgJobMillis = (3*m.avgJobMillis + millis) / 4
}

// tenantOf extracts and validates the request tenant; ok is false when
// the header is present but malformed.
func tenantOf(header string) (tenant string, ok bool) {
	name := strings.TrimSpace(header)
	if name == "" {
		return DefaultTenant, true
	}
	if !validTenant(name) {
		return "", false
	}
	return name, true
}
