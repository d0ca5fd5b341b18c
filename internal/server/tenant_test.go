package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Tenant-layer tests: admission quotas (429 + Retry-After), weighted
// fair-share grants including mid-run rebalancing, scheduler pick order,
// and quota accounting surviving a crash-restart.

func TestTenantOfValidation(t *testing.T) {
	cases := []struct {
		header string
		want   string
		ok     bool
	}{
		{"", DefaultTenant, true},
		{"acme", "acme", true},
		{"  acme  ", "acme", true},
		{"Team.B_2-x", "Team.B_2-x", true},
		{"bad name", "", false},
		{"sneaky/tenant", "", false},
		{strings.Repeat("a", maxTenantName), strings.Repeat("a", maxTenantName), true},
		{strings.Repeat("a", maxTenantName+1), "", false},
	}
	for _, c := range cases {
		got, ok := tenantOf(c.header)
		if got != c.want || ok != c.ok {
			t.Errorf("tenantOf(%q) = %q, %v, want %q, %v", c.header, got, ok, c.want, c.ok)
		}
	}
}

func TestInvalidTenantHeaderRejected(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	body, _ := json.Marshal(MiningRequest{DatasetID: "ds-1", MinSupport: 0.5})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(tenantHeader, "not a tenant!")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || apiErr.Error.Code != codeInvalidArgument {
		t.Fatalf("invalid tenant header: status %d code %q, want 400 %q", resp.StatusCode, apiErr.Error.Code, codeInvalidArgument)
	}
}

// TestGrantMath pins the weighted fair-share arithmetic with a fixed
// budget, independent of the machine's GOMAXPROCS.
func TestGrantMath(t *testing.T) {
	m := newJobManager(context.Background(), 0, 8, nil, nil, qosOptions{weights: map[string]int{"gold": 3, "bronze": 1}}, nil)
	defer m.close()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budgetTotal = 8

	gold := m.tenantLocked("gold")
	bronze := m.tenantLocked("bronze")
	gold.running, bronze.running = 1, 1

	// 3:1 weights over an 8-worker budget → 6 and 2.
	if got := m.grantLocked(gold, 16); got != 6 {
		t.Fatalf("gold grant = %d, want 6", got)
	}
	if got := m.grantLocked(bronze, 16); got != 2 {
		t.Fatalf("bronze grant = %d, want 2", got)
	}
	// A grant never exceeds what the job requested.
	if got := m.grantLocked(gold, 4); got != 4 {
		t.Fatalf("capped grant = %d, want the requested 4", got)
	}
	// An unset request (0) asks for the whole budget: the weighted share.
	if got := m.grantLocked(gold, 0); got != 6 {
		t.Fatalf("unset grant = %d, want the weighted share 6", got)
	}
	// A lone running tenant takes the whole budget, requested or unset.
	bronze.running = 0
	if got := m.grantLocked(gold, 16); got != 8 {
		t.Fatalf("solo grant = %d, want the full budget 8", got)
	}
	if got := m.grantLocked(gold, 0); got != 8 {
		t.Fatalf("solo unset grant = %d, want the full budget 8", got)
	}
	// Oversubscribed within one tenant: every running job keeps at least
	// one worker.
	gold.running = 10
	if got := m.grantLocked(gold, 16); got != 1 {
		t.Fatalf("oversubscribed grant = %d, want the floor 1", got)
	}
}

// TestUnsetWorkersRunsOnFairShare pins the server's worker default: a job
// that leaves workers unset is granted its tenant's fair share of the
// budget (the whole budget when it runs alone), and its /result is
// byte-identical to a serial workers: 1 job on another server.
func TestUnsetWorkersRunsOnFairShare(t *testing.T) {
	mine := func(workers int) (JobInfo, []byte) {
		_, ts := testServer(t, Options{Workers: 1})
		ds := uploadCSV(t, ts.URL, "name=energy&threshold=0.5", smallCSV())
		req := MiningRequest{DatasetID: ds.ID, MinSupport: 0.2, MinConfidence: 0, NumWindows: 6, MaxPatternSize: 3, Workers: workers}
		var job JobInfo
		if resp := submitRaw(t, ts.URL, "", req, &job); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit (workers %d): status %d", workers, resp.StatusCode)
		}
		done := waitState(t, ts.URL, job.ID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
		if done.State != JobDone {
			t.Fatalf("job (workers %d) finished as %s (%s)", workers, done.State, done.Error)
		}
		code, body := getRaw(t, ts.URL+"/v1/jobs/"+job.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result (workers %d): status %d", workers, code)
		}
		return done, body
	}
	unset, unsetDoc := mine(0)
	serial, serialDoc := mine(1)
	// Alone on its server, the default tenant's fair share is the whole
	// GOMAXPROCS budget.
	if want := runtime.GOMAXPROCS(0); unset.Summary.Workers != want {
		t.Fatalf("unset workers: summary.workers = %d, want the fair share %d", unset.Summary.Workers, want)
	}
	if unset.Summary.Patterns == 0 {
		t.Fatal("the job mined no patterns; the comparison would be vacuous")
	}
	if serial.Summary.Workers != 1 {
		t.Fatalf("workers 1: summary.workers = %d, want 1", serial.Summary.Workers)
	}
	if !bytes.Equal(unsetDoc, serialDoc) {
		t.Fatalf("unset-workers /result differs from the serial one:\n%s\nvs\n%s", unsetDoc, serialDoc)
	}
}

// TestGrantRebalancesMidRun pins the renegotiation story: a job's grant
// recomputed at a level boundary shrinks when another tenant has started
// running since the previous level.
func TestGrantRebalancesMidRun(t *testing.T) {
	m := newJobManager(context.Background(), 0, 8, nil, nil, qosOptions{}, nil)
	defer m.close()
	m.mu.Lock()
	m.budgetTotal = 8
	a := m.tenantLocked("a")
	a.running = 1
	m.mu.Unlock()

	if got := m.grantFor("a", 8); got != 8 {
		t.Fatalf("solo grant = %d, want 8", got)
	}
	m.mu.Lock()
	m.tenantLocked("b").running = 1
	m.mu.Unlock()
	if got := m.grantFor("a", 8); got != 4 {
		t.Fatalf("grant after tenant b arrived = %d, want 4", got)
	}
	// A tenant the manager has never seen keeps its request untouched.
	if got := m.grantFor("ghost", 5); got != 5 {
		t.Fatalf("unknown-tenant grant = %d, want the requested 5", got)
	}
}

func TestPickOrder(t *testing.T) {
	m := newJobManager(context.Background(), 0, 8, nil, nil, qosOptions{
		weights: map[string]int{"gold": 3},
	}, nil)
	defer m.close()
	m.mu.Lock()
	defer m.mu.Unlock()

	gold := m.tenantLocked("gold")
	iron := m.tenantLocked("iron")
	idle := m.tenantLocked("idle")
	gold.queue = []*job{{}}
	iron.queue = []*job{{}}
	_ = idle // queued nothing: never pickable

	// gold running 2× iron, but 3× the weight: gold's fair-share deficit
	// (running/weight 2/3) is below iron's (1/1), so gold drains first …
	gold.running, iron.running = 2, 1
	if got := m.pickLocked(); got != gold {
		t.Fatalf("pick = %v, want gold (lower running/weight)", got.name)
	}
	// … unless its running cap is exhausted.
	m.qos.maxRunning = 2
	gold.running = 2
	iron.running = 0
	if got := m.pickLocked(); got != iron {
		t.Fatalf("pick = %v, want iron (gold at max_running)", got.name)
	}
	// Equal deficit falls back to round-robin: least recently drained
	// wins.
	m.qos.maxRunning = 0
	gold.weight = 1
	gold.running, iron.running = 1, 1
	gold.lastPick, iron.lastPick = 7, 3
	if got := m.pickLocked(); got != iron {
		t.Fatalf("pick = %v, want iron (least recently drained)", got.name)
	}
	// No queued work anywhere → nothing to pick.
	gold.queue, iron.queue = nil, nil
	if got := m.pickLocked(); got != nil {
		t.Fatalf("pick = %v, want nil with all queues empty", got.name)
	}
}

// submitRaw posts a mining request under a tenant and returns the raw
// response with its body decoded into out (when non-nil).
func submitRaw(t *testing.T, base, tenant string, req MiningRequest, out any) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp
}

// TestTenantQuota429 is the admission-control acceptance path: a tenant
// over its queued quota is shed with 429 + Retry-After while another
// tenant's submit sails through and completes.
func TestTenantQuota429(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, TenantMaxQueued: 1})
	slow := uploadCSV(t, ts.URL, "name=slow&threshold=0.5", slowCSV(4, 6000))
	small := uploadCSV(t, ts.URL, "name=small&threshold=0.5", smallCSV())

	slowReq := MiningRequest{
		DatasetID: slow.ID, MinSupport: 0.1, MinConfidence: 0,
		NumWindows: 6, MaxPatternSize: 2, Workers: 1,
	}
	smallReq := MiningRequest{
		DatasetID: small.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 2,
	}

	// Saturate tenant A: one job occupying the lone worker, one in queue
	// (the whole quota).
	var runningJob JobInfo
	if resp := submitRaw(t, ts.URL, "alpha", slowReq, &runningJob); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	waitState(t, ts.URL, runningJob.ID, 10*time.Second, func(j JobInfo) bool { return j.State == JobRunning })
	if resp := submitRaw(t, ts.URL, "alpha", slowReq, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d", resp.StatusCode)
	}

	// The third submit crosses the quota: 429, a Retry-After hint, and
	// the stable quota_exceeded envelope code.
	var apiErr apiError
	resp := submitRaw(t, ts.URL, "alpha", smallReq, &apiErr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if apiErr.Error.Code != codeQuotaExceeded {
		t.Fatalf("over-quota code = %q, want %q", apiErr.Error.Code, codeQuotaExceeded)
	}
	retryAfter, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retryAfter < 1 || retryAfter > 300 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 300]", resp.Header.Get("Retry-After"))
	}

	// Tenant B is not taxed for A's appetite.
	var bJob JobInfo
	if resp := submitRaw(t, ts.URL, "beta", smallReq, &bJob); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant beta submit: status %d", resp.StatusCode)
	}
	done := waitState(t, ts.URL, bJob.ID, 60*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
	if done.State != JobDone || done.Tenant != "beta" {
		t.Fatalf("tenant beta job = %s (tenant %q), want done/beta", done.State, done.Tenant)
	}

	// The shed submit shows up in the tenant's metrics.
	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	alpha, ok := m.Tenants["alpha"]
	if !ok || alpha.Shed < 1 || alpha.Admitted != 2 {
		t.Fatalf("alpha tenant metrics = %+v (present %v), want shed >= 1, admitted 2", alpha, ok)
	}
	if beta := m.Tenants["beta"]; beta.Admitted != 1 || beta.Shed != 0 {
		t.Fatalf("beta tenant metrics = %+v, want admitted 1, shed 0", beta)
	}
}

// TestTenantQuotaSurvivesRestart is the regression for queue-depth
// accounting after WAL replay: jobs that were live at the crash re-queue
// against their tenant, so the tenant's quota is already spoken for on
// the restarted process.
func TestTenantQuotaSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Workers: 1, TenantMaxQueued: 1, DataDir: dir}
	srv1, ts1 := testServer(t, opts)
	slow := uploadCSV(t, ts1.URL, "name=slow&threshold=0.5", slowCSV(4, 8000))
	slowReq := MiningRequest{
		DatasetID: slow.ID, MinSupport: 0.1, MinConfidence: 0,
		NumWindows: 6, MaxPatternSize: 2, Workers: 1,
	}

	var first JobInfo
	if resp := submitRaw(t, ts1.URL, "alpha", slowReq, &first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	waitState(t, ts1.URL, first.ID, 10*time.Second, func(j JobInfo) bool { return j.State == JobRunning })
	if resp := submitRaw(t, ts1.URL, "alpha", slowReq, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d", resp.StatusCode)
	}
	// Quota full before the crash.
	if resp := submitRaw(t, ts1.URL, "alpha", slowReq, nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("pre-crash over-quota submit: status %d, want 429", resp.StatusCode)
	}

	crash(srv1)
	_, ts2 := testServer(t, opts)

	// Replay re-queued both live jobs under tenant alpha; its quota must
	// be full on the fresh process, not silently reset.
	var apiErr apiError
	resp := submitRaw(t, ts2.URL, "alpha", slowReq, &apiErr)
	if resp.StatusCode != http.StatusTooManyRequests || apiErr.Error.Code != codeQuotaExceeded {
		t.Fatalf("post-restart over-quota submit: status %d code %q, want 429 %q",
			resp.StatusCode, apiErr.Error.Code, codeQuotaExceeded)
	}
	// A different tenant is unaffected by alpha's backlog.
	if resp := submitRaw(t, ts2.URL, "beta", slowReq, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-restart tenant beta submit: status %d, want 202", resp.StatusCode)
	}
}

// TestTwoTenantFairnessEndToEnd drives the whole loop: with two tenants
// of equal weight running concurrently, the second job's first level is
// granted half the worker budget rather than the full requested count.
func TestTwoTenantFairnessEndToEnd(t *testing.T) {
	budget := runtime.GOMAXPROCS(0)
	if budget < 2 {
		t.Skip("needs GOMAXPROCS >= 2 for a visible split")
	}
	_, ts := testServer(t, Options{Workers: 2})
	slow := uploadCSV(t, ts.URL, "name=slow&threshold=0.5", slowCSV(4, 8000))

	req := MiningRequest{
		DatasetID: slow.ID, MinSupport: 0.1, MinConfidence: 0,
		NumWindows: 6, MaxPatternSize: 2, Workers: budget,
	}
	var aJob JobInfo
	if resp := submitRaw(t, ts.URL, "alpha", req, &aJob); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant alpha submit: status %d", resp.StatusCode)
	}
	waitState(t, ts.URL, aJob.ID, 10*time.Second, func(j JobInfo) bool { return j.State == JobRunning })

	// With alpha mining, beta's job computes its first-level grant
	// against two running tenants: half the budget each.
	var bJob JobInfo
	if resp := submitRaw(t, ts.URL, "beta", req, &bJob); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("tenant beta submit: status %d", resp.StatusCode)
	}
	done := waitState(t, ts.URL, bJob.ID, 120*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
	if done.State != JobDone {
		t.Fatalf("tenant beta job = %s (%q)", done.State, done.Error)
	}

	// The per-level worker grants ride the job's progress events; a fresh
	// connect replays them from the ring.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	levelWorkers := map[int]int{}
	for _, e := range readSSE(t, ctx, ts.URL+"/v1/jobs/"+bJob.ID+"/events", "", nil) {
		if e.typ != "progress" {
			continue
		}
		if lv := e.jobData(t).Level; lv != nil {
			levelWorkers[lv.Level] = lv.Workers
		}
	}
	got, ok := levelWorkers[1]
	if !ok {
		t.Fatalf("no level-1 progress event in %v", levelWorkers)
	}
	if want := budget / 2; got != want {
		t.Fatalf("beta level-1 workers = %d, want the half-budget %d (budget %d)", got, want, budget)
	}
	if got >= budget {
		t.Fatalf("beta level-1 workers = %d, never the full budget %d while alpha mines", got, budget)
	}
}
