package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"chex86/internal/campaign"
	"chex86/internal/fabric"
	"chex86/internal/pipeline"
)

// newTestServer spins up chexd's handler over a disk cache and a
// two-worker local pool, with tiny per-cell defaults. No chexworker is
// registered, so cells run on the local pool.
func newTestServer(t *testing.T, maxQueue int) (*httptest.Server, *server, *campaign.Cache) {
	t.Helper()
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cache, 2, fabric.CoordinatorOptions{Clock: wallClock{}, MaxQueue: maxQueue})
	t.Cleanup(srv.pool.Close)
	srv.defScale, srv.defMaxInsts = 0.1, 2000
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv, cache
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// getBody fetches url and returns its status and body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// submitCampaign posts a campaign and requires a 202.
func submitCampaign(t *testing.T, ts *httptest.Server, body string) fabricCampaignResponse {
	t.Helper()
	resp := postJSON(t, ts.URL+"/api/v1/fabric/campaign", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: status = %d", body, resp.StatusCode)
	}
	var fr fabricCampaignResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

// waitCampaign blocks on a campaign and returns its per-cell view.
func waitCampaign(t *testing.T, ts *httptest.Server, id int) fabricCampaignResponse {
	t.Helper()
	code, body := getBody(t, ts.URL+"/api/v1/fabric/campaigns/"+strconv.Itoa(id)+"?wait=1&detail=1")
	if code != http.StatusOK {
		t.Fatalf("campaign %d: status = %d: %s", id, code, body)
	}
	var fr fabricCampaignResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestSubmitWaitAndCacheHit: a bench campaign runs on the local pool, and
// its identical resubmission is served entirely from the cache, visible
// per cell, on /metrics and at the cache's content address.
func TestSubmitWaitAndCacheHit(t *testing.T) {
	ts, _, _ := newTestServer(t, 0)

	const body = `{"workloads":["mcf","lbm"]}`
	fr := submitCampaign(t, ts, body)
	done := waitCampaign(t, ts, fr.ID)
	if done.State != fabric.CampaignDone || len(done.Detail) != 2 || len(done.Results) != 2 {
		t.Fatalf("campaign = %+v, want 2 done cells", done.CampaignStatus)
	}
	for _, cell := range done.Detail {
		if cell.By != "local" {
			t.Fatalf("cold cell %d executed by %q, want local", cell.Index, cell.By)
		}
	}
	for i, res := range done.Results {
		if res == nil || res.Bench == nil || res.Bench.Cycles == 0 {
			t.Fatalf("cell %d has no bench result: %+v", i, res)
		}
	}

	again := waitCampaign(t, ts, submitCampaign(t, ts, body).ID)
	if again.State != fabric.CampaignDone {
		t.Fatalf("resubmission = %+v", again.CampaignStatus)
	}
	for _, cell := range again.Detail {
		if cell.By != "cache" {
			t.Fatalf("resubmitted cell %d served by %q, want cache", cell.Index, cell.By)
		}
	}
	if _, metrics := getBody(t, ts.URL+"/metrics"); !strings.Contains(string(metrics), "fabric_cells_from_cache 2\n") {
		t.Fatalf("/metrics missing two cache-served cells:\n%s", metrics)
	}

	// The mcf cell's result is served at its content address.
	spec := campaign.BenchSpec("mcf", pipeline.DefaultConfig(), 0.1, 2000, 0)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	code, cached := getBody(t, ts.URL+"/fabric/v1/cache/"+key)
	if code != http.StatusOK {
		t.Fatalf("cache lookup status = %d", code)
	}
	var res campaign.Result
	if err := json.Unmarshal(cached, &res); err != nil {
		t.Fatal(err)
	}
	if res.Workload != "mcf" || res.Bench == nil || *res.Bench != *done.Results[0].Bench {
		t.Fatalf("cached result %+v differs from the campaign's mcf cell", res)
	}
}

// TestLocalCellsWriteCacheOnce: a cell run on the coordinator's pool is
// looked up and stored by the coordinator alone — the pool never touches
// a cache — and the store holds one entry per cell.
func TestLocalCellsWriteCacheOnce(t *testing.T) {
	ts, srv, cache := newTestServer(t, 0)
	waitCampaign(t, ts, submitCampaign(t, ts, `{"workloads":["mcf","lbm"]}`).ID)

	if m := srv.pool.Metrics().Snapshot(); m.CacheHits+m.CacheMisses != 0 || m.Started != 2 {
		t.Fatalf("pool metrics = %+v, want 2 runs and no cache lookups", m)
	}
	if n, err := cache.Len(); err != nil || n != 2 {
		t.Fatalf("cache holds %d entries (%v), want one per cell", n, err)
	}
}

// TestCampaignBatchSubmit: one submission shards a workload list into one
// bench cell per workload, and the campaign list shows it finished.
func TestCampaignBatchSubmit(t *testing.T) {
	ts, _, _ := newTestServer(t, 0)
	fr := submitCampaign(t, ts, `{"workloads":["mcf","lbm"],"maxInsts":1500}`)
	if fr.Cells != 2 || fr.Mode != campaign.ModeBench {
		t.Fatalf("campaign = %+v, want 2 bench cells", fr.CampaignStatus)
	}
	waitCampaign(t, ts, fr.ID)

	code, body := getBody(t, ts.URL+"/api/v1/fabric/campaigns")
	if code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	var list struct {
		Campaigns []fabricCampaignResponse `json:"campaigns"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 1 {
		t.Fatalf("list = %d campaigns, want 1", len(list.Campaigns))
	}
	if c := list.Campaigns[0]; c.ID != fr.ID || c.State != fabric.CampaignDone || c.Done != 2 {
		t.Fatalf("listed campaign = %+v, want done with 2 cells", c.CampaignStatus)
	}
}

func TestBadRequests(t *testing.T) {
	ts, srv, _ := newTestServer(t, 0)
	const submit = "/api/v1/fabric/campaign"
	for name, tc := range map[string]struct {
		method, path, body string
		want               int
	}{
		"bad-json":         {"POST", submit, "{nope", http.StatusBadRequest},
		"unknown-workload": {"POST", submit, `{"workloads":["nonesuch"]}`, http.StatusBadRequest},
		"unknown-variant":  {"POST", submit, `{"workloads":["mcf"],"variant":"nope"}`, http.StatusBadRequest},
		"unknown-field":    {"POST", submit, `{"mode":"mystery","timeoutMS":5,"workloads":["mcf"]}`, http.StatusBadRequest},
		"lockstep-field":   {"POST", submit, `{"lockstep":{"seed":5,"programs":2}}`, http.StatusBadRequest},
		"misspelled-field": {"POST", submit, `{"workload":["mcf"]}`, http.StatusBadRequest},
		"missing-campaign": {"GET", "/api/v1/fabric/campaigns/99", "", http.StatusNotFound},
		"bad-campaign-id":  {"GET", "/api/v1/fabric/campaigns/xyz", "", http.StatusBadRequest},
		"missing-result":   {"GET", "/fabric/v1/cache/" + strings.Repeat("00", 32), "", http.StatusNotFound},
	} {
		var code int
		if tc.method == "POST" {
			resp := postJSON(t, ts.URL+tc.path, tc.body)
			resp.Body.Close()
			code = resp.StatusCode
		} else {
			code, _ = getBody(t, ts.URL+tc.path)
		}
		if code != tc.want {
			t.Errorf("%s: status = %d, want %d", name, code, tc.want)
		}
	}
	if n := len(srv.coord.Campaigns()); n != 0 {
		t.Fatalf("rejected requests created %d campaigns", n)
	}
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t, 0)
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
}

// TestPprofEndpoints pins the observability surface: the daemon's mux
// must expose the pprof index and heap profile for live host-side
// performance debugging.
func TestPprofEndpoints(t *testing.T) {
	ts, _, _ := newTestServer(t, 0)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap"} {
		if code, _ := getBody(t, ts.URL+path); code != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, code)
		}
	}
}

// TestFabricCampaignLocalFallback: with zero workers registered, a fault
// campaign degrades to coordinator-local execution and still completes,
// with the merged fault report served byte-for-byte.
func TestFabricCampaignLocalFallback(t *testing.T) {
	ts, _, _ := newTestServer(t, 0)

	fr := submitCampaign(t, ts, `{"fault":{"seed":5,"workloads":["mcf"],"variants":["prediction"],`+
		`"faultsPerRun":5,"maxInsts":4000,"sites":["cap-table","cap-cache"]}}`)
	if fr.Cells != 2 {
		t.Fatalf("cells = %d, want workloads × variants × sites = 2", fr.Cells)
	}
	done := waitCampaign(t, ts, fr.ID)
	if done.State != fabric.CampaignDone || !done.Local {
		t.Fatalf("campaign = %+v, want done via local degradation", done.CampaignStatus)
	}
	if done.Report == nil {
		t.Fatal("completed fault campaign has no merged report")
	}
	for _, cell := range done.Detail {
		if cell.By != "local" {
			t.Fatalf("cell %d executed by %q, want local", cell.Index, cell.By)
		}
	}

	// The report endpoint serves the merged report's canonical bytes.
	code, body := getBody(t, ts.URL+"/api/v1/fabric/campaigns/"+strconv.Itoa(fr.ID)+"/report")
	if code != http.StatusOK {
		t.Fatalf("report status = %d", code)
	}
	want, err := done.Report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Fatalf("report endpoint bytes differ from the merged report")
	}

	// Pool and fabric counters share the exposition endpoint. The pool
	// has no cache, so it exports no cache counters.
	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{"campaign_runs_started 2\n", "fabric_campaigns_done 1\n", "fabric_cells_local 2\n"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "campaign_cache_") {
			t.Errorf("/metrics exports a pool cache counter that cannot move: %q", line)
		}
	}
}

// TestFabricBackpressure: admission control surfaces ErrQueueFull as
// HTTP 429 with a Retry-After hint.
func TestFabricBackpressure(t *testing.T) {
	ts, srv, _ := newTestServer(t, 1)
	// A registered (fake) worker keeps the local-fallback rung off so the
	// queue actually fills.
	if _, err := srv.coord.Register(context.Background(), fabric.WorkerInfo{ID: "w1"}); err != nil {
		t.Fatal(err)
	}

	submitCampaign(t, ts, `{"workloads":["mcf"]}`)
	full := postJSON(t, ts.URL+"/api/v1/fabric/campaign", `{"workloads":["xalancbmk"]}`)
	defer full.Body.Close()
	if full.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, want 429", full.StatusCode)
	}
	if full.Header.Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After hint")
	}
	var he errorResponse
	if err := json.NewDecoder(full.Body).Decode(&he); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(he.Error, "queue full") {
		t.Fatalf("429 body = %q", he.Error)
	}
}

// TestFabricWorkersEndpoint lists registered workers.
func TestFabricWorkersEndpoint(t *testing.T) {
	ts, srv, _ := newTestServer(t, 0)
	if _, err := srv.coord.Register(context.Background(), fabric.WorkerInfo{ID: "node-a", Addr: "10.0.0.2"}); err != nil {
		t.Fatal(err)
	}
	_, body := getBody(t, ts.URL+"/api/v1/fabric/workers")
	var out struct {
		Workers []fabric.WorkerStatus `json:"workers"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Workers) != 1 || out.Workers[0].ID != "node-a" {
		t.Fatalf("workers = %+v", out.Workers)
	}
}
