package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"chex86/internal/campaign"
	"chex86/internal/fabric"
)

// newTestServer spins up a chexd handler over a tiny-workload pool.
func newTestServer(t *testing.T) (*httptest.Server, *campaign.Pool) {
	t.Helper()
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := campaign.NewPool(campaign.Options{
		Workers: 2,
		Cache:   cache,
		Clock:   func() int64 { return time.Now().UnixNano() },
	})
	t.Cleanup(pool.Close)
	srv := &server{pool: pool, cache: cache, defScale: 0.1, defMaxInsts: 2000}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, pool
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) jobResponse {
	t.Helper()
	defer resp.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return jr
}

func TestSubmitWaitAndCacheHit(t *testing.T) {
	ts, _ := newTestServer(t)

	resp := postJSON(t, ts.URL+"/api/v1/jobs", `{"workload":"mcf"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	jr := decodeJob(t, resp)
	if jr.ID != 1 || jr.Mode != campaign.ModeBench || jr.Workload != "mcf" {
		t.Fatalf("unexpected job response: %+v", jr)
	}

	// Block until done, then check the result rode along.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/1?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	done := decodeJob(t, resp)
	if done.State != campaign.JobDone {
		t.Fatalf("state after wait = %s (%s)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Bench == nil || done.Result.Bench.Cycles == 0 {
		t.Fatalf("no result attached: %+v", done)
	}
	if done.Cached {
		t.Fatal("cold-cache run reported cached")
	}

	// Identical resubmission: a cache hit, visible in the job record and
	// the metrics endpoint.
	jr2 := decodeJob(t, postJSON(t, ts.URL+"/api/v1/jobs", `{"workload":"mcf"}`))
	if !jr2.Cached {
		t.Fatalf("resubmission not served from cache: %+v", jr2)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	resp.Body.Close()
	metrics := sb.String()
	if !strings.Contains(metrics, "campaign_cache_hits 1") {
		t.Fatalf("metrics missing cache hit:\n%s", metrics)
	}

	// The cached result is addressable by key.
	resp, err = http.Get(ts.URL + "/api/v1/results/" + jr2.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results lookup status = %d", resp.StatusCode)
	}
}

func TestCampaignBatchSubmit(t *testing.T) {
	ts, pool := newTestServer(t)
	resp := postJSON(t, ts.URL+"/api/v1/campaign", `{"workloads":["mcf","lbm"],"maxInsts":2000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("campaign status = %d", resp.StatusCode)
	}
	var batch struct {
		Jobs []jobResponse `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Jobs) != 2 {
		t.Fatalf("campaign submitted %d jobs, want 2", len(batch.Jobs))
	}
	for _, jr := range batch.Jobs {
		j := pool.Job(jr.ID)
		if j == nil {
			t.Fatalf("job %d missing from pool", jr.ID)
		}
		if _, err := http.Get(ts.URL + "/api/v1/jobs/" + itoa(jr.ID) + "?wait=1"); err != nil {
			t.Fatal(err)
		}
	}

	// List shows both jobs terminal.
	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobResponse `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 2 {
		t.Fatalf("list = %d jobs, want 2", len(list.Jobs))
	}
	for _, jr := range list.Jobs {
		if jr.State != campaign.JobDone {
			t.Fatalf("job %d state = %s", jr.ID, jr.State)
		}
	}
}

func TestStreamEmitsTerminalEvent(t *testing.T) {
	ts, _ := newTestServer(t)
	jr := decodeJob(t, postJSON(t, ts.URL+"/api/v1/jobs", `{"workload":"mcf"}`))

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + itoa(jr.ID) + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}
	var sawTerminal bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line, isData := strings.CutPrefix(sc.Text(), "data: ")
		if !isData {
			continue
		}
		var ev jobResponse
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if ev.State == campaign.JobDone {
			sawTerminal = true
			if ev.Result == nil {
				t.Fatal("terminal event carried no result")
			}
			break
		}
		if ev.State == campaign.JobFailed {
			t.Fatalf("job failed: %s", ev.Error)
		}
	}
	if !sawTerminal {
		t.Fatal("stream ended without a terminal event")
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, tc := range map[string]struct {
		method, path, body string
		want               int
	}{
		"bad-json":         {"POST", "/api/v1/jobs", "{nope", http.StatusBadRequest},
		"unknown-workload": {"POST", "/api/v1/jobs", `{"workload":"nonesuch"}`, http.StatusBadRequest},
		"unknown-variant":  {"POST", "/api/v1/jobs", `{"workload":"mcf","variant":"nope"}`, http.StatusBadRequest},
		"unknown-mode":     {"POST", "/api/v1/jobs", `{"mode":"mystery"}`, http.StatusBadRequest},
		"missing-job":      {"GET", "/api/v1/jobs/99", "", http.StatusNotFound},
		"bad-job-id":       {"GET", "/api/v1/jobs/xyz", "", http.StatusBadRequest},
		"missing-result":   {"GET", "/api/v1/results/" + strings.Repeat("00", 32), "", http.StatusNotFound},
	} {
		var resp *http.Response
		var err error
		if tc.method == "POST" {
			resp = postJSON(t, ts.URL+tc.path, tc.body)
		} else if resp, err = http.Get(ts.URL + tc.path); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", name, resp.StatusCode, tc.want)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestPprofEndpoints pins the observability surface: the daemon's mux
// must expose the pprof index and heap profile for live host-side
// performance debugging.
func TestPprofEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// newFabricTestServer is newTestServer plus a coordinator in local-
// fallback mode (no workers registered → cells run on the chexd pool).
func newFabricTestServer(t *testing.T, maxQueue int) (*httptest.Server, *server) {
	t.Helper()
	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pool := campaign.NewPool(campaign.Options{
		Workers: 2,
		Cache:   cache,
		Clock:   func() int64 { return time.Now().UnixNano() },
	})
	t.Cleanup(pool.Close)
	srv := &server{pool: pool, cache: cache, defScale: 0.1, defMaxInsts: 2000}
	srv.coord = fabric.NewCoordinator(fabric.CoordinatorOptions{
		Clock:    wallClock{},
		MaxQueue: maxQueue,
		Cache:    cache,
		Local:    pool,
	})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// TestFabricCampaignLocalFallback: with zero workers registered, a fabric
// campaign degrades to coordinator-local execution and still completes,
// with the merged fault report served byte-for-byte.
func TestFabricCampaignLocalFallback(t *testing.T) {
	ts, _ := newFabricTestServer(t, 0)

	body := `{"fault":{"seed":5,"workloads":["mcf"],"variants":["prediction"],` +
		`"faultsPerRun":5,"maxInsts":4000,"sites":["cap-table","cap-cache"]}}`
	resp := postJSON(t, ts.URL+"/api/v1/fabric/campaign", body)
	var fr fabricCampaignResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if fr.Cells != 2 {
		t.Fatalf("cells = %d, want workloads × variants × sites = 2", fr.Cells)
	}

	get, err := http.Get(ts.URL + "/api/v1/fabric/campaigns/" + strconv.Itoa(fr.ID) + "?wait=1&detail=1")
	if err != nil {
		t.Fatal(err)
	}
	var done fabricCampaignResponse
	if err := json.NewDecoder(get.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
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
	rget, err := http.Get(ts.URL + "/api/v1/fabric/campaigns/" + strconv.Itoa(fr.ID) + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer rget.Body.Close()
	if rget.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d", rget.StatusCode)
	}
	var rep struct {
		Schema string `json:"schema"`
	}
	if err := json.NewDecoder(rget.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema == "" {
		t.Fatal("report body has no schema field")
	}

	// Fabric metrics joined the exposition endpoint without displacing the
	// pool's (the CI smoke greps campaign_cache_hits).
	mget, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mget.Body.Close()
	var metrics strings.Builder
	if _, err := io.Copy(&metrics, mget.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"campaign_cache_hits ", "fabric_campaigns_done 1", "fabric_cells_local 2"} {
		if !strings.Contains(metrics.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics.String())
		}
	}
}

// TestFabricBackpressure: admission control surfaces ErrQueueFull as
// HTTP 429 with a Retry-After hint.
func TestFabricBackpressure(t *testing.T) {
	ts, srv := newFabricTestServer(t, 1)
	// A registered (fake) worker keeps the local-fallback rung off so the
	// queue actually fills.
	if _, err := srv.coord.Register(context.Background(), fabric.WorkerInfo{ID: "w1"}); err != nil {
		t.Fatal(err)
	}

	ok := postJSON(t, ts.URL+"/api/v1/fabric/campaign", `{"workloads":["mcf"]}`)
	ok.Body.Close()
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d", ok.StatusCode)
	}
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
	ts, srv := newFabricTestServer(t, 0)
	if _, err := srv.coord.Register(context.Background(), fabric.WorkerInfo{ID: "node-a", Addr: "10.0.0.2"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/api/v1/fabric/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Workers []fabric.WorkerStatus `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Workers) != 1 || out.Workers[0].ID != "node-a" {
		t.Fatalf("workers = %+v", out.Workers)
	}
}

// TestSubmitLockstepJob: a lockstep sweep shard rides the same job API as
// bench and fault cells, and its counters surface on /metrics.
func TestSubmitLockstepJob(t *testing.T) {
	ts, _ := newTestServer(t)

	resp := postJSON(t, ts.URL+"/api/v1/jobs",
		`{"mode":"lockstep","lockstep":{"seed":5,"programs":2,"crosscheckEvery":-1}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	jr := decodeJob(t, resp)
	if jr.Mode != campaign.ModeLockstep {
		t.Fatalf("job mode = %s", jr.Mode)
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + strconv.Itoa(jr.ID) + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	done := decodeJob(t, resp)
	if done.State != campaign.JobDone {
		t.Fatalf("state after wait = %s (%s)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Lockstep == nil {
		t.Fatalf("no lockstep report attached: %+v", done)
	}
	if done.Result.Lockstep.Failed() {
		t.Fatalf("sweep failed:\n%s", done.Result.Lockstep.JSON())
	}
	if done.Result.Lockstep.Programs != 2 {
		t.Fatalf("programs = %d, want 2", done.Result.Lockstep.Programs)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "lockstep_programs_total") {
		t.Fatalf("/metrics missing lockstep counters:\n%s", body)
	}

	// Missing spec body is a client error, not a pool submission.
	resp = postJSON(t, ts.URL+"/api/v1/jobs", `{"mode":"lockstep"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing lockstep spec: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}
