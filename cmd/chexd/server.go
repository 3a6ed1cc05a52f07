package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"chex86/internal/campaign"
	"chex86/internal/decode"
	"chex86/internal/fabric"
	"chex86/internal/faultinject"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// server wires the fabric coordinator and its local pool into the HTTP
// API.
type server struct {
	pool  *campaign.Pool // the coordinator's zero-worker rung
	coord *fabric.Coordinator

	// Request defaults (flag-configurable).
	defScale     float64
	defMaxInsts  uint64
	defMaxCycles uint64
}

// newServer builds the coordinator over a local pool of the given size,
// the bottom rung of the degradation ladder: with zero workers
// registered, campaigns execute on that pool and chexd keeps serving. The
// pool has no cache of its own, because the coordinator looks each cell
// up in cache (nil = none) before queueing it and stores each result: a
// cell run locally is looked up once and written once.
func newServer(cache *campaign.Cache, workers int, opts fabric.CoordinatorOptions) *server {
	pool := campaign.NewPool(campaign.Options{Workers: workers})
	opts.Cache, opts.Local = cache, pool
	return &server{pool: pool, coord: fabric.NewCoordinator(opts)}
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The operator-facing campaign API, plus the worker wire protocol
	// (register/heartbeat/lease/complete/cache) under /fabric/v1/.
	mux.HandleFunc("POST /api/v1/fabric/campaign", s.handleFabricSubmit)
	mux.HandleFunc("GET /api/v1/fabric/campaigns", s.handleFabricList)
	mux.HandleFunc("GET /api/v1/fabric/campaigns/{id}", s.handleFabricCampaign)
	mux.HandleFunc("GET /api/v1/fabric/campaigns/{id}/report", s.handleFabricReport)
	mux.HandleFunc("GET /api/v1/fabric/workers", s.handleFabricWorkers)
	mux.Handle("/fabric/v1/", s.coord.Handler())
	// Live profiling of a serving daemon: `go tool pprof
	// http://host/debug/pprof/profile` captures the campaign workers' hot
	// loop under real job load (README "Host throughput" has a quickstart).
	// Registered explicitly because this mux is not http.DefaultServeMux.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.pool.Metrics().Snapshot().Render())
	fmt.Fprint(w, s.coord.Metrics().Snapshot().Render())
}

// fabricCampaignRequest submits a campaign. With a fault config it is a
// fault campaign, sharded into workload × variant × site cells; without
// one it is a bench campaign of one cell per workload.
type fabricCampaignRequest struct {
	Fault    *faultinject.Config `json:"fault,omitempty"`
	Priority int                 `json:"priority,omitempty"`

	// Bench mode (unset budgets take chexd's flag defaults).
	Workloads []string `json:"workloads,omitempty"` // empty = the full catalog
	Variant   string   `json:"variant,omitempty"`   // "prediction" (default), "baseline", ...
	Scale     float64  `json:"scale,omitempty"`
	MaxInsts  uint64   `json:"maxInsts,omitempty"`
	MaxCycles uint64   `json:"maxCycles,omitempty"`
}

// fabricCampaignResponse is a campaign's status, plus results and (for
// fault mode) the merged report once terminal.
type fabricCampaignResponse struct {
	fabric.CampaignStatus
	Results []*campaign.Result  `json:"results,omitempty"`
	Report  *faultinject.Report `json:"report,omitempty"`
}

func (s *server) handleFabricSubmit(w http.ResponseWriter, r *http.Request) {
	var req fabricCampaignRequest
	dec := json.NewDecoder(r.Body)
	// A misspelled or removed field is an error, not a silent default.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	var camp *fabric.Campaign
	var err error
	if req.Fault != nil {
		camp, err = s.coord.SubmitFault(*req.Fault, req.Priority)
	} else {
		var cells []campaign.Spec
		if cells, err = s.benchCells(&req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		camp, err = s.coord.Submit(cells, req.Priority)
	}
	if err != nil {
		if errors.Is(err, fabric.ErrQueueFull) {
			// Backpressure: admission control refused the campaign. The
			// client should retry after a short backoff.
			w.Header().Set("Retry-After", "2")
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.fabricResponse(camp, false))
}

// benchCells expands a bench campaign into one cell per workload.
func (s *server) benchCells(req *fabricCampaignRequest) ([]campaign.Spec, error) {
	cfg := pipeline.DefaultConfig()
	if req.Variant != "" {
		v, ok := decode.ParseVariant(req.Variant)
		if !ok {
			return nil, fmt.Errorf("unknown variant %q", req.Variant)
		}
		cfg.Variant = v
	}
	scale, maxInsts, maxCycles := req.Scale, req.MaxInsts, req.MaxCycles
	if scale <= 0 {
		scale = s.defScale
	}
	if maxInsts == 0 {
		maxInsts = s.defMaxInsts
	}
	if maxCycles == 0 {
		maxCycles = s.defMaxCycles
	}
	names := req.Workloads
	if len(names) == 0 {
		names = workload.Names()
	}
	cells := make([]campaign.Spec, len(names))
	for i, name := range names {
		cells[i] = campaign.BenchSpec(name, cfg, scale, maxInsts, maxCycles)
	}
	return cells, nil
}

// fabricCampaignByID resolves the {id} path value.
func (s *server) fabricCampaignByID(w http.ResponseWriter, r *http.Request) *fabric.Campaign {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad campaign id %q", r.PathValue("id")))
		return nil
	}
	camp := s.coord.Campaign(id)
	if camp == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no campaign %d", id))
		return nil
	}
	return camp
}

func (s *server) handleFabricCampaign(w http.ResponseWriter, r *http.Request) {
	camp := s.fabricCampaignByID(w, r)
	if camp == nil {
		return
	}
	if r.URL.Query().Get("wait") != "" {
		if err := camp.Wait(r.Context()); err != nil {
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, s.fabricResponse(camp, r.URL.Query().Get("detail") != ""))
}

// handleFabricReport serves the merged fault report's canonical bytes —
// exactly what a single-node sequential `chexfault` run writes, so a
// distributed campaign can be diffed against a sequential one with cmp.
func (s *server) handleFabricReport(w http.ResponseWriter, r *http.Request) {
	camp := s.fabricCampaignByID(w, r)
	if camp == nil {
		return
	}
	if r.URL.Query().Get("wait") != "" {
		if err := camp.Wait(r.Context()); err != nil {
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
	}
	rep := camp.Report()
	if rep == nil {
		writeError(w, http.StatusNotFound, errors.New("no merged report (campaign unfinished, failed, or not fault mode)"))
		return
	}
	data, err := rep.JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *server) handleFabricList(w http.ResponseWriter, r *http.Request) {
	var out []fabricCampaignResponse
	for _, camp := range s.coord.Campaigns() {
		out = append(out, fabricCampaignResponse{CampaignStatus: camp.Status(false)})
	}
	writeJSON(w, http.StatusOK, struct {
		Campaigns []fabricCampaignResponse `json:"campaigns"`
	}{out})
}

func (s *server) handleFabricWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Workers []fabric.WorkerStatus `json:"workers"`
	}{s.coord.Workers()})
}

// fabricResponse renders a campaign's status, attaching results and the
// merged report when terminal.
func (s *server) fabricResponse(camp *fabric.Campaign, detail bool) fabricCampaignResponse {
	resp := fabricCampaignResponse{CampaignStatus: camp.Status(detail)}
	if resp.State == fabric.CampaignDone {
		resp.Results = camp.Results()
		resp.Report = camp.Report()
	}
	return resp
}
