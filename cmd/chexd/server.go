package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"chex86/internal/campaign"
	"chex86/internal/decode"
	"chex86/internal/fabric"
	"chex86/internal/faultinject"
	"chex86/internal/lockstep"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// server wires the campaign pool, cache, and (optionally) the fabric
// coordinator into the HTTP API.
type server struct {
	pool  *campaign.Pool
	cache *campaign.Cache
	coord *fabric.Coordinator // nil = fabric disabled

	// Request defaults (flag-configurable).
	defScale     float64
	defMaxInsts  uint64
	defMaxCycles uint64
}

// jobRequest is the submission body for POST /api/v1/jobs.
type jobRequest struct {
	Mode      string              `json:"mode,omitempty"` // "bench" (default), "fault", or "lockstep"
	Workload  string              `json:"workload,omitempty"`
	Variant   string              `json:"variant,omitempty"` // "prediction" (default), "baseline", ...
	Scale     float64             `json:"scale,omitempty"`
	MaxInsts  uint64              `json:"maxInsts,omitempty"`
	MaxCycles uint64              `json:"maxCycles,omitempty"`
	TimeoutMS int64               `json:"timeoutMS,omitempty"`
	Fault     *faultinject.Config `json:"fault,omitempty"`
	Lockstep  *lockstep.SweepSpec `json:"lockstep,omitempty"`
}

// campaignRequest is the batch body for POST /api/v1/campaign: one bench
// job per workload (empty = the full 14-workload catalog).
type campaignRequest struct {
	Workloads []string `json:"workloads,omitempty"`
	Variant   string   `json:"variant,omitempty"`
	Scale     float64  `json:"scale,omitempty"`
	MaxInsts  uint64   `json:"maxInsts,omitempty"`
	MaxCycles uint64   `json:"maxCycles,omitempty"`
}

// jobResponse is a job status, plus the result once terminal.
type jobResponse struct {
	campaign.JobStatus
	Result *campaign.Result `json:"result,omitempty"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *server) spec(req *jobRequest) (campaign.Spec, error) {
	mode := campaign.Mode(req.Mode)
	if req.Mode == "" {
		mode = campaign.ModeBench
	}
	switch mode {
	case campaign.ModeFault:
		if req.Fault == nil {
			return campaign.Spec{}, errors.New("fault mode needs a fault config")
		}
		spec := campaign.FaultSpec(*req.Fault)
		spec.TimeoutMS = req.TimeoutMS
		return spec, nil
	case campaign.ModeLockstep:
		if req.Lockstep == nil {
			return campaign.Spec{}, errors.New("lockstep mode needs a lockstep sweep spec")
		}
		spec := campaign.LockstepSpec(*req.Lockstep)
		spec.TimeoutMS = req.TimeoutMS
		return spec, nil
	case campaign.ModeBench:
		cfg := pipeline.DefaultConfig()
		if req.Variant != "" {
			v, ok := decode.ParseVariant(req.Variant)
			if !ok {
				return campaign.Spec{}, fmt.Errorf("unknown variant %q", req.Variant)
			}
			cfg.Variant = v
		}
		scale := req.Scale
		if scale <= 0 {
			scale = s.defScale
		}
		maxInsts := req.MaxInsts
		if maxInsts == 0 {
			maxInsts = s.defMaxInsts
		}
		maxCycles := req.MaxCycles
		if maxCycles == 0 {
			maxCycles = s.defMaxCycles
		}
		spec := campaign.BenchSpec(req.Workload, cfg, scale, maxInsts, maxCycles)
		spec.TimeoutMS = req.TimeoutMS
		return spec, nil
	}
	return campaign.Spec{}, fmt.Errorf("unknown mode %q", req.Mode)
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /api/v1/campaign", s.handleCampaign)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /api/v1/results/{key}", s.handleResult)
	if s.coord != nil {
		// Distributed campaign fabric: the operator-facing campaign API
		// plus the worker wire protocol (register/heartbeat/lease/
		// complete/cache) under /fabric/v1/.
		mux.HandleFunc("POST /api/v1/fabric/campaign", s.handleFabricSubmit)
		mux.HandleFunc("GET /api/v1/fabric/campaigns", s.handleFabricList)
		mux.HandleFunc("GET /api/v1/fabric/campaigns/{id}", s.handleFabricCampaign)
		mux.HandleFunc("GET /api/v1/fabric/campaigns/{id}/report", s.handleFabricReport)
		mux.HandleFunc("GET /api/v1/fabric/workers", s.handleFabricWorkers)
		mux.Handle("/fabric/v1/", s.coord.Handler())
	}
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
	if s.coord != nil {
		fmt.Fprint(w, s.coord.Metrics().Snapshot().Render())
	}
	fmt.Fprint(w, lockstep.SharedMetrics.Snapshot().Render())
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec, err := s.spec(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.pool.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobResponse(job))
}

func (s *server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req campaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	names := req.Workloads
	if len(names) == 0 {
		names = workload.Names()
	}
	var jobs []jobResponse
	for _, name := range names {
		jr := jobRequest{
			Workload:  name,
			Variant:   req.Variant,
			Scale:     req.Scale,
			MaxInsts:  req.MaxInsts,
			MaxCycles: req.MaxCycles,
		}
		spec, err := s.spec(&jr)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%s: %w", name, err))
			return
		}
		j, err := s.pool.Submit(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%s: %w", name, err))
			return
		}
		jobs = append(jobs, s.jobResponse(j))
	}
	writeJSON(w, http.StatusAccepted, struct {
		Jobs []jobResponse `json:"jobs"`
	}{jobs})
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	var out []jobResponse
	for _, j := range s.pool.Jobs() {
		out = append(out, jobResponse{JobStatus: j.Status()})
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobResponse `json:"jobs"`
	}{out})
}

// jobByID resolves the {id} path value.
func (s *server) jobByID(w http.ResponseWriter, r *http.Request) *campaign.Job {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return nil
	}
	j := s.pool.Job(id)
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return nil
	}
	return j
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	if r.URL.Query().Get("wait") != "" {
		if _, err := j.Wait(r.Context()); err != nil && r.Context().Err() != nil {
			writeError(w, http.StatusRequestTimeout, r.Context().Err())
			return
		}
	}
	writeJSON(w, http.StatusOK, s.jobResponse(j))
}

// handleStream serves server-sent events: one status snapshot per event
// while the job runs, then a final event carrying the result.
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ticker := time.NewTicker(200 * time.Millisecond)
	defer ticker.Stop()
	for {
		resp := s.jobResponse(j)
		data, err := json.Marshal(resp)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", data)
		flusher.Flush()
		if resp.State == campaign.JobDone || resp.State == campaign.JobFailed {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			// Loop once more to emit the terminal event.
		case <-ticker.C:
		}
	}
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		writeError(w, http.StatusNotFound, errors.New("no result cache configured"))
		return
	}
	key := r.PathValue("key")
	res, ok := s.cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", key))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// jobResponse renders a job's status, attaching the result when terminal.
func (s *server) jobResponse(j *campaign.Job) jobResponse {
	resp := jobResponse{JobStatus: j.Status()}
	if resp.State == campaign.JobDone {
		resp.Result, _ = j.Result()
	}
	return resp
}

// fabricCampaignRequest submits a distributed campaign. Fault mode shards
// a fault-injection configuration into its workload × variant × site
// cells; bench mode shards a workload list into one bench cell per
// workload.
type fabricCampaignRequest struct {
	Mode     string              `json:"mode,omitempty"` // "fault" (default when fault set) or "bench"
	Fault    *faultinject.Config `json:"fault,omitempty"`
	Priority int                 `json:"priority,omitempty"`

	// Bench mode.
	Workloads []string `json:"workloads,omitempty"`
	Variant   string   `json:"variant,omitempty"`
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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	var camp *fabric.Campaign
	var err error
	switch {
	case req.Fault != nil:
		camp, err = s.coord.SubmitFault(*req.Fault, req.Priority)
	default:
		names := req.Workloads
		if len(names) == 0 {
			names = workload.Names()
		}
		var cells []campaign.Spec
		for _, name := range names {
			jr := jobRequest{
				Workload:  name,
				Variant:   req.Variant,
				Scale:     req.Scale,
				MaxInsts:  req.MaxInsts,
				MaxCycles: req.MaxCycles,
			}
			spec, serr := s.spec(&jr)
			if serr != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("%s: %w", name, serr))
				return
			}
			cells = append(cells, spec)
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
