package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"chex86/internal/campaign"
	"chex86/internal/decode"
	"chex86/internal/fabric"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// fabric-mix shape: a closed loop of fabricClients callers, each
// submitting one campaign of pairsPerCamp × 2 bench cells and waiting for
// it before the next, against a loopback coordinator with fabricWorkers
// in-process workers. Clients plus workers keep the load to the host's
// two cores.
const (
	fabricClients   = 2
	fabricWorkers   = 2
	pairsPerCamp    = 2 // each pair is one program, run insecure and prediction
	fabricPoll      = 100 * time.Millisecond
	fabricCellScale = 0.1
	cellInsts       = 10000 // post-warmup instruction budget of a cell
	fabricSetups    = 101   // fabric start-ups per run; setup_s is their median
	repeatShare     = 0.5
	campaignTimeout = 60 * time.Second
	registerTimeout = 10 * time.Second
	heapPoll        = 10 * time.Millisecond

	// fabricMaxSetup excludes the programs with the longest allocation
	// phases (mcf, canneal, xalancbmk: 66k to 139k macro-ops before the
	// warmup boundary). Their cells run 40 to 120 ms, and on a shared host
	// they carried the latency tail with them by 30%; without them a cell
	// runs under 20 ms, so the fabric's polling and scheduling set the
	// latency, and the sim workloads measure the simulator.
	fabricMaxSetup = 50000
)

// New pairs take cycle limits counting up from cycleLimitBase: far beyond
// any cell's cycle count, a limit changes the cell's key and nothing it
// simulates, so every cell of one program and variant does the same work.
const cycleLimitBase = 1 << 40

// cellKey names one campaign cell: campaign ID and cell index.
type cellKey [2]int

// fabricRecorder collects the timings the benchmark's transport and
// executor wrappers observe. Safe for concurrent use.
type fabricRecorder struct {
	mu                      sync.Mutex
	submitAt                map[int]int64
	leaseAt, doneAt         map[cellKey]int64
	leaseMS, completeMS     []float64
	fetchMS, execMS         []float64
	leases, emptyLeases     int
	fetches, fetchHits      int
	execInsts               uint64                 // post-warmup macro-ops of every executed cell
	execNS                  map[execKind][]float64 // campaign.Execute time of each executed cell
	kindInsts               map[execKind]uint64    // post-warmup macro-ops of one cell of the kind
	cellsQueued, cellsCache int64
}

// execKind is one program under one variant: every cell of a kind does the
// same simulated work, whatever its cycle limit.
type execKind struct {
	workload string
	variant  decode.Variant
}

func newFabricRecorder() *fabricRecorder {
	return &fabricRecorder{
		submitAt:  map[int]int64{},
		leaseAt:   map[cellKey]int64{},
		doneAt:    map[cellKey]int64{},
		execNS:    map[execKind][]float64{},
		kindInsts: map[execKind]uint64{},
	}
}

// execKinst is the workers' simulation rate over the cells of the given
// variants: each kind's macro-ops over the shortest campaign.Execute time
// of its cells, summed over kinds, as the sim workloads price each Step
// chunk at its least-disturbed time. The collector's cost shows in the
// fabric's latencies and throughput, which are taken over every cell.
func (r *fabricRecorder) execKinst(vs ...decode.Variant) float64 {
	var insts, ns float64
	for k, xs := range r.execNS {
		if slices.Contains(vs, k.variant) {
			insts += float64(r.kindInsts[k])
			ns += slices.Min(xs)
		}
	}
	return ratio(insts*1e6, ns)
}

// timedTransport is the workers' view of the coordinator: the HTTP client
// with every call timed, and one "cell" span open from a lease until its
// completion.
type timedTransport struct {
	inner      fabric.Transport
	run        *fabricRun
	rec        *fabricRecorder
	track      int
	registered chan<- struct{}

	mu   sync.Mutex
	cell int    // open cell span, 0 when idle
	req  string // its request ID
}

func (t *timedTransport) current() (int, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cell, t.req
}

func (t *timedTransport) Register(ctx context.Context, info fabric.WorkerInfo) (*fabric.RegisterReply, error) {
	reply, err := t.inner.Register(ctx, info)
	if err == nil {
		select {
		case t.registered <- struct{}{}:
		default:
		}
	}
	return reply, err
}

func (t *timedTransport) Heartbeat(ctx context.Context, workerID string) error {
	return t.inner.Heartbeat(ctx, workerID)
}

func (t *timedTransport) Deregister(ctx context.Context, workerID string) error {
	return t.inner.Deregister(ctx, workerID)
}

func (t *timedTransport) Lease(ctx context.Context, workerID string) (*fabric.Lease, error) {
	f := t.run
	s := f.clock.Now()
	l, err := t.inner.Lease(ctx, workerID)
	e := f.clock.Now()
	f.tracer.Add("fabric.Lease", "", 0, t.track, s, e)
	r := t.rec
	r.mu.Lock()
	r.leases++
	r.leaseMS = append(r.leaseMS, float64(e-s)/1e6)
	if l == nil {
		r.emptyLeases++
	} else {
		r.leaseAt[cellKey{l.CampaignID, l.CellIndex}] = e
	}
	r.mu.Unlock()
	if l != nil {
		req := fmt.Sprintf("c%d.%d", l.CampaignID, l.CellIndex)
		t.mu.Lock()
		t.cell, t.req = f.tracer.Begin("cell", req, 0, t.track, e), req
		t.mu.Unlock()
	}
	return l, err
}

func (t *timedTransport) Complete(ctx context.Context, req fabric.CompleteRequest) error {
	f := t.run
	s := f.clock.Now()
	err := t.inner.Complete(ctx, req)
	e := f.clock.Now()
	cell, id := t.current()
	f.tracer.Add("fabric.Complete", id, cell, t.track, s, e)
	f.tracer.Finish(cell, e)
	t.mu.Lock()
	t.cell, t.req = 0, ""
	t.mu.Unlock()
	k := cellKey{req.CampaignID, req.CellIndex}
	r := t.rec
	r.mu.Lock()
	r.completeMS = append(r.completeMS, float64(e-s)/1e6)
	if at, ok := r.leaseAt[k]; ok {
		r.execMS = append(r.execMS, float64(s-at)/1e6)
	}
	if err == nil {
		r.doneAt[k] = e
	}
	r.mu.Unlock()
	return err
}

func (t *timedTransport) FetchResult(ctx context.Context, key string) (*campaign.Result, error) {
	f := t.run
	s := f.clock.Now()
	res, err := t.inner.FetchResult(ctx, key)
	e := f.clock.Now()
	cell, id := t.current()
	f.tracer.Add("fabric.FetchResult", id, cell, t.track, s, e)
	r := t.rec
	r.mu.Lock()
	r.fetches++
	r.fetchMS = append(r.fetchMS, float64(e-s)/1e6)
	if err == nil && res != nil {
		r.fetchHits++
	}
	r.mu.Unlock()
	return res, err
}

// exec is the worker pool's executor: campaign.Execute, timed.
func (t *timedTransport) exec(ctx context.Context, spec *campaign.Spec) (*campaign.Result, error) {
	f := t.run
	s := f.clock.Now()
	res, err := campaign.Execute(ctx, spec)
	e := f.clock.Now()
	cell, id := t.current()
	f.tracer.Add("campaign.Execute", id, cell, t.track, s, e)
	if err == nil && res != nil && res.Bench != nil {
		k := execKind{spec.Workload, spec.Config.Variant}
		t.rec.mu.Lock()
		t.rec.execInsts += res.Bench.Insts
		t.rec.execNS[k] = append(t.rec.execNS[k], float64(e-s))
		t.rec.kindInsts[k] = res.Bench.Insts
		t.rec.mu.Unlock()
	}
	return res, err
}

// fabricStack is one running coordinator with its HTTP server and workers.
type fabricStack struct {
	rec    *fabricRecorder
	coord  *fabric.Coordinator
	srv    *http.Server
	hc     *http.Transport
	pools  []*campaign.Pool
	cancel context.CancelFunc
	dir    string

	workers, serving sync.WaitGroup
}

// startFabric starts a coordinator with a disk cache and no local pool,
// serves it on a loopback port, and starts the workers, each with its own
// disk cache and the coordinator as peer tier. It returns once every
// worker has registered.
func (f *fabricRun) startFabric() (*fabricStack, error) {
	dir, err := os.MkdirTemp(f.workDir, "fabric-")
	if err != nil {
		return nil, fmt.Errorf("fabric dir: %w", err)
	}
	st := &fabricStack{rec: newFabricRecorder(), dir: dir, hc: &http.Transport{}}
	coordCache, err := campaign.OpenCache(filepath.Join(dir, "coordinator"))
	if err != nil {
		st.stop()
		return nil, err
	}
	st.coord = fabric.NewCoordinator(fabric.CoordinatorOptions{Clock: f.clock, Cache: coordCache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.stop()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.srv = &http.Server{Handler: st.coord.Handler()}
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = st.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()

	base := "http://" + ln.Addr().String()
	var ctx context.Context
	ctx, st.cancel = context.WithCancel(context.Background())
	registered := make(chan struct{}, fabricWorkers)
	for i := 0; i < fabricWorkers; i++ {
		local, err := campaign.OpenCache(filepath.Join(dir, fmt.Sprintf("worker%d", i+1)))
		if err != nil {
			st.stop()
			return nil, err
		}
		tt := &timedTransport{
			inner:      fabric.NewClient(base, &http.Client{Timeout: 30 * time.Second, Transport: st.hc}),
			run:        f,
			rec:        st.rec,
			track:      fabricClients + 1 + i,
			registered: registered,
		}
		pool := campaign.NewPool(campaign.Options{
			Workers: 1,
			Cache:   fabric.NewTieredCache(local, tt, f.clock, 2*time.Second),
			Exec:    tt.exec,
			Clock:   f.clock.Now,
		})
		st.pools = append(st.pools, pool)
		w, err := fabric.NewWorker(fabric.WorkerOptions{
			ID:           fmt.Sprintf("worker%d", i+1),
			Transport:    tt,
			Pool:         pool,
			Clock:        f.clock,
			PollInterval: fabricPoll,
		})
		if err != nil {
			st.stop()
			return nil, err
		}
		st.workers.Add(1)
		go func() {
			defer st.workers.Done()
			_ = w.Run(ctx) // returns ctx.Err() once stopped
		}()
	}
	timeout := f.clock.After(registerTimeout)
	for i := 0; i < fabricWorkers; i++ {
		select {
		case <-registered:
		case <-timeout:
			st.stop()
			return nil, fmt.Errorf("workers did not register within %v", registerTimeout)
		}
	}
	return st, nil
}

// stop stops the workers, then the server and the pools, waits for every
// goroutine the stack started, and deletes its caches. Workers deregister
// over HTTP on their way out, so the server outlives them; once they are
// gone no request is in flight, and Close drops the idle connections at
// once (Shutdown would wait out a dialed but unused one for seconds).
func (st *fabricStack) stop() {
	if st.cancel != nil {
		st.cancel()
	}
	st.workers.Wait()
	if st.srv != nil {
		_ = st.srv.Close()
	}
	st.serving.Wait()
	for _, p := range st.pools {
		p.Close()
	}
	st.hc.CloseIdleConnections()
	_ = os.RemoveAll(st.dir)
}

// fabricRun is one run of fabric-mix.
type fabricRun struct {
	clock    Clock
	tracer   *Tracer
	seed     uint64
	scale    float64
	workDir  string
	programs []string

	mu        sync.Mutex
	tally     tally
	first     map[string][]byte  // cell key → first result bytes
	slowdowns map[string]float64 // program → prediction/insecure cycles
	camps     []campaignRecord   // finished campaigns, for latencies
	heap      []float64          // live heap after each collection cycle, bytes
}

// campaignRecord is what a client saw of one campaign.
type campaignRecord struct {
	id                  int
	submitted, admitted int64 // Submit called, Submit returned
	waited              int64 // campaign done or timed out
	fromCache           []bool
	done                bool
}

// pair is one drawn program and cycle limit, simulated under both
// variants.
type pair struct {
	workload  string
	maxCycles uint64
}

func (f *fabricRun) spec(p pair, v decode.Variant) campaign.Spec {
	cfg := pipeline.DefaultConfig()
	cfg.Variant = v
	return campaign.BenchSpec(p.workload, cfg, fabricCellScale*f.scale, uint64(cellInsts*f.scale), p.maxCycles)
}

// client runs one closed-loop caller until deadline. Its draws come from
// its own seeded stream: each pair repeats one of the client's earlier
// pairs with probability repeatShare (and is then served from the cache),
// or is a new cycle limit for the next program of a deck that holds every
// program once and is reshuffled when used up. The deck keeps the program
// mix of every run equal, so the seed decides the order and not how many
// long cells a run gets, which would move the latency tail by 30%. Before
// each campaign the client thinks for a seeded time in [0, fabricPoll),
// which keeps its submissions from locking onto the workers' poll phase:
// without it the loop flips between two throughputs depending on which
// side wins the race after each completion.
func (f *fabricRun) client(id int, st *fabricStack, deadline int64) {
	s := newStream(f.seed, fmt.Sprintf("fabric-client-%d", id))
	var deck, history []pair
	draw := func() pair {
		if len(history) > 0 && s.float() < repeatShare {
			return history[s.intn(len(history))]
		}
		if len(deck) == 0 {
			for _, name := range f.programs {
				deck = append(deck, pair{workload: name})
			}
			for i := len(deck) - 1; i > 0; i-- {
				j := s.intn(i + 1)
				deck[i], deck[j] = deck[j], deck[i]
			}
		}
		// Even limits for client 0, odd for client 1, and one step per
		// draw: no two new cells share a key.
		p := deck[len(deck)-1]
		deck = deck[:len(deck)-1]
		p.maxCycles = cycleLimitBase + uint64(2*len(history)+id)
		history = append(history, p)
		return p
	}
	track := id + 1
	for f.clock.Now() < deadline {
		<-f.clock.After(time.Duration(s.intn(int(fabricPoll))))
		var pairs []pair
		var specs []campaign.Spec
		for i := 0; i < pairsPerCamp; i++ {
			p := draw()
			pairs = append(pairs, p)
			for _, v := range variants {
				specs = append(specs, f.spec(p, v))
			}
		}
		cr := campaignRecord{submitted: f.clock.Now()}
		camp, err := st.coord.Submit(specs, 0)
		cr.admitted = f.clock.Now()
		if err != nil {
			f.mu.Lock()
			for range specs {
				f.tally.op("submit", err)
			}
			f.mu.Unlock()
			continue
		}
		cr.id = camp.ID()
		req := fmt.Sprintf("c%d", cr.id)
		root := f.tracer.Begin("campaign", req, 0, track, cr.submitted)
		f.tracer.Add("fabric.Submit", req, root, track, cr.submitted, cr.admitted)
		st.rec.mu.Lock()
		st.rec.submitAt[cr.id] = cr.submitted
		st.rec.mu.Unlock()
		select {
		case <-camp.Done():
			cr.done = true
		case <-f.clock.After(campaignTimeout):
		}
		cr.waited = f.clock.Now()
		f.tracer.Finish(root, cr.waited)
		f.finishCampaign(camp, cr, pairs, specs)
	}
}

// finishCampaign checks one campaign's cells and records them.
func (f *fabricRun) finishCampaign(camp *fabric.Campaign, cr campaignRecord, pairs []pair, specs []campaign.Spec) {
	results := camp.Results()
	st := camp.Status(true)
	errs := make([]error, len(specs))
	data := make([][]byte, len(specs))
	cr.fromCache = make([]bool, len(specs))
	for i := range specs {
		cr.fromCache[i] = i < len(st.Detail) && st.Detail[i].By == "cache"
		switch {
		case !cr.done:
			errs[i] = fmt.Errorf("campaign %d did not finish within %v", cr.id, campaignTimeout)
		case i >= len(results) || results[i] == nil:
			msg := "no result"
			if i < len(st.Detail) && st.Detail[i].Error != "" {
				msg = st.Detail[i].Error
			}
			errs[i] = errors.New(msg)
		case results[i].Bench == nil:
			errs[i] = fmt.Errorf("result has no bench payload")
		case results[i].Bench.Violations > 0:
			errs[i] = fmt.Errorf("%d violation(s) on a benign program", results[i].Bench.Violations)
		default:
			data[i], errs[i] = json.Marshal(results[i])
		}
	}
	keys := make([]string, len(specs))
	for i := range specs {
		if errs[i] == nil {
			keys[i], errs[i] = specs[i].Key()
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range specs {
		if errs[i] != nil {
			continue
		}
		if first, ok := f.first[keys[i]]; ok {
			errs[i] = checkRepeat(first, data[i])
		} else {
			f.first[keys[i]] = data[i]
		}
	}
	for pi, p := range pairs {
		ins, pred := pi*len(variants), pi*len(variants)+1
		if errs[ins] != nil || errs[pred] != nil {
			continue
		}
		a, b := results[ins].Bench, results[pred].Bench
		errs[pred] = checkSameInsts(a.Insts, b.Insts)
		if errs[pred] == nil && a.Cycles > 0 {
			f.slowdowns[p.workload] = float64(b.Cycles) / float64(a.Cycles)
		}
	}
	for i, spec := range specs {
		f.tally.op(fmt.Sprintf("c%d.%d %s/%s", cr.id, i, spec.Workload, variantName(spec.Config.Variant)), errs[i])
	}
	f.camps = append(f.camps, cr)
}

// sampleHeap polls the live heap the garbage collector marked in its most
// recent cycle every heapPoll until stop is closed, and keeps one sample
// per cycle. Forcing collections at chosen moments instead would catch
// zero, one or two simulations in flight by chance; the collector's own
// cycles come many times a second. host_mem_mb is their 99th percentile:
// the largest sample depends on how many cells a burst of host load piled
// up at one collection and moved by 9% between runs, the 99th percentile
// by 2%.
func (f *fabricRun) sampleHeap(stop <-chan struct{}) {
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	var last uint64
	for {
		select {
		case <-stop:
			return
		case <-f.clock.After(heapPoll):
		}
		metrics.Read(sample)
		if cycle := sample[0].Value.Uint64(); cycle != last {
			last = cycle
			f.mu.Lock()
			f.heap = append(f.heap, float64(sample[1].Value.Uint64()))
			f.mu.Unlock()
		}
	}
}

// phase is one closed-loop measurement on one fabric stack.
type phase struct {
	rec        *fabricRecorder
	start, end int64
	camps      []campaignRecord
	slowdowns  []float64
	heap       []float64
}

// loop runs the clients against st for budget nanoseconds and returns
// what they measured. The stack's caches start empty.
func (f *fabricRun) loop(st *fabricStack, budget int64) phase {
	f.first = map[string][]byte{}
	f.slowdowns = map[string]float64{}
	f.camps = nil
	f.heap = nil
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		f.sampleHeap(stop)
	}()
	ph := phase{start: f.clock.Now()}
	deadline := ph.start + budget
	var wg sync.WaitGroup
	for c := 0; c < fabricClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f.client(c, st, deadline)
		}(c)
	}
	wg.Wait()
	ph.end = f.clock.Now()
	close(stop)
	sampler.Wait()
	m := st.coord.Metrics()
	st.rec.mu.Lock()
	st.rec.cellsQueued, st.rec.cellsCache = m.CellsQueued.Load(), m.CellsFromCache.Load()
	st.rec.mu.Unlock()
	ph.rec, ph.camps, ph.heap = st.rec, f.camps, f.heap
	for _, k := range sortedKeys(f.slowdowns) {
		ph.slowdowns = append(ph.slowdowns, f.slowdowns[k])
	}
	return ph
}

// cells counts the cells of finished campaigns and returns the latency of
// each one a worker ran: from Submit to the worker's completion. Cells the
// coordinator serves from its cache return inside Submit; they count in
// cells_per_s but would split the latency distribution into two modes
// with its median between them.
func (ph *phase) cells() (n int, ran []float64) {
	for _, cr := range ph.camps {
		if !cr.done {
			continue
		}
		n += len(cr.fromCache)
		for i, cached := range cr.fromCache {
			if cached {
				continue
			}
			end, ok := ph.rec.doneAt[cellKey{cr.id, i}]
			if !ok {
				end = cr.waited
			}
			ran = append(ran, float64(end-cr.submitted)/1e6)
		}
	}
	return n, ran
}

func (ph *phase) endToEnd(setups []float64, samples map[string]int) map[string]float64 {
	samples["campaigns"] = len(ph.camps)
	samples["gc_cycles"] = len(ph.heap)
	return map[string]float64{
		"sim_slowdown": Geomean(ph.slowdowns),
		"setup_s":      Median(setups),
		"host_mem_mb":  Percentile(ph.heap, 99) / 1e6,
	}
}

// hostMetrics derives the fabric's throughput and latency from an
// untraced loop.
func (ph *phase) hostMetrics(samples map[string]int) map[string]float64 {
	n, lat := ph.cells()
	samples["cells"] = n
	samples["cells_ran"] = len(lat)
	samples["cell_latency_p90_beyond"] = Beyond(len(lat), 90)
	return map[string]float64{
		"kinst_per_s.insecure":   ph.rec.execKinst(decode.VariantInsecure),
		"kinst_per_s.prediction": ph.rec.execKinst(decode.VariantMicrocodePrediction),
		"cells_per_s":            ratio(float64(n), float64(ph.end-ph.start)/1e9),
		"cell_latency_p50_ms":    Percentile(lat, 50),
		"cell_latency_p90_ms":    Percentile(lat, 90),
	}
}

func (ph *phase) perLayer(untraced phase, host hostDelta, samples map[string]int) map[string]float64 {
	r := ph.rec
	var wait []float64
	for k, at := range r.leaseAt {
		if sub, ok := r.submitAt[k[0]]; ok {
			wait = append(wait, float64(at-sub)/1e6)
		}
	}
	m := untraced.hostMetrics(samples)
	m["fabric.queue_wait_ms.p50"] = Percentile(wait, 50)
	m["fabric.queue_wait_ms.p90"] = Percentile(wait, 90)
	m["fabric.lease_ms.p50"] = Percentile(r.leaseMS, 50)
	m["fabric.lease_empty_pct"] = pct(uint64(r.emptyLeases), uint64(r.leases))
	m["fabric.complete_ms.p50"] = Percentile(r.completeMS, 50)
	m["fabric.peer_fetch_ms.p50"] = Percentile(r.fetchMS, 50)
	m["fabric.peer_hit_pct"] = pct(uint64(r.fetchHits), uint64(r.fetches))
	m["campaign.exec_ms.p50"] = Percentile(r.execMS, 50)
	m["campaign.exec_ms.p90"] = Percentile(r.execMS, 90)
	m["campaign.admission_hit_pct"] = pct(uint64(r.cellsCache), uint64(r.cellsCache+r.cellsQueued))
	m["host.allocs_per_kinst"] = perKinst(host.mallocs, r.execInsts)
	m["host.gc_pause_ms"] = float64(host.pauseNS) / 1e6
	m["trace_overhead_pct"] = 100 * (ratio(untraced.rec.execKinst(variants...), r.execKinst(variants...)) - 1)
	return m
}

// runFabricWorkload runs fabric-mix: fabricSetups start-ups for setup_s
// (the last one stays up), then the closed loop for the budget. A traced
// run measures one untraced and one traced loop on fresh stacks.
func runFabricWorkload(opts *Options, rec *Record) (*Tracer, error) {
	f := &fabricRun{
		clock:   opts.Clock,
		seed:    opts.Seed,
		scale:   opts.scale(),
		workDir: opts.WorkDir,
	}
	for _, p := range workload.Catalog() {
		if p.SetupInsts() <= fabricMaxSetup {
			f.programs = append(f.programs, p.Name)
		}
	}
	if err := os.MkdirAll(f.workDir, 0o755); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	budget := int64(opts.Seconds * 1e9)
	if !opts.Trace {
		var setups []float64
		var st *fabricStack
		for i := 0; i < fabricSetups; i++ {
			runtime.GC() // as before each sim cell: no earlier garbage in the timed start-up
			s := f.clock.Now()
			next, err := f.startFabric()
			if err != nil {
				if st != nil {
					st.stop()
				}
				return nil, err
			}
			setups = append(setups, float64(f.clock.Now()-s)/1e9)
			if st != nil {
				st.stop()
			}
			st = next
		}
		ph := f.loop(st, budget)
		st.stop()
		rec.setMetrics(EndToEnd, ph.endToEnd(setups, rec.Samples))
	} else {
		st, err := f.startFabric()
		if err != nil {
			return nil, err
		}
		untraced := f.loop(st, budget*45/100)
		st.stop()
		// Set before the stack starts: its goroutines read the tracer.
		f.tracer = &Tracer{}
		if st, err = f.startFabric(); err != nil {
			return nil, err
		}
		before := readHost()
		traced := f.loop(st, budget*45/100)
		host := hostSince(before)
		st.stop()
		rec.setMetrics(PerLayer, traced.perLayer(untraced, host, rec.Samples))
	}
	rec.Attempted, rec.Failed, rec.Failures = f.tally.attempted, f.tally.failed, f.tally.failures
	return f.tracer, nil
}
