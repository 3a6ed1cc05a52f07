package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
)

// Options configures one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  float64 // measured time; a traced run splits it between an untraced and a traced half
	Trace    bool    // report per-layer metrics from a traced run instead of the end-to-end ones
	WorkDir  string  // scratch directory for the fabric's disk caches
	Clock    Clock

	// Scale multiplies every program scale and fabric cell budget (0 means
	// 1). The self-test shrinks runs with it.
	Scale float64
}

func (o *Options) scale() float64 {
	if o.Scale > 0 {
		return o.Scale
	}
	return 1
}

// Record is one run's outcome: the reported metrics plus what a reader
// needs to judge them.
type Record struct {
	Workload   string           `json:"workload"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Metrics    map[string]Value `json:"metrics"`
	Samples    map[string]int   `json:"samples"`
	CalibScore float64          `json:"calib_score"` // host speed at the start of the run, iterations/µs
	WallS      float64          `json:"wall_s"`      // the whole run, set-up included
	Failures   []string         `json:"failures,omitempty"`
}

// setMetrics stores every metric of defs from values (0 when absent).
func (r *Record) setMetrics(defs []Def, values map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.Name] = Value{Value: values[d.Name], Unit: d.Unit}
	}
}

// Run runs one workload once and returns its record and, for a traced
// run, its spans.
func Run(opts Options) (*Record, []Span, error) {
	if opts.Clock == nil {
		return nil, nil, fmt.Errorf("bench: no clock")
	}
	if opts.Seconds <= 0 {
		return nil, nil, fmt.Errorf("bench: seconds must be positive, got %v", opts.Seconds)
	}
	rec := &Record{
		Workload: opts.Workload,
		Seed:     opts.Seed,
		Seconds:  opts.Seconds,
		Trace:    opts.Trace,
		Metrics:  map[string]Value{},
		Samples:  map[string]int{},
	}
	start := opts.Clock.Now()
	rec.CalibScore = calibrate(opts.Clock)
	var tr *Tracer
	var err error
	if w, ok := simWorkloadFor(opts.Workload); ok {
		tr = runSimWorkload(&opts, w, rec)
	} else if opts.Workload == "fabric-mix" {
		tr, err = runFabricWorkload(&opts, rec)
	} else {
		return nil, nil, fmt.Errorf("bench: unknown workload %q (have %v)", opts.Workload, Workloads)
	}
	if err != nil {
		return nil, nil, err
	}
	if opts.Trace {
		rec.Metrics["host.calib_score"] = Value{Value: rec.CalibScore, Unit: "iter/us"}
	}
	rec.Correct = rec.Failed == 0
	rec.WallS = float64(opts.Clock.Now()-start) / 1e9
	return rec, tr.Spans(), nil
}

// calibIters sizes one calibration round at a few milliseconds.
const calibIters = 1 << 20

// calibrate scores the host's single-core speed with a fixed kernel (an
// xorshift stream driving dependent loads from a cache-resident table, the
// mix of the simulator's hot loops): kernel iterations per microsecond in
// the fastest of five rounds. It flags runs taken on a slowed host; it is
// not used to scale any metric.
func calibrate(clock Clock) float64 {
	var table [4096]uint64
	for i := range table {
		table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	best := 0.0
	for r := 0; r < 5; r++ {
		x, acc := uint64(0x243F6A8885A308D3), uint64(0)
		s := clock.Now()
		for i := 0; i < calibIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += table[(x+acc)&4095]
		}
		ns := clock.Now() - s
		runtime.KeepAlive(acc)
		if score := ratio(calibIters*1e3, float64(ns)); score > best {
			best = score
		}
	}
	return best
}

// ResultLine is the one-line JSON summary a run prints last.
func (r *Record) ResultLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// WriteRecord writes the full record as indented JSON, the form LoadRuns
// reads back.
func WriteRecord(w io.Writer, r *Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText prints the record for a reader: every metric with its unit,
// the sample counts, and any failed check.
func (r *Record) WriteText(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "chexmark %s seed %d, %s, %.0f s measured, %.1f s wall, host calibration %.1f iter/us\n",
		r.Workload, r.Seed, mode, r.Seconds, r.WallS, r.CalibScore)
	names := sortedKeys(r.Metrics)
	sort.SliceStable(names, func(i, j int) bool { return order(names[i]) < order(names[j]) })
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, v.Value, v.Unit)
	}
	for _, k := range sortedKeys(r.Samples) {
		fmt.Fprintf(w, "  samples %-26s %14d\n", k, r.Samples[k])
	}
	fmt.Fprintf(w, "  operations %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// order sorts metrics as BENCHMARK.json lists them.
func order(name string) int {
	i := 0
	for _, list := range [][]Def{EndToEnd, PerLayer} {
		for _, d := range list {
			if d.Name == name {
				return i
			}
			i++
		}
	}
	return i
}
