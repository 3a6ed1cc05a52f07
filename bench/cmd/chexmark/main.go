// Command chexmark runs one workload of the benchmark once and prints
// every metric with its unit, then a one-line JSON result as the last line
// of standard output. With -compare it judges two directories of run
// records against each other instead.
//
// Usage:
//
//	chexmark -workload spec-ptr -seed 1 [-seconds 20] [-trace 1] [-o run.json]
//	chexmark -compare setA/ setB/
//
// It is the only place in the benchmark that reads the wall clock.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"chex86/bench"
)

// wallClock is the host's monotonic clock as a bench.Clock.
type wallClock struct {
	once  sync.Once
	start time.Time
}

func (c *wallClock) Now() int64 {
	now := time.Now() //determinism:ok — the benchmark's single wall-clock read
	c.once.Do(func() { c.start = now })
	return int64(now.Sub(c.start))
}

func (c *wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func main() {
	workload := flag.String("workload", "", fmt.Sprintf("workload to run, one of %v", bench.Workloads))
	seed := flag.Uint64("seed", 0, "input seed: 0 runs the committed profiles, any other value held-out variants")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	traceOut := flag.String("trace-out", "", "Chrome trace-event JSON of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	out := flag.String("o", "", "also write the run record as JSON to this file")
	work := flag.String("work", ".bench_build", "scratch directory for fabric caches and traces")
	compare := flag.Bool("compare", false, "compare two directories of run records: chexmark -compare A B")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	rec, spans, err := bench.Run(bench.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		WorkDir:  *work,
		Clock:    &wallClock{},
	})
	if err != nil {
		fail(err)
	}
	if rec.Trace {
		path := *traceOut
		if path == "" {
			path = filepath.Join(*work, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		}
		if err := writeTrace(path, spans); err != nil {
			fail(err)
		}
		fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fail(err)
		}
	}
	rec.WriteText(os.Stdout)
	line, err := rec.ResultLine()
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "chexmark: -compare needs two run directories: baseline, then candidate")
		return 2
	}
	a, err := bench.LoadRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexmark:", err)
		return 2
	}
	b, err := bench.LoadRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexmark:", err)
		return 2
	}
	rows, err := bench.Compare(a, b)
	fmt.Print(bench.FormatRows(rows))
	status := 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexmark: FAILED:", err)
		status = 1
	}
	for _, r := range rows {
		if r.Verdict == bench.Worse {
			status = 1
		}
	}
	return status
}

func writeTrace(path string, spans []bench.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteChrome(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func writeJSON(path string, v *bench.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteRecord(f, v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "chexmark:", err)
	os.Exit(1)
}
