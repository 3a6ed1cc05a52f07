package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verdicts of Compare, for a change judged by paired runs against its
// parent on a noisy host.
const (
	Improved   = "improved"   // B wins ≥ 9/10 of pairs and the medians differ by more than A's quartile distance
	NoWorse    = "no worse"   // B's median is within the metric's bound of A's
	Unresolved = "unresolved" // the spread exceeds the bound and not every B run beats every A run
	Worse      = "worse"      // B's median is worse than A's by more than the bound
	NotJudged  = "no bound"   // a per-layer metric that did not improve: it has no bound to judge against
)

// Summary is one metric over one set of runs.
type Summary struct {
	N              int
	Median, Q1, Q3 float64
}

func summarize(xs []float64) Summary {
	q1, _, q3 := Quartiles(xs)
	return Summary{N: len(xs), Median: Median(xs), Q1: q1, Q3: q3}
}

// Row is the comparison of one metric on one workload.
type Row struct {
	Workload string
	Metric   Def
	PerLayer bool // from traced runs, without a bound
	A, B     Summary
	WinFrac  float64 // share of seed-paired runs in which B is better
	Change   float64 // (median B − median A) / median A
	Verdict  string
}

// LoadRuns reads every run record (*.json) in dir.
func LoadRuns(dir string) ([]*Record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var runs []*Record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, &r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no run records (*.json)", dir)
	}
	return runs, nil
}

// Compare judges set b against baseline set a for every end-to-end metric
// on every workload both sets ran untraced, and for every per-layer metric
// on every workload both sets ran traced (skipping ones that read 0 on
// both sides: layers the workload does not exercise). Runs are paired by
// seed; when the sets share no seed they are paired in seed order. It also
// returns an error when any run failed a check or when runs of one
// workload within one set disagree on a simulated metric. Between the sets
// a simulated metric is judged like any other, against its bound.
func Compare(a, b []*Record) ([]Row, error) {
	var problems []string
	for _, set := range [][]*Record{a, b} {
		for _, r := range set {
			if !r.Correct || r.Failed > 0 {
				problems = append(problems, fmt.Sprintf("%s seed %d: %d of %d operations failed",
					r.Workload, r.Seed, r.Failed, r.Attempted))
			}
		}
		if err := checkSimMetricsEqual(set); err != nil {
			problems = append(problems, err.Error())
		}
	}
	var rows []Row
	for _, w := range Workloads {
		for _, perLayer := range []bool{false, true} {
			ra, rb := runsOf(a, w, perLayer), runsOf(b, w, perLayer)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			defs := EndToEnd
			if perLayer {
				defs = PerLayer
			}
			pa, pb := pairRuns(ra, rb)
			for _, d := range defs {
				va, vb := values(ra, d.Name), values(rb, d.Name)
				row := Row{Workload: w, Metric: d, PerLayer: perLayer, A: summarize(va), B: summarize(vb),
					WinFrac: WinFraction(values(pa, d.Name), values(pb, d.Name), d.HigherBetter())}
				if perLayer && row.A.Median == 0 && row.B.Median == 0 {
					continue
				}
				row.Change = ratio(row.B.Median-row.A.Median, row.A.Median)
				row.Verdict = verdict(d, va, vb, row.WinFrac)
				if perLayer && row.Verdict != Improved {
					row.Verdict = NotJudged
				}
				rows = append(rows, row)
			}
		}
	}
	if len(problems) > 0 {
		return rows, fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return rows, nil
}

// runsOf returns the runs of workload w, traced or untraced, in seed
// order.
func runsOf(runs []*Record, w string, traced bool) []*Record {
	var out []*Record
	for _, r := range runs {
		if r.Workload == w && r.Trace == traced {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

// pairRuns pairs runs of equal seed; without any, it pairs in order.
func pairRuns(a, b []*Record) (pa, pb []*Record) {
	bySeed := map[uint64][]*Record{}
	for _, r := range b {
		bySeed[r.Seed] = append(bySeed[r.Seed], r)
	}
	for _, r := range a {
		if q := bySeed[r.Seed]; len(q) > 0 {
			pa, pb = append(pa, r), append(pb, q[0])
			bySeed[r.Seed] = q[1:]
		}
	}
	if len(pa) > 0 {
		return pa, pb
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	return a[:n], b[:n]
}

func values(runs []*Record, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict applies the rules in order: a gain must win nine tenths of the
// pairs by more than the baseline's own spread; a spread wider than the
// bound leaves the comparison unresolved unless B is better in every run;
// otherwise the medians decide against the bound.
func verdict(d Def, a, b []float64, winFrac float64) string {
	ma, mb := Median(a), Median(b)
	q1, _, q3 := Quartiles(a)
	better := mb < ma
	if d.HigherBetter() {
		better = mb > ma
	}
	if better && winFrac >= 0.9 && math.Abs(mb-ma) > math.Abs(q3-q1) {
		return Improved
	}
	if math.Max(Spread(a), Spread(b)) > d.Bound && !allBetter(a, b, d.HigherBetter()) {
		return Unresolved
	}
	worse := ratio(mb-ma, ma)
	if d.HigherBetter() {
		worse = -worse
	}
	if worse > d.Bound {
		return Worse
	}
	return NoWorse
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, higherBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if higherBetter {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// FormatRows renders a comparison table, one row per workload and metric.
func FormatRows(rows []Row) string {
	var s strings.Builder
	fmt.Fprintf(&s, "%-10s %-32s %-11s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "median A", "quartiles A", "median B", "quartiles B", "change", "win", "verdict")
	for _, r := range rows {
		bound := fmt.Sprintf("bound %.0f%%", 100*r.Metric.Bound)
		if r.PerLayer {
			bound = "traced"
		}
		fmt.Fprintf(&s, "%-10s %-32s %-11s %12.4f %25s %12.4f %25s %+7.2f%% %6.2f  %s (%s, n=%d/%d)\n",
			r.Workload, r.Metric.Name, r.Metric.Unit,
			r.A.Median, fmt.Sprintf("[%.4f, %.4f]", r.A.Q1, r.A.Q3),
			r.B.Median, fmt.Sprintf("[%.4f, %.4f]", r.B.Q1, r.B.Q3),
			100*r.Change, r.WinFrac, r.Verdict, bound, r.A.N, r.B.N)
	}
	return s.String()
}
