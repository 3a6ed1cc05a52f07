package campaign

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Metrics counts pool activity. All counters are monotonic and safe for
// concurrent update; Snapshot gives a consistent-enough read for reports
// and the chexd /metrics endpoint.
type Metrics struct {
	Submitted   atomic.Int64 // jobs accepted by Submit
	Deduped     atomic.Int64 // submissions coalesced onto an in-flight job
	CacheHits   atomic.Int64 // submissions satisfied from the result cache
	CacheMisses atomic.Int64 // submissions that had to simulate
	Started     atomic.Int64 // executions begun
	Completed   atomic.Int64 // jobs finished successfully
	Failed      atomic.Int64 // jobs finished in error
	Panics      atomic.Int64 // executor panics caught by the isolation guard
}

// MetricsSnapshot is a point-in-time copy of the counters.
type MetricsSnapshot struct {
	Submitted   int64 `json:"submitted"`
	Deduped     int64 `json:"deduped"`
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	Started     int64 `json:"started"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Panics      int64 `json:"panics"`
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Submitted:   m.Submitted.Load(),
		Deduped:     m.Deduped.Load(),
		CacheHits:   m.CacheHits.Load(),
		CacheMisses: m.CacheMisses.Load(),
		Started:     m.Started.Load(),
		Completed:   m.Completed.Load(),
		Failed:      m.Failed.Load(),
		Panics:      m.Panics.Load(),
	}
}

// Render writes the counters in the text exposition format scrapers
// expect: one `name value` line per counter, in fixed order. The cache
// counters are left out: chexd's pool runs without a cache, so they
// never move there, and fabric_cells_from_cache counts cached cells.
func (s MetricsSnapshot) Render() string {
	var b strings.Builder
	row := func(name string, v int64) {
		fmt.Fprintf(&b, "campaign_%s %d\n", name, v)
	}
	row("jobs_submitted", s.Submitted)
	row("jobs_deduped", s.Deduped)
	row("runs_started", s.Started)
	row("jobs_completed", s.Completed)
	row("jobs_failed", s.Failed)
	row("panics_caught", s.Panics)
	return b.String()
}
