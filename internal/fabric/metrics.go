package fabric

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Metrics counts fabric activity. All counters are monotonic and safe for
// concurrent update; Snapshot gives a consistent-enough read for the
// chexd /metrics endpoint.
type Metrics struct {
	WorkersRegistered atomic.Int64 // registrations accepted (re-registrations count again)
	WorkersExpired    atomic.Int64 // workers reaped for missing heartbeats
	WorkersLeft       atomic.Int64 // graceful deregistrations

	CampaignsSubmitted atomic.Int64 // campaigns accepted by Submit
	CampaignsRejected  atomic.Int64 // campaigns refused by admission control (queue full)
	CampaignsDone      atomic.Int64 // campaigns finished with every cell done
	CampaignsFailed    atomic.Int64 // campaigns finished with at least one failed cell

	CellsQueued    atomic.Int64 // cells enqueued for distribution
	CellsFromCache atomic.Int64 // cells satisfied from the result store at admission
	CellsLocal     atomic.Int64 // cells executed on the coordinator's local pool (degraded mode)

	LeasesGranted  atomic.Int64 // leases handed to workers
	LeasesExpired  atomic.Int64 // leases reaped past their deadline (cell requeued)
	Completions    atomic.Int64 // first terminal record per cell
	DupCompletions atomic.Int64 // idempotently ignored repeat completions
	LateCompletes  atomic.Int64 // completions whose lease had already expired (still recorded if first)
}

// MetricsSnapshot is a point-in-time copy of the counters.
type MetricsSnapshot struct {
	WorkersRegistered  int64 `json:"workersRegistered"`
	WorkersExpired     int64 `json:"workersExpired"`
	WorkersLeft        int64 `json:"workersLeft"`
	CampaignsSubmitted int64 `json:"campaignsSubmitted"`
	CampaignsRejected  int64 `json:"campaignsRejected"`
	CampaignsDone      int64 `json:"campaignsDone"`
	CampaignsFailed    int64 `json:"campaignsFailed"`
	CellsQueued        int64 `json:"cellsQueued"`
	CellsFromCache     int64 `json:"cellsFromCache"`
	CellsLocal         int64 `json:"cellsLocal"`
	LeasesGranted      int64 `json:"leasesGranted"`
	LeasesExpired      int64 `json:"leasesExpired"`
	Completions        int64 `json:"completions"`
	DupCompletions     int64 `json:"dupCompletions"`
	LateCompletes      int64 `json:"lateCompletes"`
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		WorkersRegistered:  m.WorkersRegistered.Load(),
		WorkersExpired:     m.WorkersExpired.Load(),
		WorkersLeft:        m.WorkersLeft.Load(),
		CampaignsSubmitted: m.CampaignsSubmitted.Load(),
		CampaignsRejected:  m.CampaignsRejected.Load(),
		CampaignsDone:      m.CampaignsDone.Load(),
		CampaignsFailed:    m.CampaignsFailed.Load(),
		CellsQueued:        m.CellsQueued.Load(),
		CellsFromCache:     m.CellsFromCache.Load(),
		CellsLocal:         m.CellsLocal.Load(),
		LeasesGranted:      m.LeasesGranted.Load(),
		LeasesExpired:      m.LeasesExpired.Load(),
		Completions:        m.Completions.Load(),
		DupCompletions:     m.DupCompletions.Load(),
		LateCompletes:      m.LateCompletes.Load(),
	}
}

// Render writes the counters in the text exposition format scrapers
// expect: one `name value` line per counter, in fixed order.
func (s MetricsSnapshot) Render() string {
	var b strings.Builder
	row := func(name string, v int64) {
		fmt.Fprintf(&b, "fabric_%s %d\n", name, v)
	}
	row("workers_registered", s.WorkersRegistered)
	row("workers_expired", s.WorkersExpired)
	row("workers_left", s.WorkersLeft)
	row("campaigns_submitted", s.CampaignsSubmitted)
	row("campaigns_rejected", s.CampaignsRejected)
	row("campaigns_done", s.CampaignsDone)
	row("campaigns_failed", s.CampaignsFailed)
	row("cells_queued", s.CellsQueued)
	row("cells_from_cache", s.CellsFromCache)
	row("cells_local", s.CellsLocal)
	row("leases_granted", s.LeasesGranted)
	row("leases_expired", s.LeasesExpired)
	row("completions", s.Completions)
	row("completions_duplicate", s.DupCompletions)
	row("completions_late", s.LateCompletes)
	return b.String()
}

// CacheMetrics counts two-tier cache activity (TieredCache).
type CacheMetrics struct {
	LocalHits   atomic.Int64 // served from the local disk tier
	PeerHits    atomic.Int64 // served from the peer tier (and written through)
	PeerMisses  atomic.Int64 // peer answered "no such key"
	PeerErrors  atomic.Int64 // peer unreachable or timed out (fell back to recompute)
	PeerCorrupt atomic.Int64 // peer response failed validation (fell back to recompute)
	Misses      atomic.Int64 // full misses (recompute)
}

// CacheMetricsSnapshot is a point-in-time copy of the counters.
type CacheMetricsSnapshot struct {
	LocalHits   int64 `json:"localHits"`
	PeerHits    int64 `json:"peerHits"`
	PeerMisses  int64 `json:"peerMisses"`
	PeerErrors  int64 `json:"peerErrors"`
	PeerCorrupt int64 `json:"peerCorrupt"`
	Misses      int64 `json:"misses"`
}

// Snapshot copies the counters.
func (m *CacheMetrics) Snapshot() CacheMetricsSnapshot {
	return CacheMetricsSnapshot{
		LocalHits:   m.LocalHits.Load(),
		PeerHits:    m.PeerHits.Load(),
		PeerMisses:  m.PeerMisses.Load(),
		PeerErrors:  m.PeerErrors.Load(),
		PeerCorrupt: m.PeerCorrupt.Load(),
		Misses:      m.Misses.Load(),
	}
}
