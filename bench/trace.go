package bench

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Span is one timed call into a layer. Spans of one request (a program
// under one variant, or one campaign cell) share Req; Parent is the ID of
// the enclosing span (0 for none); Track is the timeline row the span is
// drawn on (one per client or worker goroutine).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Track  int    `json:"track"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Tracer keeps spans in memory until the run ends. It never reads the
// clock itself: callers pass the times they already measured, so a traced
// call costs one append more than an untraced one. A nil *Tracer records
// nothing. Safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span starting at start and returns its ID (0 on a nil
// Tracer).
func (t *Tracer) Begin(name, req string, parent, track int, start int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Track: track, Start: start, End: start})
	return id
}

// Finish closes span id at end.
func (t *Tracer) Finish(id int, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// Add records a span whose start and end are both known.
func (t *Tracer) Add(name, req string, parent, track int, start, end int64) int {
	id := t.Begin(name, req, parent, track, start)
	t.Finish(id, end)
	return id
}

// Spans returns a copy of the recorded spans in ID order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's duration minus the part of its interval
// its children cover, indexed like spans.
func SelfTimes(spans []Span) []int64 {
	children := make([][]Span, len(spans))
	for _, s := range spans {
		if s.Parent > 0 && s.Parent <= len(spans) {
			children[s.Parent-1] = append(children[s.Parent-1], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max64(k.Start, reach), min64(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	SelfNS int64  `json:"self_ns"`
}

// WriteChrome writes spans as Chrome trace-event JSON with microsecond
// timestamps relative to the earliest span.
func WriteChrome(w io.Writer, spans []Span) error {
	var epoch int64
	for i, s := range spans {
		if i == 0 || s.Start < epoch {
			epoch = s.Start
		}
	}
	self := SelfTimes(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start-epoch) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: chromeArgs{ID: s.ID, Parent: s.Parent, Req: s.Req, SelfNS: self[i]},
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ns"})
}
