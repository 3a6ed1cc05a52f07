package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

func TestTracerNestingAndSelfTime(t *testing.T) {
	tr := &Tracer{}
	root := tr.Begin("cell", "r", 0, 1, 0)
	tr.Add("a", "r", root, 1, 10, 40)
	tr.Add("b", "r", root, 1, 30, 60) // overlaps a: covered union is [10,60]
	tr.Finish(root, 100)
	spans := tr.Spans()
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	if self := SelfTimes(spans); self[0] != 50 || self[1] != 30 || self[2] != 30 {
		t.Errorf("self times %v, want [50 30 30]", self)
	}

	bad := append([]Span(nil), spans...)
	bad[2].End = 120
	if checkNesting(bad) == nil {
		t.Error("a child outliving its parent passed")
	}
	bad = append([]Span(nil), spans...)
	bad[1].End = 5
	if checkNesting(bad) == nil {
		t.Error("a span ending before it starts passed")
	}

	var nilTracer *Tracer
	if id := nilTracer.Add("x", "", 0, 1, 0, 1); id != 0 || nilTracer.Spans() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

func TestWriteChromeParses(t *testing.T) {
	tr := &Tracer{}
	root := tr.Begin("cell", "r", 0, 1, 1000)
	tr.Add("pipeline.Step", "r", root, 1, 2000, 5000)
	tr.Finish(root, 9000)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Ts != 1 || doc.TraceEvents[1].Dur != 3 ||
		doc.TraceEvents[0].Args.SelfNS != 5000 {
		t.Errorf("events %+v", doc.TraceEvents)
	}
}

// checkNesting verifies that every span ends no earlier than it starts,
// that every parent exists and was opened first, and that every child lies
// inside its parent.
func checkNesting(spans []Span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has ID %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d opened after it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}
