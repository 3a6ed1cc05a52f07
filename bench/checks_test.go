package bench

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"chex86/internal/campaign"
	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/fabric"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// testClock is the host clock for tests (test files may read it).
type testClock struct{ start time.Time }

func newTestClock() *testClock { return &testClock{start: time.Now()} }

func (c *testClock) Now() int64                             { return int64(time.Since(c.start)) }
func (c *testClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func TestCheckFunctionsTrip(t *testing.T) {
	ok := &pipeline.Result{MacroInsts: 10}
	bad := &pipeline.Result{Violations: []*core.Violation{{Kind: core.VOutOfBounds}}}
	for name, err := range map[string]error{
		"run error":       checkRun(ok, errors.New("boom")),
		"no result":       checkRun(nil, nil),
		"violation":       checkRun(bad, nil),
		"insts differ":    checkSameInsts(10, 11),
		"emu count":       checkEmuCount(5, 6),
		"not verified":    checkElision(false, ok, ok),
		"checks mismatch": checkElision(true, &pipeline.Result{ChecksRun: 10}, &pipeline.Result{ChecksRun: 6, ChecksElided: 3}),
		"repeat differs":  checkRepeat([]byte("a"), []byte("b")),
	} {
		if err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
	for name, err := range map[string]error{
		"run":     checkRun(ok, nil),
		"insts":   checkSameInsts(10, 10),
		"emu":     checkEmuCount(6, 6),
		"elision": checkElision(true, &pipeline.Result{ChecksRun: 10}, &pipeline.Result{ChecksRun: 7, ChecksElided: 3}),
		"repeat":  checkRepeat([]byte("a"), []byte("a")),
	} {
		if err != nil {
			t.Errorf("%s: check failed on good input: %v", name, err)
		}
	}
}

// elideRound builds a synthetic elide-all round for one program: insecure,
// plain prediction and elided prediction cells, which tamper may edit.
func elideRound(p *workload.Profile, tamper func(ins, plain, on *cellResult)) round {
	ins := cellResult{cell: cell{prof: p, variant: decode.VariantInsecure},
		res: &pipeline.Result{MacroInsts: 100, Cycles: 200}}
	plain := cellResult{cell: cell{prof: p, variant: decode.VariantMicrocodePrediction},
		res: &pipeline.Result{MacroInsts: 100, Cycles: 240, ChecksRun: 10}}
	on := cellResult{cell: cell{prof: p, variant: decode.VariantMicrocodePrediction, elide: true}, verified: true,
		res: &pipeline.Result{MacroInsts: 100, Cycles: 230, ChecksRun: 7, ChecksElided: 3}}
	if tamper != nil {
		tamper(&ins, &plain, &on)
	}
	return round{cells: []cellResult{ins, plain, on}}
}

// TestSimRoundChecksCountFailures trips each per-cell check through the
// round checker and expects exactly one failed operation.
func TestSimRoundChecksCountFailures(t *testing.T) {
	p := workload.ByName("mcf")
	for name, tamper := range map[string]func(ins, plain, on *cellResult){
		"error":         func(ins, _, _ *cellResult) { ins.err = errors.New("boom") },
		"violation":     func(_, plain, _ *cellResult) { plain.res.Violations = []*core.Violation{{Kind: core.VUseAfterFree}} },
		"insts differ":  func(_, plain, _ *cellResult) { plain.res.MacroInsts = 99 },
		"not verified":  func(_, _, on *cellResult) { on.verified = false },
		"checks differ": func(_, _, on *cellResult) { on.res.ChecksElided = 2 },
	} {
		r := &simRun{w: simWorkload{elide: true}, profiles: []*workload.Profile{p}, first: map[string][]byte{}}
		r.check(elideRound(p, tamper))
		if r.tally.attempted != 3 || r.tally.failed != 1 {
			t.Errorf("%s: %d of %d operations failed, want 1 of 3 (%v)", name, r.tally.failed, r.tally.attempted, r.tally.failures)
		}
	}

	r := &simRun{w: simWorkload{elide: true}, profiles: []*workload.Profile{p}, first: map[string][]byte{}}
	r.check(elideRound(p, nil))
	r.check(elideRound(p, func(ins, _, _ *cellResult) { ins.res.Cycles++ }))
	if r.tally.failed != 1 || !strings.Contains(r.tally.failures[0], "repeat") {
		t.Errorf("a repeated cell with different statistics passed: %v", r.tally.failures)
	}
}

// TestEmuPassCheck runs the isolated passes of one small program and
// fails them against a wrong simulated instruction count.
func TestEmuPassCheck(t *testing.T) {
	p := workload.ByName("perlbench")
	r := &simRun{env: simEnv{clock: newTestClock(), scale: 0.05}, profiles: []*workload.Profile{p}}
	rd := round{cells: []cellResult{{cell: cell{prof: p, variant: decode.VariantInsecure}, total: 1}}}
	tot := r.runPasses(rd)
	if r.tally.failed != 1 || !strings.Contains(r.tally.failures[0], "isolated emulator") {
		t.Fatalf("wrong instruction count passed: %v", r.tally.failures)
	}
	if tot.insts == 0 || tot.emuNS == 0 || tot.decodeNS == 0 || tot.accesses == 0 {
		t.Errorf("passes measured nothing: %+v", tot)
	}
}

func benchResultFor(spec *campaign.Spec) *campaign.Result {
	return &campaign.Result{Schema: campaign.ResultSchema, Mode: campaign.ModeBench, Workload: spec.Workload,
		Bench: &campaign.BenchResult{Insts: 100, Cycles: 100 + uint64(spec.Config.Variant)}}
}

// TestCampaignChecks trips the fabric checks: a campaign that never
// finishes, and a repeated cell whose result bytes changed.
func TestCampaignChecks(t *testing.T) {
	clock := newTestClock()
	f := &fabricRun{clock: clock, scale: 0.05, first: map[string][]byte{}, slowdowns: map[string]float64{}}
	pairs := []pair{{"mcf", cycleLimitBase}}
	specs := []campaign.Spec{f.spec(pairs[0], decode.VariantInsecure), f.spec(pairs[0], decode.VariantMicrocodePrediction)}

	// No worker and no local pool: the campaign stays queued.
	stuck := fabric.NewCoordinator(fabric.CoordinatorOptions{Clock: clock})
	camp, err := stuck.Submit(specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.finishCampaign(camp, campaignRecord{id: camp.ID()}, pairs, specs)
	if f.tally.failed != 2 {
		t.Fatalf("unfinished campaign: %d failed, want 2 (%v)", f.tally.failed, f.tally.failures)
	}

	pool := campaign.NewPool(campaign.Options{Workers: 1, Exec: func(_ context.Context, s *campaign.Spec) (*campaign.Result, error) {
		return benchResultFor(s), nil
	}})
	defer pool.Close()
	local := fabric.NewCoordinator(fabric.CoordinatorOptions{Clock: clock, Local: pool})
	run := func() {
		camp, err := local.Submit(specs, 0)
		if err != nil {
			t.Fatal(err)
		}
		<-camp.Done()
		f.finishCampaign(camp, campaignRecord{id: camp.ID(), done: true}, pairs, specs)
	}
	f.tally = tally{}
	run()
	run()
	if f.tally.failed != 0 || f.tally.attempted != 4 {
		t.Fatalf("good campaigns: %d of %d failed (%v)", f.tally.failed, f.tally.attempted, f.tally.failures)
	}
	key, err := specs[1].Key()
	if err != nil {
		t.Fatal(err)
	}
	f.first[key] = []byte(`{"tampered":true}`)
	run()
	if f.tally.failed != 1 || !strings.Contains(f.tally.failures[0], "repeat") {
		t.Fatalf("changed repeat result passed: %v", f.tally.failures)
	}
	want := float64(100+decode.VariantMicrocodePrediction) / float64(100+decode.VariantInsecure)
	if got := f.slowdowns["mcf"]; got != want {
		t.Errorf("slowdown %v", got)
	}
}
