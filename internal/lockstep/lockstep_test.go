package lockstep

import (
	"bytes"
	"context"
	"testing"

	"chex86/internal/emu"
	"chex86/internal/isa"
	"chex86/internal/lockstep/progen"
)

// fastConditions is a reduced matrix for unit tests (the full ten-cell
// matrix runs in the sweep tests and CI gate).
func fastConditions() []Condition {
	full := DefaultConditions()
	out := make([]Condition, 0, 4)
	for _, c := range full {
		if c.NoUopCache && c.Variant.UsesTracker() && !c.Elide {
			continue // trim a few cells; keep insecure+nouop and elide+nouop
		}
		out = append(out, c)
	}
	return out
}

// TestSafeProgramsLockstep: safe genomes must pass the whole matrix —
// no divergence, no invariant hit, no violations anywhere.
func TestSafeProgramsLockstep(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := progen.Generate(seed, progen.Options{})
		pr := RunGenome(g, DefaultConditions(), RunOptions{Stride: 16})
		if pr.Failure != nil {
			t.Fatalf("seed %d: %v", seed, pr.Failure)
		}
		if pr.Commits == 0 {
			t.Fatalf("seed %d: no commits diffed", seed)
		}
	}
}

// TestMutationsDetected: every injected violation class must be caught
// with the labeled kind under every protected condition, identically
// across elision and μop-cache toggles.
func TestMutationsDetected(t *testing.T) {
	for _, mut := range progen.Mutations() {
		mut := mut
		t.Run(string(mut), func(t *testing.T) {
			for seed := uint64(0); seed < 5; seed++ {
				g := progen.Generate(seed, progen.Options{Mutation: mut})
				pr := RunGenome(g, DefaultConditions(), RunOptions{Stride: 32})
				if pr.Failure != nil {
					t.Fatalf("seed %d: %v", seed, pr.Failure)
				}
			}
		})
	}
}

// TestTamperedPipelineCaught is the harness's own mutation test: corrupt
// the differ's view of single commits (simulating a pipeline that
// mis-executes) and the divergence must be caught and shrink to a tiny
// repro.
func TestTamperedPipelineCaught(t *testing.T) {
	g := progen.Generate(3, progen.Options{})
	// "Broken pipeline": every committed store of the 0x5A byte pattern
	// writes the wrong value.
	tamper := func(rec *emu.Rec) {
		if rec.StoreVal == 0x5A {
			rec.StoreVal ^= 1
		}
	}
	// Ensure the pattern occurs at all for this seed; if not, pick one
	// that has a byte store.
	var hit bool
	seed := uint64(3)
	for s := uint64(0); s < 50; s++ {
		cand := progen.Generate(s, progen.Options{})
		prog, err := cand.Build()
		if err != nil {
			t.Fatal(err)
		}
		for i := range prog.Insts {
			if prog.Insts[i].Op == isa.MOVB && prog.Insts[i].Dst.Kind == isa.OpMem {
				hit = true
				break
			}
		}
		if hit {
			seed, g = s, cand
			break
		}
	}
	if !hit {
		t.Fatal("no seed with a byte store found")
	}

	opt := RunOptions{Stride: 16, Tamper: tamper}
	pr := RunGenome(g, fastConditions(), opt)
	if pr.Failure == nil {
		t.Fatalf("seed %d: tampered commits not caught", seed)
	}
	if pr.Failure.Kind != "divergence" {
		t.Fatalf("tamper classified as %q, want divergence: %v", pr.Failure.Kind, pr.Failure)
	}

	shrunk, attempts := Shrink(g, func(cand *progen.Genome) bool {
		cr := RunGenome(cand, fastConditions(), opt)
		return cr.Failure != nil && cr.Failure.Kind == "divergence"
	}, 0)
	if cr := RunGenome(shrunk, fastConditions(), opt); cr.Failure == nil {
		t.Fatal("shrunk genome no longer reproduces")
	}
	if len(shrunk.Steps) > 12 {
		t.Fatalf("shrunk repro has %d steps (> 12) after %d attempts", len(shrunk.Steps), attempts)
	}
	t.Logf("shrunk %d -> %d steps in %d attempts", len(g.Steps), len(shrunk.Steps), attempts)
}

// TestSnapshotDiffCatchesRegisterCorruption exercises the stride
// snapshot path directly: two machines that executed different programs
// must differ.
func TestSnapshotDiff(t *testing.T) {
	g := progen.Generate(1, progen.Options{})
	prog, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := emu.New(prog, emu.Options{Harts: 1})
	b := emu.New(prog, emu.Options{Harts: 1})
	for i := 0; i < 10; i++ {
		step(t, a)
		step(t, b)
	}
	if d := a.Snapshot().Diff(b.Snapshot()); len(d) != 0 {
		t.Fatalf("identical machines diff: %v", d)
	}
	step(t, a) // a is now one instruction ahead
	if d := a.Snapshot().Diff(b.Snapshot()); len(d) == 0 {
		t.Fatal("diverged machines must diff")
	}
}

func step(t *testing.T, m *emu.Machine) {
	t.Helper()
	rec, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		m.Recycle(rec)
	}
}

// TestCorpusRoundTrip: put/load is content-addressed and stable.
func TestCorpusRoundTrip(t *testing.T) {
	c, err := OpenCorpus(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := progen.Generate(9, progen.Options{Mutation: progen.MutOOB})
	p1, err := c.PutRepro(g)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.PutRepro(g)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("content addressing broken: %s != %s", p1, p2)
	}
	if _, err := c.PutSeed(progen.Generate(10, progen.Options{})); err != nil {
		t.Fatal(err)
	}
	repros, err := c.Repros()
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) != 1 || !bytes.Equal(repros[0].CanonicalJSON(), g.CanonicalJSON()) {
		t.Fatalf("repro round trip: got %d entries", len(repros))
	}
	seeds, err := c.Seeds()
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 1 {
		t.Fatalf("seed round trip: got %d entries", len(seeds))
	}
}

// TestSweepDeterministic: a bounded sweep is a pure function of its
// spec — two runs render byte-identical reports.
func TestSweepDeterministic(t *testing.T) {
	spec := SweepSpec{Seed: 42, Programs: 6, CrosscheckEvery: 3, Conditions: fastConditions()}
	a, err := Sweep(context.Background(), spec, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(context.Background(), spec, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatalf("sweep reports differ:\n%s\nvs\n%s", a.JSON(), b.JSON())
	}
	if a.Failed() {
		t.Fatalf("clean sweep reported failure:\n%s", a.JSON())
	}
	if a.Programs != 6 || a.Safe+a.Mutated != 6 || a.Detected != a.Mutated {
		t.Fatalf("sweep accounting off:\n%s", a.JSON())
	}
	if a.Crosschecks == 0 {
		t.Fatalf("expected at least one ptrflow crosscheck:\n%s", a.JSON())
	}
}

// TestSweepContext: an open-ended sweep (Programs == 0) exits cleanly
// when its context is done (nil error — the CLI's budget mode), while an
// interrupted bounded sweep propagates the context error so partial
// reports are never cached.
func TestSweepContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Sweep(ctx, SweepSpec{Seed: 1}, SweepOptions{})
	if err != nil {
		t.Fatalf("open-ended sweep must exit nil on cancellation: %v", err)
	}
	if rep.Programs != 0 {
		t.Fatalf("cancelled before start but ran %d programs", rep.Programs)
	}
	if _, err := Sweep(ctx, SweepSpec{Seed: 1, Programs: 3}, SweepOptions{}); err == nil {
		t.Fatal("interrupted bounded sweep must return the context error")
	}
}
