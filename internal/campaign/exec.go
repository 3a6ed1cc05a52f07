package campaign

import (
	"context"
	"fmt"

	"chex86/internal/experiments"
	"chex86/internal/faultinject"
	"chex86/internal/workload"
)

// Execute is the default ExecFunc: it dispatches a spec to the simulator.
func Execute(ctx context.Context, spec *Spec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	switch spec.Mode {
	case ModeBench:
		return execBench(ctx, spec)
	case ModeFault:
		return execFault(ctx, spec)
	}
	return nil, fmt.Errorf("campaign: unknown mode %q", spec.Mode)
}

// execBench runs one workload under one machine configuration with the
// experiment harness's measurement policy (the same warmup and budget
// handling the figure runners use), so a campaign bench result is
// interchangeable with a sequential chexbench run.
func execBench(ctx context.Context, spec *Spec) (*Result, error) {
	p := workload.ByName(spec.Workload)
	o := &experiments.Options{
		Scale:     spec.scale(),
		MaxInsts:  spec.MaxInsts,
		MaxCycles: spec.MaxCycles,
	}
	res, err := experiments.RunOne(ctx, p, spec.config(), o)
	if err != nil {
		return nil, err
	}
	return &Result{
		Schema:   ResultSchema,
		Mode:     ModeBench,
		Workload: spec.Workload,
		Variant:  spec.config().Variant.ShortName(),
		Bench:    benchResult(res),
	}, nil
}

// execFault runs one fault-injection campaign cell. faultinject.Run is
// already deterministic and panic-isolated per run; per-run RNG seeds
// derive from (seed, workload, variant, site), so cells executed here —
// concurrently, out of order, or recalled from the cache — merge back into
// the byte-identical sequential report.
func execFault(ctx context.Context, spec *Spec) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep, err := faultinject.Run(*spec.Fault)
	if err != nil {
		return nil, err
	}
	r := &Result{Schema: ResultSchema, Mode: ModeFault, Fault: rep}
	if len(spec.Fault.Workloads) == 1 {
		r.Workload = spec.Fault.Workloads[0]
	}
	if len(spec.Fault.Variants) == 1 {
		r.Variant = spec.Fault.Variants[0]
	}
	return r, nil
}
