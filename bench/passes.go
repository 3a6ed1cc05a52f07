package bench

import (
	"fmt"

	"chex86/internal/cache"
	"chex86/internal/decode"
	"chex86/internal/emu"
	"chex86/internal/isa"
	"chex86/internal/mem"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// passRepeats is how often each isolated pass runs; like the pipeline's
// Step chunks, each pass chunk keeps its shortest time.
const passRepeats = 5

// passTotals sums the isolated emulator, decode and cache passes over a
// workload's programs. Like the pipeline's Kinst/s, the timings cover only
// the chunks that start past each program's warmup boundary.
type passTotals struct {
	emuNS, decodeNS, cacheNS int64
	insts                    uint64 // macro-ops inside the timed emulator and decode chunks
	accesses                 uint64 // data accesses inside the timed cache chunks
	postInsts, postAccesses  uint64 // everything after the warmup boundary
}

func (p passTotals) metrics() map[string]float64 {
	return map[string]float64{
		"emu.ns_per_inst":         ratio(float64(p.emuNS), float64(p.insts)),
		"decode.ns_per_inst":      ratio(float64(p.decodeNS), float64(p.insts)),
		"cache.ns_per_access":     ratio(float64(p.cacheNS), float64(p.accesses)),
		"cache.accesses_per_inst": ratio(float64(p.postAccesses), float64(p.postInsts)),
	}
}

// access is one data-cache access of the recorded stream.
type access struct {
	ea    uint64
	write bool
}

// runPasses runs the isolated passes for every program and checks each
// emulator pass against the insecure simulation of the same program in rd.
func (r *simRun) runPasses(rd round) passTotals {
	var tot passTotals
	for _, p := range r.profiles {
		var simInsts uint64
		for _, c := range rd.cells {
			if c.cell.prof == p && c.cell.variant == decode.VariantInsecure {
				simInsts = c.total
			}
		}
		n, err := r.env.passes(p, &tot)
		if err == nil {
			err = checkEmuCount(n, simInsts)
		}
		r.tally.op(p.Name+"/passes", err)
	}
	return tot
}

// bestChunks runs a chunked pass passRepeats times, one span per chunk
// under one span per pass, and returns each chunk's shortest time. prepare
// sets up a repetition untimed; run performs it, calling lap after each
// chunk.
func (e *simEnv) bestChunks(pass, chunk, req string, prepare func(), run func(lap func()) error) ([]int64, error) {
	now, tr := e.clock.Now, e.tracer
	var bestNS []int64
	for rep := 0; rep < passRepeats; rep++ {
		prepare()
		last := now()
		root := tr.Begin(pass, req, 0, simTrack, last)
		i := 0
		err := run(func() {
			t := now()
			tr.Add(chunk, req, root, simTrack, last, t)
			if rep == 0 {
				bestNS = append(bestNS, t-last)
			} else if i < len(bestNS) {
				bestNS[i] = min64(bestNS[i], t-last)
			}
			i++
			last = t
		})
		tr.Finish(root, last)
		if err != nil {
			return nil, err
		}
	}
	return bestNS, nil
}

// sumFrom adds the chunk times of chunks that start at or after item
// index from (chunk i starts at item i*stepChunk) and counts their items.
func sumFrom(chunks []int64, n, from int) (ns int64, items uint64) {
	for i, t := range chunks {
		start := i * stepChunk
		if start < from {
			continue
		}
		ns += t
		items += uint64(min(n-start, stepChunk))
	}
	return ns, items
}

// passes replays one program's instruction stream through the emulator,
// the decoder and the data-cache hierarchy separately and adds the
// timings to tot. It returns how many macro-ops the emulator executed.
func (e *simEnv) passes(p *workload.Profile, tot *passTotals) (uint64, error) {
	req := p.Name + "/passes"
	prog, err := p.Build(e.scale)
	if err != nil {
		return 0, fmt.Errorf("build: %w", err)
	}
	warm := int(p.SetupInsts())
	opts := emu.Options{Harts: harts(p)}

	// Emulator: Machine.Step alone.
	var m *emu.Machine
	emuNS, err := e.bestChunks("pass.emu", "emu.Step", req,
		func() { m = emu.New(prog, opts) },
		func(lap func()) error {
			for {
				for k := 0; k < stepChunk; k++ {
					rec, err := m.Step()
					if err != nil {
						return fmt.Errorf("emulator: %w", err)
					}
					if rec == nil {
						lap()
						return nil
					}
					m.Recycle(rec)
				}
				lap()
			}
		})
	if err != nil {
		return 0, err
	}
	n := m.TotalInsts()

	// Record the stream untimed: each macro-op and the data accesses its
	// native micro-ops make, as the pipeline's scheduler issues them.
	m = emu.New(prog, opts)
	insts := make([]*isa.Inst, 0, n)
	var accs []access
	warmAcc := -1
	var dec decode.Decoder
	var buf []isa.Uop
	for {
		if len(insts) == warm {
			warmAcc = len(accs)
		}
		rec, err := m.Step()
		if err != nil {
			return n, fmt.Errorf("emulator: %w", err)
		}
		if rec == nil {
			break
		}
		insts = append(insts, rec.Inst)
		buf = dec.Native(rec.Inst, buf[:0])
		for i := range buf {
			if buf[i].Type.IsMem() {
				accs = append(accs, access{ea: rec.EA, write: buf[i].Type == isa.UStore})
			}
		}
		m.Recycle(rec)
	}
	if warmAcc < 0 {
		warmAcc = len(accs)
	}
	if len(insts) > warm {
		tot.postInsts += uint64(len(insts) - warm)
		tot.postAccesses += uint64(len(accs) - warmAcc)
	}

	// Decoder: the uncached translation, Decoder.Native plus
	// Microcode.Apply, per macro-op.
	var mc *decode.Microcode
	decodeNS, err := e.bestChunks("pass.decode", "decode.Native+Apply", req,
		func() { dec, mc = decode.Decoder{}, &decode.Microcode{} },
		func(lap func()) error {
			for i := 0; i < len(insts); i += stepChunk {
				for _, in := range insts[i:min(i+stepChunk, len(insts))] {
					buf = dec.Native(in, buf[:0])
					mc.Apply(in, buf)
				}
				lap()
			}
			return nil
		})
	if err != nil {
		return n, err
	}

	// Cache hierarchy: the data accesses through a fresh default-geometry
	// core each repetition.
	var h *cache.Hierarchy
	cacheNS, err := e.bestChunks("pass.cache", "cache.AccessDataAt", req,
		func() { h = defaultHierarchy() },
		func(lap func()) error {
			for i := 0; i < len(accs); i += stepChunk {
				for j := i; j < min(i+stepChunk, len(accs)); j++ {
					h.AccessDataAt(accs[j].ea, accs[j].write, uint64(j))
				}
				lap()
			}
			return nil
		})
	if err != nil {
		return n, err
	}

	ns, items := sumFrom(emuNS, int(n), warm)
	tot.emuNS += ns
	tot.insts += items
	ns, _ = sumFrom(decodeNS, len(insts), warm)
	tot.decodeNS += ns
	ns, items = sumFrom(cacheNS, len(accs), warmAcc)
	tot.cacheNS += ns
	tot.accesses += items
	return n, nil
}

// defaultHierarchy builds one core's memory hierarchy with the default
// configuration's geometry and latencies.
func defaultHierarchy() *cache.Hierarchy {
	cfg := pipeline.DefaultConfig()
	dram := mem.NewDRAM(cfg.DRAMLatency)
	dram.CyclesPerLine = cfg.DRAMCycLine
	dram.SetLanes(1)
	return &cache.Hierarchy{
		L1I: cache.NewLineCache("L1I", cfg.L1ISizeKB*1024, cfg.L1IWays, cfg.LineSize, cfg.L1Latency),
		L1D: cache.NewLineCache("L1D", cfg.L1DSizeKB*1024, cfg.L1DWays, cfg.LineSize, cfg.L1Latency),
		L2:  cache.NewLineCache("L2", cfg.L2SizeKB*1024, cfg.L2Ways, cfg.LineSize, cfg.L2Latency),
		LLC: cache.NewLineCache("LLC", cfg.LLCSizeKB*1024, cfg.LLCWays, cfg.LineSize, cfg.LLCLatency),
		Ram: dram,
	}
}
