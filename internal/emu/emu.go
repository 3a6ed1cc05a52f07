// Package emu implements the functional emulator: it executes guest
// programs macro-op by macro-op in program order, maintains architectural
// state and guest memory, intercepts heap-management routine entry/exit
// points, and emits a committed-instruction trace. The trace drives both
// the CHEx86 front-end machinery (decode, speculative pointer tracking,
// microcode customization) and the out-of-order timing model.
//
// The emulator also maintains the ground-truth allocation map used by the
// hardware checker co-processor (Section V-A) to validate the pointer-
// tracking rule database, and by the security harness to label exploits.
package emu

import (
	"fmt"

	"chex86/internal/asm"
	"chex86/internal/heap"
	"chex86/internal/isa"
	"chex86/internal/mem"
)

// EventKind labels trace records that correspond to intercepted events.
type EventKind uint8

const (
	EvNone EventKind = iota
	EvAllocEnter
	EvAllocExit
	EvFreeEnter
	EvFreeExit
	EvHalt
)

var eventNames = [...]string{"", "allocEnter", "allocExit", "freeEnter", "freeExit", "halt"}

// String names the event kind.
func (e EventKind) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return "ev?"
}

// Rec is one committed-instruction trace record.
type Rec struct {
	Seq  uint64
	Core int
	Inst *isa.Inst

	// Effective address of the instruction's memory access, if any
	// (explicit operand or implicit stack access).
	EA    uint64
	HasEA bool

	// Val is the instruction's register result (the destination register
	// value after execution) when it has one; the checker co-processor
	// searches the ground-truth map for this value.
	Val    uint64
	HasVal bool

	// StoreVal is the value written by a store.
	StoreVal uint64

	// Branch outcome.
	Taken  bool
	Target uint64 // next RIP after this instruction

	Event     EventKind
	AllocPID  int64  // ground-truth PID for alloc/free events
	AllocBase uint64 // for EvAllocExit: returned pointer
	AllocSize uint64 // for EvAllocEnter/Exit: requested size; for EvFreeEnter: freed ptr in AllocBase
}

// FaultKind classifies a functional execution fault so consumers (the
// lockstep differ in particular) can compare faults structurally instead
// of string-matching Msg.
type FaultKind uint8

const (
	// FaultNone is the zero value; a real *Fault never carries it.
	FaultNone FaultKind = iota
	// FaultShadowLoad is a guest load from the privileged shadow space.
	FaultShadowLoad
	// FaultShadowStore is a guest store to the privileged shadow space.
	FaultShadowStore
	// FaultBadRIP means control flow left the program text.
	FaultBadRIP
	// FaultBadOpcode is an unimplemented opcode or unsupported operand
	// form reaching execution.
	FaultBadOpcode
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultShadowLoad:
		return "shadow-load"
	case FaultShadowStore:
		return "shadow-store"
	case FaultBadRIP:
		return "bad-rip"
	case FaultBadOpcode:
		return "bad-opcode"
	}
	return "unknown"
}

// Fault is a functional execution fault (the insecure baseline's equivalent
// of a crash).
type Fault struct {
	Kind FaultKind
	Core int
	Addr uint64
	RIP  uint64
	Msg  string
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("fault on core %d at rip=%#x addr=%#x: %s [%s]", f.Core, f.RIP, f.Addr, f.Msg, f.Kind)
}

// Span is a ground-truth allocation record.
type Span struct {
	PID  int64
	Base uint64
	Size uint64
	Live bool // false after free (tracked for use-after-free ground truth)
}

// Contains reports whether addr falls inside the span.
func (s *Span) Contains(addr uint64) bool {
	return addr >= s.Base && addr < s.Base+s.Size
}

// Truth is the ground-truth allocation map: every allocation the process
// has made (live and freed), searchable by address. This is the oracle the
// hardware checker co-processor consults.
type Truth struct {
	spans  []*Span // sorted by Base
	byPID  map[int64]*Span
	nextID int64
}

// NewTruth returns an empty ground-truth map.
func NewTruth() *Truth {
	return &Truth{byPID: make(map[int64]*Span), nextID: 1}
}

// Add records a new allocation and returns its assigned PID. Any stale
// spans overlapping the new range (freed chunks whose memory was reused)
// are dropped first.
func (t *Truth) Add(base, size uint64) int64 {
	if size == 0 {
		size = 1
	}
	t.removeOverlap(base, size)
	pid := t.nextID
	t.nextID++
	s := &Span{PID: pid, Base: base, Size: size, Live: true}
	i := t.search(base)
	t.spans = append(t.spans, nil)
	copy(t.spans[i+1:], t.spans[i:])
	t.spans[i] = s
	t.byPID[pid] = s
	return pid
}

// search returns the insertion index for base.
func (t *Truth) search(base uint64) int {
	lo, hi := 0, len(t.spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.spans[mid].Base < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (t *Truth) removeOverlap(base, size uint64) {
	end := base + size
	out := t.spans[:0]
	for _, s := range t.spans {
		if s.Base < end && base < s.Base+s.Size {
			delete(t.byPID, s.PID)
			continue
		}
		out = append(out, s)
	}
	t.spans = out
}

// Free marks the span with the given base as dead, returning its PID, or 0
// if no live span starts at base.
func (t *Truth) Free(base uint64) int64 {
	i := t.search(base)
	if i < len(t.spans) && t.spans[i].Base == base && t.spans[i].Live {
		t.spans[i].Live = false
		return t.spans[i].PID
	}
	return 0
}

// Find returns the span containing addr (live or freed), or nil.
func (t *Truth) Find(addr uint64) *Span {
	i := t.search(addr)
	// The span starting at or before addr may contain it.
	if i < len(t.spans) && t.spans[i].Base == addr {
		return t.spans[i]
	}
	if i > 0 && t.spans[i-1].Contains(addr) {
		return t.spans[i-1]
	}
	return nil
}

// ByPID returns the span with the given PID, or nil.
func (t *Truth) ByPID(pid int64) *Span { return t.byPID[pid] }

// Spans returns the current span list (live and freed), sorted by base.
func (t *Truth) Spans() []*Span { return t.spans }

// Options configures a Machine.
type Options struct {
	// Harts is the number of hardware threads executing the program; each
	// hart starts at its own entry label "thread<i>" if present, otherwise
	// all harts start at the program's first instruction. Defaults to 1.
	Harts int

	// RedzonePad, when nonzero, pads every allocation with a redzone of
	// this many bytes on each side (the ASan allocation policy).
	RedzonePad uint64

	// Quarantine, when true, delays reuse of freed chunks (the ASan
	// quarantine), increasing footprint.
	Quarantine bool

	// MaxInsts bounds total executed macro-ops across all harts
	// (0 = unlimited).
	MaxInsts uint64
}

// Hart is one hardware thread's architectural state.
type Hart struct {
	ID     int
	Regs   [isa.NumArchRegs]uint64
	Flags  isa.Flags
	RIP    uint64
	Halted bool

	// pendingExit holds the synthetic allocator exit to emit on the next
	// step for this hart.
	pendingExit *Rec
}

// Machine is the functional emulator for one simulated process.
type Machine struct {
	Prog  *asm.Program
	Mem   *mem.Memory
	Alloc *heap.Allocator
	Truth *Truth

	Harts []*Hart
	opts  Options

	seq        uint64
	totalInsts uint64
	rr         int // round-robin hart cursor

	quarantine []uint64

	// freeRecs is the trace-record free list: consumers that are done with
	// a record hand it back through Recycle, and Step reuses it instead of
	// allocating. Callers that never recycle (tests, one-shot probes) simply
	// get a fresh record per step, as before.
	freeRecs []*Rec

	// GlobalPIDs maps global symbol names to their ground-truth PIDs.
	GlobalPIDs map[string]int64

	// exitInsts are synthetic RET instructions at the allocator exit
	// addresses.
	exitInsts map[uint64]*isa.Inst
}

// New constructs a Machine for the program with the given options, loads
// the symbol table into the ground-truth map, and initializes hart state.
func New(p *asm.Program, opts Options) *Machine {
	if opts.Harts <= 0 {
		opts.Harts = 1
	}
	m := &Machine{
		Prog:       p,
		Mem:        mem.New(),
		Truth:      NewTruth(),
		opts:       opts,
		GlobalPIDs: make(map[string]int64),
		exitInsts:  make(map[uint64]*isa.Inst),
	}
	m.Alloc = heap.New(m.Mem)
	for _, ex := range []uint64{heap.MallocExit, heap.FreeExit, heap.CallocExit, heap.ReallocExit} {
		m.exitInsts[ex] = &isa.Inst{Op: isa.RET, Addr: ex, EncLen: 4}
	}
	for _, g := range p.Globals {
		pid := m.Truth.Add(g.Addr, g.Size)
		m.GlobalPIDs[g.Name] = pid
		m.Mem.TouchRange(g.Addr, g.Size)
	}
	for _, d := range p.Data {
		m.Mem.WriteU64(d.Addr, d.Val)
	}
	for _, r := range p.Relocs {
		for _, g := range p.Globals {
			if g.Name == r.Target {
				m.Mem.WriteU64(r.Slot, g.Addr)
				break
			}
		}
	}
	for i := 0; i < opts.Harts; i++ {
		h := &Hart{ID: i}
		h.Regs[isa.RSP] = mem.StackTop - uint64(i)*(8<<20)
		h.RIP = p.TextBase
		if a, ok := p.Lookup(fmt.Sprintf("thread%d", i)); ok {
			h.RIP = a
		}
		m.Harts = append(m.Harts, h)
	}
	return m
}

// Done reports whether all harts have halted.
func (m *Machine) Done() bool {
	for _, h := range m.Harts {
		if !h.Halted {
			return false
		}
	}
	return true
}

// TotalInsts returns the number of macro-ops executed so far.
func (m *Machine) TotalInsts() uint64 { return m.totalInsts }

// newRec returns a zeroed trace record, reusing one from the free list
// when available.
func (m *Machine) newRec() *Rec {
	if n := len(m.freeRecs); n > 0 {
		rec := m.freeRecs[n-1]
		m.freeRecs = m.freeRecs[:n-1]
		*rec = Rec{}
		return rec
	}
	return &Rec{}
}

// Recycle returns a record obtained from Step to the machine's free list.
// The caller must not retain any pointer to rec afterwards: the next Step
// may reuse and overwrite it. Recycling is optional — a caller that keeps
// records simply leaves the free list empty.
func (m *Machine) Recycle(rec *Rec) {
	if rec == nil {
		return
	}
	m.freeRecs = append(m.freeRecs, rec)
}

// Step executes one macro-op on the next runnable hart (round-robin) and
// returns its trace record. It returns (nil, nil) when all harts have
// halted or the instruction budget is exhausted, and a *Fault error on a
// functional memory fault.
func (m *Machine) Step() (*Rec, error) {
	if m.opts.MaxInsts > 0 && m.totalInsts >= m.opts.MaxInsts {
		return nil, nil
	}
	for tries := 0; tries < len(m.Harts); tries++ {
		h := m.Harts[m.rr]
		m.rr = (m.rr + 1) % len(m.Harts)
		if h.Halted {
			continue
		}
		return m.stepHart(h)
	}
	return nil, nil
}

func (m *Machine) readMem(h *Hart, addr uint64) (uint64, error) {
	if mem.IsShadow(addr) {
		return 0, &Fault{Kind: FaultShadowLoad, Core: h.ID, Addr: addr, RIP: h.RIP, Msg: "load from privileged shadow space"}
	}
	return m.Mem.ReadU64(addr), nil
}

func (m *Machine) writeMem(h *Hart, addr, v uint64) error {
	if mem.IsShadow(addr) {
		return &Fault{Kind: FaultShadowStore, Core: h.ID, Addr: addr, RIP: h.RIP, Msg: "store to privileged shadow space"}
	}
	m.Mem.WriteU64(addr, v)
	return nil
}

func (h *Hart) ea(ref isa.MemRef) uint64 {
	var a uint64
	if ref.Base.Valid() && ref.Base.Arch() {
		a = h.Regs[ref.Base]
	}
	if ref.Index.Valid() && ref.Index.Arch() {
		sc := uint64(ref.Scale)
		if sc == 0 {
			sc = 1
		}
		a += h.Regs[ref.Index] * sc
	}
	return a + uint64(ref.Disp)
}

func (h *Hart) operandVal(m *Machine, o isa.Operand) (uint64, uint64, bool, error) {
	switch o.Kind {
	case isa.OpReg:
		return h.Regs[o.Reg], 0, false, nil
	case isa.OpImm:
		return uint64(o.Imm), 0, false, nil
	case isa.OpMem:
		a := h.ea(o.Mem)
		v, err := m.readMem(h, a)
		return v, a, true, err
	}
	return 0, 0, false, nil
}

func setFlagsLogic(result uint64) isa.Flags {
	var f isa.Flags
	if result == 0 {
		f |= isa.FlagZ
	}
	if int64(result) < 0 {
		f |= isa.FlagS
	}
	return f
}

func setFlagsAdd(a, b, r uint64) isa.Flags {
	f := setFlagsLogic(r)
	if r < a {
		f |= isa.FlagC
	}
	if (a^r)&(b^r)&(1<<63) != 0 {
		f |= isa.FlagO
	}
	return f
}

func setFlagsSub(a, b, r uint64) isa.Flags {
	f := setFlagsLogic(r)
	if a < b {
		f |= isa.FlagC
	}
	if (a^b)&(a^r)&(1<<63) != 0 {
		f |= isa.FlagO
	}
	return f
}

func (m *Machine) stepHart(h *Hart) (*Rec, error) {
	// Emit a pending synthetic allocator-exit record first.
	if h.pendingExit != nil {
		rec := h.pendingExit
		h.pendingExit = nil
		m.seq++
		m.totalInsts++
		rec.Seq = m.seq
		return rec, nil
	}

	in := m.Prog.At(h.RIP)
	if in == nil {
		if ex, ok := m.exitInsts[h.RIP]; ok {
			in = ex
		} else {
			return nil, &Fault{Kind: FaultBadRIP, Core: h.ID, Addr: h.RIP, RIP: h.RIP, Msg: "rip outside program text"}
		}
	}
	m.seq++
	m.totalInsts++
	rec := m.newRec()
	rec.Seq, rec.Core, rec.Inst, rec.Target = m.seq, h.ID, in, in.NextAddr()

	adv := func() { h.RIP = in.NextAddr(); rec.Target = h.RIP }

	switch in.Op {
	case isa.NOP:
		adv()

	case isa.HLT:
		h.Halted = true
		rec.Event = EvHalt
		adv()

	case isa.MOV:
		val, srcEA, srcMem, err := h.operandVal(m, in.Src)
		if err != nil {
			return nil, err
		}
		switch in.Dst.Kind {
		case isa.OpReg:
			h.Regs[in.Dst.Reg] = val
			rec.Val, rec.HasVal = val, true
			if srcMem {
				rec.EA, rec.HasEA = srcEA, true
			}
		case isa.OpMem:
			a := h.ea(in.Dst.Mem)
			if err := m.writeMem(h, a, val); err != nil {
				return nil, err
			}
			rec.EA, rec.HasEA = a, true
			rec.StoreVal = val
		}
		adv()

	case isa.MOVB:
		switch {
		case in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpMem:
			a := h.ea(in.Src.Mem)
			if mem.IsShadow(a) {
				return nil, &Fault{Kind: FaultShadowLoad, Core: h.ID, Addr: a, RIP: h.RIP, Msg: "byte load from privileged shadow space"}
			}
			v := uint64(m.Mem.ReadU8(a))
			h.Regs[in.Dst.Reg] = v
			rec.EA, rec.HasEA = a, true
			rec.Val, rec.HasVal = v, true
		case in.Dst.Kind == isa.OpMem && in.Src.Kind == isa.OpReg:
			a := h.ea(in.Dst.Mem)
			if mem.IsShadow(a) {
				return nil, &Fault{Kind: FaultShadowStore, Core: h.ID, Addr: a, RIP: h.RIP, Msg: "byte store to privileged shadow space"}
			}
			m.Mem.WriteU8(a, byte(h.Regs[in.Src.Reg]))
			rec.EA, rec.HasEA = a, true
			rec.StoreVal = h.Regs[in.Src.Reg] & 0xFF
		default:
			return nil, &Fault{Kind: FaultBadOpcode, Core: h.ID, Addr: h.RIP, RIP: h.RIP, Msg: "unsupported movb form"}
		}
		adv()

	case isa.LEA:
		a := h.ea(in.Src.Mem)
		h.Regs[in.Dst.Reg] = a
		rec.Val, rec.HasVal = a, true
		adv()

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.IMUL, isa.SHL, isa.SHR,
		isa.CMP, isa.TEST, isa.FADD, isa.FMUL, isa.FDIV:
		if err := m.execALU(h, in, rec); err != nil {
			return nil, err
		}
		adv()

	case isa.INC, isa.DEC, isa.NEG, isa.NOT:
		v := h.Regs[in.Dst.Reg]
		var r uint64
		switch in.Op {
		case isa.INC:
			r = v + 1
		case isa.DEC:
			r = v - 1
		case isa.NEG:
			r = -v
		case isa.NOT:
			r = ^v
		}
		h.Regs[in.Dst.Reg] = r
		if in.Op.WritesFlags() {
			// INC/DEC preserve CF, like x86.
			cf := h.Flags & isa.FlagC
			f := setFlagsLogic(r)
			if in.Op == isa.NEG && v != 0 {
				cf = isa.FlagC
			}
			h.Flags = f | cf
		}
		rec.Val, rec.HasVal = r, true
		adv()

	case isa.XCHG:
		switch {
		case in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpReg:
			a, b := in.Dst.Reg, in.Src.Reg
			h.Regs[a], h.Regs[b] = h.Regs[b], h.Regs[a]
			rec.Val, rec.HasVal = h.Regs[a], true
		case in.Dst.Kind == isa.OpMem && in.Src.Kind == isa.OpReg:
			a := h.ea(in.Dst.Mem)
			old, err := m.readMem(h, a)
			if err != nil {
				return nil, err
			}
			if err := m.writeMem(h, a, h.Regs[in.Src.Reg]); err != nil {
				return nil, err
			}
			rec.StoreVal = h.Regs[in.Src.Reg]
			h.Regs[in.Src.Reg] = old
			rec.EA, rec.HasEA = a, true
			rec.Val, rec.HasVal = old, true
		default:
			return nil, &Fault{Kind: FaultBadOpcode, Core: h.ID, Addr: h.RIP, RIP: h.RIP, Msg: "unsupported xchg form"}
		}
		adv()

	case isa.PUSH:
		h.Regs[isa.RSP] -= 8
		a := h.Regs[isa.RSP]
		v := h.Regs[in.Dst.Reg]
		if err := m.writeMem(h, a, v); err != nil {
			return nil, err
		}
		rec.EA, rec.HasEA = a, true
		rec.StoreVal = v
		adv()

	case isa.POP:
		a := h.Regs[isa.RSP]
		v, err := m.readMem(h, a)
		if err != nil {
			return nil, err
		}
		h.Regs[in.Dst.Reg] = v
		h.Regs[isa.RSP] += 8
		rec.EA, rec.HasEA = a, true
		rec.Val, rec.HasVal = v, true
		adv()

	case isa.CALL:
		target := in.Target
		if in.Dst.Kind == isa.OpReg {
			target = h.Regs[in.Dst.Reg]
		}
		h.Regs[isa.RSP] -= 8
		ra := in.NextAddr()
		if err := m.writeMem(h, h.Regs[isa.RSP], ra); err != nil {
			return nil, err
		}
		rec.EA, rec.HasEA = h.Regs[isa.RSP], true
		rec.StoreVal = ra
		rec.Taken = true
		rec.Target = target
		h.RIP = target
		m.interceptAlloc(h, rec, target)

	case isa.RET:
		a := h.Regs[isa.RSP]
		ra, err := m.readMem(h, a)
		if err != nil {
			return nil, err
		}
		h.Regs[isa.RSP] += 8
		rec.EA, rec.HasEA = a, true
		rec.Val, rec.HasVal = ra, true
		rec.Taken = true
		rec.Target = ra
		h.RIP = ra

	case isa.JMP:
		target := in.Target
		if in.Dst.Kind == isa.OpReg {
			target = h.Regs[in.Dst.Reg]
		}
		rec.Taken = true
		rec.Target = target
		h.RIP = target

	case isa.JCC:
		if in.Cond.Eval(h.Flags) {
			rec.Taken = true
			rec.Target = in.Target
			h.RIP = in.Target
		} else {
			adv()
		}

	default:
		return nil, &Fault{Kind: FaultBadOpcode, Core: h.ID, Addr: h.RIP, RIP: h.RIP, Msg: "unimplemented opcode " + in.Op.String()}
	}
	return rec, nil
}

func (m *Machine) execALU(h *Hart, in *isa.Inst, rec *Rec) error {
	src, srcEA, srcMem, err := h.operandVal(m, in.Src)
	if err != nil {
		return err
	}
	var dst uint64
	var dstEA uint64
	dstMem := false
	switch in.Dst.Kind {
	case isa.OpReg:
		dst = h.Regs[in.Dst.Reg]
	case isa.OpMem:
		dstEA = h.ea(in.Dst.Mem)
		dstMem = true
		dst, err = m.readMem(h, dstEA)
		if err != nil {
			return err
		}
	}

	var r uint64
	var f isa.Flags
	switch in.Op {
	case isa.ADD, isa.FADD:
		r = dst + src
		f = setFlagsAdd(dst, src, r)
	case isa.SUB:
		r = dst - src
		f = setFlagsSub(dst, src, r)
	case isa.AND, isa.TEST:
		r = dst & src
		f = setFlagsLogic(r)
	case isa.OR:
		r = dst | src
		f = setFlagsLogic(r)
	case isa.XOR:
		r = dst ^ src
		f = setFlagsLogic(r)
	case isa.IMUL, isa.FMUL:
		r = dst * src
		f = setFlagsLogic(r)
	case isa.FDIV:
		if src == 0 {
			r = ^uint64(0)
		} else {
			r = dst / src
		}
		f = setFlagsLogic(r)
	case isa.SHL:
		r = dst << (src & 63)
		f = setFlagsLogic(r)
	case isa.SHR:
		r = dst >> (src & 63)
		f = setFlagsLogic(r)
	case isa.CMP:
		r = dst - src
		f = setFlagsSub(dst, src, r)
	}
	if in.Op.WritesFlags() {
		h.Flags = f
	}

	switch in.Op {
	case isa.CMP, isa.TEST:
		// Flags only; report the source memory access if any.
		if srcMem {
			rec.EA, rec.HasEA = srcEA, true
		} else if dstMem {
			rec.EA, rec.HasEA = dstEA, true
		}
		return nil
	}

	if dstMem {
		if err := m.writeMem(h, dstEA, r); err != nil {
			return err
		}
		rec.EA, rec.HasEA = dstEA, true
		rec.StoreVal = r
	} else {
		h.Regs[in.Dst.Reg] = r
		rec.Val, rec.HasVal = r, true
		if srcMem {
			rec.EA, rec.HasEA = srcEA, true
		}
	}
	return nil
}

// interceptAlloc handles CALLs whose target is a registered heap-management
// entry point: it runs the allocator natively, annotates the CALL record as
// the entry interception, and queues a synthetic exit record.
func (m *Machine) interceptAlloc(h *Hart, rec *Rec, target uint64) {
	switch target {
	case heap.MallocEntry, heap.CallocEntry, heap.ReallocEntry:
		var size, ptr uint64
		var exitAddr uint64
		switch target {
		case heap.MallocEntry:
			size = h.Regs[isa.RDI]
			ptr = m.mallocPolicy(size)
			exitAddr = heap.MallocExit
		case heap.CallocEntry:
			size = h.Regs[isa.RDI] * h.Regs[isa.RSI]
			ptr = m.callocPolicy(h.Regs[isa.RDI], h.Regs[isa.RSI])
			exitAddr = heap.CallocExit
		case heap.ReallocEntry:
			size = h.Regs[isa.RSI]
			old := h.Regs[isa.RDI]
			rec.AllocBase = old // the pointer being released
			if old != 0 {
				m.Truth.Free(old)
			}
			ptr = m.Alloc.Realloc(old, size)
			exitAddr = heap.ReallocExit
		}
		rec.Event = EvAllocEnter
		rec.AllocSize = size

		var pid int64
		if ptr != 0 {
			pid = m.Truth.Add(ptr, size)
		}
		rec.AllocPID = pid
		h.Regs[isa.RAX] = ptr
		exit := m.newRec()
		exit.Core, exit.Inst = h.ID, m.exitInsts[exitAddr]
		exit.Event, exit.AllocPID, exit.AllocBase, exit.AllocSize = EvAllocExit, pid, ptr, size
		exit.Val, exit.HasVal = ptr, true
		exit.EA, exit.HasEA = h.Regs[isa.RSP], true
		exit.Taken = true
		h.pendingExit = exit
		// The synthetic exit RET pops the return address pushed by CALL.
		ra := m.Mem.ReadU64(h.Regs[isa.RSP])
		h.pendingExit.Target = ra
		h.Regs[isa.RSP] += 8
		h.RIP = ra

	case heap.FreeEntry:
		ptr := h.Regs[isa.RDI]
		rec.Event = EvFreeEnter
		rec.AllocBase = ptr
		pid := m.Truth.Free(ptr)
		rec.AllocPID = pid
		m.freePolicy(ptr)
		exit := m.newRec()
		exit.Core, exit.Inst = h.ID, m.exitInsts[heap.FreeExit]
		exit.Event, exit.AllocPID, exit.AllocBase = EvFreeExit, pid, ptr
		exit.EA, exit.HasEA = h.Regs[isa.RSP], true
		exit.Taken = true
		h.pendingExit = exit
		ra := m.Mem.ReadU64(h.Regs[isa.RSP])
		h.pendingExit.Target = ra
		h.Regs[isa.RSP] += 8
		h.RIP = ra
	}
}

func (m *Machine) mallocPolicy(size uint64) uint64 {
	if m.opts.RedzonePad > 0 {
		p := m.Alloc.Malloc(size + 2*m.opts.RedzonePad)
		if p == 0 {
			return 0
		}
		// Touch redzones so they contribute to RSS like poisoned shadow.
		m.Mem.TouchRange(p, m.opts.RedzonePad)
		m.Mem.TouchRange(p+m.opts.RedzonePad+size, m.opts.RedzonePad)
		return p + m.opts.RedzonePad
	}
	return m.Alloc.Malloc(size)
}

func (m *Machine) callocPolicy(count, size uint64) uint64 {
	if m.opts.RedzonePad > 0 {
		top := m.Alloc.Top()
		p := m.mallocPolicy(count * size)
		if p == 0 || p >= top {
			return p // fresh wilderness is already zero
		}
		for off := uint64(0); off < count*size; off += 8 {
			m.Mem.WriteU64(p+off, 0)
		}
		return p
	}
	return m.Alloc.Calloc(count, size)
}

func (m *Machine) freePolicy(ptr uint64) {
	if ptr == 0 {
		return
	}
	real := ptr
	if m.opts.RedzonePad > 0 {
		real = ptr - m.opts.RedzonePad
	}
	if m.opts.Quarantine {
		m.quarantine = append(m.quarantine, real)
		if len(m.quarantine) > 256 {
			m.Alloc.Free(m.quarantine[0])
			m.quarantine = m.quarantine[1:]
		}
		return
	}
	m.Alloc.Free(real)
}
