package pipeline

// ElideKey identifies one memory micro-op site for check elision in one
// calling context: the macro-op address, the micro-op's index within
// the *native* expansion (the numbering decode.Native assigns, before
// any variant customization renumbers the stream), and the k-limited
// call-string context the proof holds in. internal/ptrflow keys its
// static sites identically. Context-insensitive proofs — valid in every
// context — use CtxAny; the runtime probes the exact live context
// first, then the ⊤ entry.
type ElideKey struct {
	Addr     uint64
	MacroIdx uint8
	Ctx      CallCtx
}

// ElisionMap marks dereference sites whose capability check is proven
// redundant: every execution of the site in the keyed context is
// statically in bounds of a live, writable-enough region (see
// internal/elide). The decoder suppresses check-injection at marked
// sites — and only there; (site, context) pairs absent from the map
// (the explicit "unknown") always keep their check. Pointer tracking,
// alias prediction and the dereference trace are unaffected: elision
// removes the check micro-op, not the tracker.
type ElisionMap map[ElideKey]bool

// SetElisionMap installs the elision map. It only takes effect when
// Cfg.ElideChecks is also set, so an installed map with the knob off is
// inert — the fail-closed default.
func (s *Sim) SetElisionMap(m ElisionMap) { s.elision = m }
