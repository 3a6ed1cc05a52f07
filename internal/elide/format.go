package elide

import (
	"fmt"
	"strings"
)

// Format renders the report as a human-readable proof table: one line
// per memory-access site with the verified bounds for elided sites and
// the keep reason otherwise, followed by each proof's justification
// chain.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  proof check: verified=%v sites=%d proofs=%d elided=%d rejected=%d",
		r.Verified, r.Stats.Sites, r.Stats.Proofs, r.Stats.Elided, r.Stats.Rejected)
	if r.HeapMinChunk > 0 {
		fmt.Fprintf(&b, " heap-min=%dB", r.HeapMinChunk)
	}
	b.WriteByte('\n')
	if r.Reason != "" {
		fmt.Fprintf(&b, "  bundle rejected: %s\n", r.Reason)
	}
	for _, d := range r.Decisions {
		kind := "load"
		if d.Store {
			kind = "store"
		}
		ctx := ""
		if d.Ctx != "" && d.Ctx != "any" {
			ctx = "  ctx=" + d.Ctx
		}
		if d.Status == "elide" {
			fmt.Fprintf(&b, "  %#08x.%d %-5s elide  %s+[%d,%d] width %d%s\n",
				d.Addr, d.MacroIdx, kind, d.Region, d.Lo, d.Hi, d.Size, ctx)
			for _, j := range d.Justification {
				fmt.Fprintf(&b, "      · %s\n", j)
			}
		} else {
			fmt.Fprintf(&b, "  %#08x.%d %-5s keep  %s %s\n", d.Addr, d.MacroIdx, kind, ctx, d.Reason)
		}
	}
	fmt.Fprintf(&b, "  digest: %s\n", r.Digest)
	return b.String()
}
