package campaign

import (
	"testing"

	"chex86/internal/decode"
)

// TestVariantNamesRoundTrip pins the one variant-name table every CLI
// parses through: each variant's canonical name resolves back to it.
func TestVariantNamesRoundTrip(t *testing.T) {
	for v := decode.Variant(0); v < decode.NumVariants; v++ {
		name := VariantName(v)
		got, ok := VariantByName(name)
		if !ok || got != v {
			t.Errorf("VariantByName(%q) = %v, %v; want %v, true", name, got, ok, v)
		}
	}
}
