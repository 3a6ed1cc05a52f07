package determinism

import (
	"os"
	"path/filepath"
	"testing"
)

// testLinter is shared by every case, as chexvet shares one across a
// run, so each imported package is type-checked from source once.
var testLinter = NewLinter()

// lintSource writes src as a single-file package in a temp dir and lints it.
func lintSource(t *testing.T, src string) []Finding {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := testLinter.LintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func checks(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Check)
	}
	return out
}

func TestTimeNow(t *testing.T) {
	fs := lintSource(t, `package p
import "time"
func f() time.Time { return time.Now() }
func g(t0 time.Time) time.Duration { return time.Since(t0) }
func h(d time.Duration) time.Time { return time.Now().Add(d) }
`)
	if len(fs) != 3 {
		t.Fatalf("want 3 time findings, got %v", fs)
	}
	for _, f := range fs {
		if f.Check != CheckTimeNow {
			t.Errorf("want %s, got %s", CheckTimeNow, f.Check)
		}
	}
}

func TestTimeAllowed(t *testing.T) {
	fs := lintSource(t, `package p
import "time"
const tick = 10 * time.Millisecond
func f(s string) (time.Time, error) { return time.Parse(time.RFC3339, s) }
func g() *time.Timer { return time.NewTimer(tick) }
`)
	if len(fs) != 0 {
		t.Fatalf("non-clock time uses must pass, got %v", fs)
	}
}

func TestGlobalRand(t *testing.T) {
	fs := lintSource(t, `package p
import "math/rand"
func f() int { return rand.Intn(10) }
func g() { rand.Seed(42) }
func h() float64 { return rand.Float64() }
`)
	if len(fs) != 3 {
		t.Fatalf("want 3 rand findings, got %v", fs)
	}
	for _, f := range fs {
		if f.Check != CheckGlobalRand {
			t.Errorf("want %s, got %s", CheckGlobalRand, f.Check)
		}
	}
}

func TestSeededRandAllowed(t *testing.T) {
	fs := lintSource(t, `package p
import "math/rand"
func f(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
func g(r *rand.Rand) int { return r.Intn(10) }
`)
	if len(fs) != 0 {
		t.Fatalf("seeded generators must pass, got %v", fs)
	}
}

func TestMapRangeOutput(t *testing.T) {
	fs := lintSource(t, `package p
import "fmt"
func f(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v)
	}
}
`)
	if len(fs) != 1 || fs[0].Check != CheckMapRangeOutput {
		t.Fatalf("want one %s finding, got %v", CheckMapRangeOutput, fs)
	}
}

func TestMapRangeLocalType(t *testing.T) {
	// The map type flows through a locally declared struct field.
	fs := lintSource(t, `package p
import "fmt"
type tally struct{ counts map[string]int }
func f(t *tally) {
	for k := range t.counts {
		fmt.Println(k)
	}
}
`)
	if len(fs) != 1 || fs[0].Check != CheckMapRangeOutput {
		t.Fatalf("want one %s finding, got %v", CheckMapRangeOutput, fs)
	}
}

func TestMapRangeImportedType(t *testing.T) {
	// url.Values is a map declared in another package, ranged over as a
	// parameter and as an imported method's result.
	fs := lintSource(t, `package p
import (
	"fmt"
	"net/url"
)
func f(v url.Values) {
	for k := range v {
		fmt.Println(k)
	}
}
func g(u *url.URL) {
	for k := range u.Query() {
		fmt.Println(k)
	}
}
`)
	if len(fs) != 2 || fs[0].Check != CheckMapRangeOutput || fs[1].Check != CheckMapRangeOutput {
		t.Fatalf("want two %s findings, got %v", CheckMapRangeOutput, fs)
	}
}

func TestMapRangeWithoutSink(t *testing.T) {
	fs := lintSource(t, `package p
import "sort"
func f(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
`)
	if len(fs) != 0 {
		t.Fatalf("sort-the-keys idiom must pass, got %v", fs)
	}
}

func TestSliceRangeWithSink(t *testing.T) {
	fs := lintSource(t, `package p
import "fmt"
func f(xs []int) {
	for _, x := range xs {
		fmt.Println(x)
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("slice iteration must pass, got %v", fs)
	}
}

func TestSinkInsideFuncLitIgnored(t *testing.T) {
	// A closure stored during iteration does not emit during iteration.
	fs := lintSource(t, `package p
import "fmt"
func f(m map[string]int) []func() {
	var fns []func()
	for k := range m {
		k := k
		fns = append(fns, func() { fmt.Println(k) })
	}
	return fns
}
`)
	if len(fs) != 0 {
		t.Fatalf("sinks inside stored closures must pass, got %v", fs)
	}
}

func TestWaiver(t *testing.T) {
	fs := lintSource(t, `package p
import "fmt"
func f(m map[string]bool) {
	// Iteration order does not reach the output: counts only.
	n := 0
	for range m { //determinism:ok
		fmt.Print()
		n++
	}
	_ = n
}
func g() {
	//determinism:ok — waiver on the line above the statement
	for range map[int]bool{} {
		fmt.Print()
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("waived findings must pass, got %v", fs)
	}
}

func TestMapFormat(t *testing.T) {
	fs := lintSource(t, `package p
import "fmt"
func f(m map[string]int) string { return fmt.Sprintf("%v", m) }
func g(m map[*int]bool) { fmt.Printf("state: %+v\n", m) }
`)
	if len(fs) != 2 {
		t.Fatalf("want 2 map-format findings, got %v", fs)
	}
	for _, f := range fs {
		if f.Check != CheckMapFormat {
			t.Errorf("want %s, got %s", CheckMapFormat, f.Check)
		}
	}
}

func TestMapFormatOperandMapping(t *testing.T) {
	// Only the %v verb bound to the map operand fires — the scalar
	// operands around it must not confuse the operand mapping, and
	// Fprintf's writer argument shifts the format index by one.
	fs := lintSource(t, `package p
import (
	"fmt"
	"os"
)
func f(n int, m map[string]int) {
	fmt.Printf("%d then %v and %s\n", n, m, "x")
	fmt.Fprintf(os.Stderr, "%v first, %d after\n", m, n)
}
`)
	if len(fs) != 2 {
		t.Fatalf("want 2 map-format findings, got %v", fs)
	}
}

func TestMapFormatNonMapAllowed(t *testing.T) {
	fs := lintSource(t, `package p
import "fmt"
type cfg struct{ n int }
func f(c cfg, xs []int, n int, m map[string]int) {
	fmt.Printf("%v %v %d\n", c, xs, n)
	fmt.Printf("%d\n", len(m))
	fmt.Printf("%q\n", "str")
}
`)
	if len(fs) != 0 {
		t.Fatalf("non-map %%v operands must pass, got %v", fs)
	}
}

func TestMapFormatExplicitIndexSkipped(t *testing.T) {
	// Explicit operand indexes abort verb parsing: mis-mapping operands
	// would misreport, so the check stays conservative.
	fs := lintSource(t, `package p
import "fmt"
func f(m map[string]int) string { return fmt.Sprintf("%[1]v", m) }
`)
	if len(fs) != 0 {
		t.Fatalf("explicit-index format must be skipped, got %v", fs)
	}
}

func TestMapFormatWaiver(t *testing.T) {
	fs := lintSource(t, `package p
import "fmt"
func f(m map[string]int) {
	fmt.Printf("%v\n", m) //determinism:ok
	//determinism:ok — sorted upstream
	fmt.Printf("%+v\n", m)
}
`)
	if len(fs) != 0 {
		t.Fatalf("waived map-format findings must pass, got %v", fs)
	}
}

func TestRenamedImports(t *testing.T) {
	fs := lintSource(t, `package p
import (
	clock "time"
	mrand "math/rand"
)
func f() int64 { return clock.Now().UnixNano() }
func g() int { return mrand.Int() }
`)
	if len(fs) != 2 {
		t.Fatalf("renamed imports must still be caught, got %v", fs)
	}
}

func TestTestFilesSkipped(t *testing.T) {
	dir := t.TempDir()
	src := `package p
import "time"
func f() time.Time { return time.Now() }
`
	if err := os.WriteFile(filepath.Join(dir, "x_test.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := LintDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("_test.go files must be skipped, got %v", fs)
	}
}

func TestFindingsSorted(t *testing.T) {
	fs := lintSource(t, `package p
import "time"
func a() time.Time { return time.Now() }
func b() time.Time { return time.Now() }
`)
	if len(fs) != 2 {
		t.Fatalf("want 2 findings, got %v", fs)
	}
	if fs[0].Pos.Line > fs[1].Pos.Line {
		t.Fatalf("findings not sorted: %v", checks(fs))
	}
}

func TestPointerFormat(t *testing.T) {
	fs := lintSource(t, `package p
import "fmt"
func f(x *int) string { return fmt.Sprintf("at %p", x) }
func g(x *int) { fmt.Printf("node %p -> %d\n", x, *x) }
func h(w interface{ Write([]byte) (int, error) }, x *int) { fmt.Fprintf(w, "%p", x) }
`)
	if len(fs) != 3 {
		t.Fatalf("want 3 pointer-format findings, got %v", fs)
	}
	for _, f := range fs {
		if f.Check != CheckPointerFormat {
			t.Errorf("want %s, got %s", CheckPointerFormat, f.Check)
		}
	}
}

func TestPointerFormatMissingOperandStillFlagged(t *testing.T) {
	// The hazard is the verb itself; a short operand list must not hide it.
	fs := lintSource(t, `package p
import "fmt"
func f() string { return fmt.Sprintf("dangling %p") }
`)
	if len(fs) != 1 || fs[0].Check != CheckPointerFormat {
		t.Fatalf("want 1 pointer-format finding, got %v", fs)
	}
}

func TestPointerFormatLiteralPercentAllowed(t *testing.T) {
	fs := lintSource(t, `package p
import "fmt"
func f(n int) string { return fmt.Sprintf("%d%% passed", n) }
func g() string { return fmt.Sprintf("100%%p is not a verb") }
`)
	if len(fs) != 0 {
		t.Fatalf("escaped %%%% must not flag, got %v", fs)
	}
}

func TestPointerFormatWaiver(t *testing.T) {
	fs := lintSource(t, `package p
import "fmt"
func f(x *int) string { return fmt.Sprintf("at %p", x) } //determinism:ok — debug-only path
func g(x *int) string {
	//determinism:ok — identity log diffed within one process only
	return fmt.Sprintf("id %p", x)
}
`)
	if len(fs) != 0 {
		t.Fatalf("waived %%p uses must pass, got %v", fs)
	}
}
