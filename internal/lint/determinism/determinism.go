// Package determinism lints simulator packages for nondeterminism
// hazards. The simulator's contract is that equal seeds and equal
// configurations produce byte-identical outputs (reports, traces, JSON) —
// fault-injection campaigns, the experiment harness, and the ptrflow
// cross-check all diff outputs across runs, so a wall-clock read or an
// unsorted map walk that feeds a writer silently breaks them.
//
// Five checks:
//
//   - time-now: calls to (or references of) time.Now, time.Since, or
//     time.Until. Simulated time must come from the cycle counter;
//     wall-clock values embedded in output change every run.
//
//   - global-rand: use of math/rand's package-level functions (rand.Intn,
//     rand.Shuffle, rand.Seed, ...), whose stream is shared, racy, and —
//     since Go 1.20 — auto-seeded. Constructing explicit seeded
//     generators with rand.New(rand.NewSource(seed)) is allowed.
//
//   - map-range-output: a `for ... range m` over a map whose body calls
//     an output or serialization sink (fmt printing, Write*, json
//     Marshal/Encode). Go randomizes map iteration order, so such loops
//     emit differently ordered bytes on every run; iterate a sorted key
//     slice instead.
//
//   - map-format: a map-typed value passed to a %v (or %+v) verb of a
//     Printf-family formatter. fmt orders map keys with an internal
//     comparator that falls back to pointer order for reference-typed
//     keys, so the rendered bytes can differ across runs; render sorted
//     keys explicitly instead.
//
//   - pointer-format: a %p verb in a Printf-family format string. %p
//     renders a runtime address, which changes with every process (ASLR,
//     allocator layout), so any output it feeds diverges run to run;
//     print a stable identifier, index, or content digest instead.
//
// A finding is waived by a `//determinism:ok` comment on the same line
// (or the line above) — the waiver is for call sites that are provably
// order-insensitive or deliberately wall-clock-bound.
//
// The linter is purely stdlib (go/ast + go/types with the stdlib source
// importer), so it needs no module cache or export data: imported
// packages are type-checked from source, which resolves a map type
// declared in another package (a field of an imported struct, a named
// map) as well as a local one. Types are still resolved best-effort: an
// import that fails to type-check degrades its identifiers to "unknown",
// and those are skipped, which keeps the checks conservative (no false
// positives from partial information).
package determinism

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Check names.
const (
	CheckTimeNow        = "time-now"
	CheckGlobalRand     = "global-rand"
	CheckMapRangeOutput = "map-range-output"
	CheckMapFormat      = "map-format"
	CheckPointerFormat  = "pointer-format"
)

// Finding is one determinism hazard.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Msg)
}

// randAllowed lists the math/rand selectors that construct explicit
// generators instead of using the shared global stream.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	// Types and interfaces, not stream draws.
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
}

// sinkNames are method/function selectors treated as output or
// serialization sinks inside a map-range body.
var sinkNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Marshal": true, "MarshalIndent": true, "Encode": true,
}

// formatArgIdx maps Printf-family selector names to the position of
// their format-string argument; operands follow it.
var formatArgIdx = map[string]int{
	"Printf": 0, "Sprintf": 0, "Errorf": 0, "Logf": 0, "Fatalf": 0, "Panicf": 0,
	"Fprintf": 1, "Appendf": 1,
}

// Linter lints package directories with one FileSet and one source
// importer, so a package imported by many linted directories is
// type-checked once per run rather than once per directory.
type Linter struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLinter returns a Linter with an empty import cache.
func NewLinter() *Linter {
	fset := token.NewFileSet()
	return &Linter{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// LintDir lints the non-test Go files of one package directory with a
// Linter of its own.
func LintDir(dir string) ([]Finding, error) { return NewLinter().LintDir(dir) }

// LintDir lints the non-test Go files of one package directory.
func (l *Linter) LintDir(dir string) ([]Finding, error) {
	fset := l.fset
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	// Best-effort typecheck: imports resolve from source, and a package
	// that fails to type-check leaves its types invalid (and skipped).
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{
		Error:            func(error) {}, // partial information is fine
		Importer:         l.imp,
		FakeImportC:      true,
		IgnoreFuncBodies: false,
	}
	conf.Check(dir, fset, files, info) //determinism best-effort: errors ignored

	var out []Finding
	for _, f := range files {
		out = append(out, lintFile(fset, f, info)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

func lintFile(fset *token.FileSet, f *ast.File, info *types.Info) []Finding {
	waived := waivedLines(fset, f)
	timeName := importName(f, "time")
	randName := importName(f, "math/rand")

	var out []Finding
	report := func(pos token.Pos, check, msg string) {
		p := fset.Position(pos)
		if waived[p.Line] {
			return
		}
		out = append(out, Finding{Pos: p, Check: check, Msg: msg})
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			x, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			if timeName != "" && x.Name == timeName {
				switch n.Sel.Name {
				case "Now", "Since", "Until":
					report(n.Pos(), CheckTimeNow,
						fmt.Sprintf("wall-clock read time.%s breaks run-to-run reproducibility; derive timing from the cycle counter or inject the stamp from the caller", n.Sel.Name))
				}
			}
			if randName != "" && x.Name == randName && !randAllowed[n.Sel.Name] {
				report(n.Pos(), CheckGlobalRand,
					fmt.Sprintf("global math/rand stream rand.%s is auto-seeded and shared; use rand.New(rand.NewSource(seed))", n.Sel.Name))
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fi, ok := formatArgIdx[sel.Sel.Name]
			if !ok || len(n.Args) <= fi {
				return true
			}
			lit, ok := n.Args[fi].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			for vi, spec := range verbSpecs(format) {
				if spec == "%p" || spec == "%+p" {
					// The %p verb is a hazard regardless of its operand —
					// report it even when the operand list runs short.
					report(lit.Pos(), CheckPointerFormat,
						"%p renders a runtime address, which differs on every run (ASLR, allocator layout); print a stable identifier, index, or content digest instead")
					continue
				}
				argIdx := fi + 1 + vi
				if argIdx >= len(n.Args) {
					break
				}
				if (spec == "%v" || spec == "%+v") && isMapType(info, n.Args[argIdx]) {
					report(n.Args[argIdx].Pos(), CheckMapFormat,
						fmt.Sprintf("map-typed operand formatted with %s: fmt's key ordering falls back to pointer order for reference-typed keys; render sorted keys explicitly", spec))
				}
			}
		case *ast.RangeStmt:
			if !isMapType(info, n.X) {
				return true
			}
			if sink := findSink(n.Body); sink != nil {
				sel := sink.Fun.(*ast.SelectorExpr)
				report(n.Pos(), CheckMapRangeOutput,
					fmt.Sprintf("map iteration order is randomized but this loop feeds %s (line %d); iterate a sorted key slice", sel.Sel.Name, fset.Position(sink.Pos()).Line))
			}
		}
		return true
	})
	return out
}

// waivedLines collects the lines covered by //determinism:ok comments:
// the comment's own line and the line below it (for stand-alone waiver
// comments above the offending statement).
func waivedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	waived := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, "determinism:ok") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			waived[line] = true
			waived[line+1] = true
		}
	}
	return waived
}

// importName returns the file-local name of an imported package path, or
// "" if the file does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndexByte(p, '/'); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// verbSpecs parses a Printf-style format string into the normalized
// verb of each operand-consuming directive, in operand order: "%v",
// "%+v", "%d", ... A '*' width or precision consumes an operand of its
// own ("*"). Explicit operand indexes (%[1]v) abort parsing to nil —
// mis-mapping operands would misreport, so the check stays silent.
func verbSpecs(format string) []string {
	var out []string
	for i := 0; i < len(format); {
		if format[i] != '%' {
			i++
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			i++ // literal %%
			continue
		}
		hasPlus := false
	directive:
		for i < len(format) {
			switch c := format[i]; {
			case c == '[':
				return nil
			case c == '*':
				out = append(out, "*")
				i++
			case c == '+':
				hasPlus = true
				i++
			case strings.IndexByte("-# 0123456789.", c) >= 0:
				i++
			default:
				v := "%"
				if hasPlus {
					v = "%+"
				}
				out = append(out, v+string(c))
				i++
				break directive
			}
		}
	}
	return out
}

// isMapType reports whether expr's resolved type is a map. Unresolved
// types return false — conservative, no false positives.
func isMapType(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// findSink returns the first output/serialization call inside body, not
// descending into nested function literals (a deferred or stored closure
// does not emit during the iteration).
func findSink(body *ast.BlockStmt) *ast.CallExpr {
	var sink *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sinkNames[sel.Sel.Name] {
			sink = call
			return false
		}
		return true
	})
	return sink
}
