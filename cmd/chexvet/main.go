// Command chexvet runs the determinism lint suite over simulator
// packages. It forbids wall-clock reads (time.Now/Since/Until), draws
// from the global math/rand stream, unsorted map iteration that feeds
// output or serialization, and %p format verbs (runtime addresses differ
// on every run) — the hazards that break the simulator's
// byte-identical-reruns contract. A finding is waived by a
// //determinism:ok comment on the same line or the line above.
//
// With no arguments it audits the four core packages:
// internal/pipeline, internal/tracker, internal/faultinject, and
// internal/experiments. Arguments are package directories; the pattern
// "./..." walks the whole tree. Findings are printed one per line and
// make the exit status non-zero, so it slots into CI next to go vet.
//
// Usage:
//
//	chexvet
//	chexvet ./...
//	chexvet internal/pipeline internal/tracker
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"chex86/internal/lint/determinism"
)

// auditedPackages is the default lint surface: the packages whose outputs
// (reports, traces, campaign JSON) must be byte-stable across reruns.
var auditedPackages = []string{
	"internal/pipeline",
	"internal/tracker",
	"internal/faultinject",
	"internal/experiments",
}

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = auditedPackages
	}

	var dirs []string
	for _, a := range args {
		if strings.HasSuffix(a, "...") {
			root := strings.TrimSuffix(strings.TrimSuffix(a, "..."), "/")
			if root == "" || root == "." {
				root = "."
			}
			expanded, err := walkPackages(root)
			if err != nil {
				fail(err)
			}
			dirs = append(dirs, expanded...)
		} else {
			dirs = append(dirs, filepath.Clean(a))
		}
	}
	sort.Strings(dirs)
	dirs = dedup(dirs)

	// One linter for every directory: each imported package is
	// type-checked from source once per run.
	l := determinism.NewLinter()
	total := 0
	for _, dir := range dirs {
		findings, err := l.LintDir(dir)
		if err != nil {
			fail(fmt.Errorf("%s: %w", dir, err))
		}
		for _, f := range findings {
			fmt.Println(f)
		}
		total += len(findings)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "chexvet: %d finding(s)\n", total)
		os.Exit(1)
	}
}

// walkPackages collects directories under root containing non-test Go
// files, skipping hidden directories and testdata.
func walkPackages(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out, nil
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "chexvet:", err)
	os.Exit(2)
}
