// Command pilutlint runs the repro/internal/analysis suite — sendalias,
// collective, procescape, bytesarg, determinism, floatfold, hotalloc,
// errdrop — over packages of this module:
//
//	go run ./cmd/pilutlint ./...
//
// Arguments are package directories; "./..." (the default) walks the
// module. Test files are skipped unless -tests is given, because the
// communicator tests intentionally violate the invariants to exercise
// failure paths. Suppress a finding with a trailing
// "//pilutlint:ok <analyzer> <reason>" comment.
//
// -json emits the findings as a JSON array (one object per finding with
// file, line, col, analyzer, message) on stdout — the CI lint job
// uploads it as an artifact. -enable / -disable take comma-separated
// analyzer names to restrict the run.
//
// Exit status: 0 clean, 1 findings, 2 load/type/usage errors — CI can
// tell a regression from a broken tree. Every text-mode diagnostic ends
// with the analyzer name in parentheses.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Finding is one diagnostic in -json output.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run executes the driver and returns its exit code: 0 clean, 1 at
// least one finding, 2 load/type/usage error.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pilutlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tests := fs.Bool("tests", false, "also analyze _test.go files")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pilutlint [-tests] [-json] [-enable a,b] [-disable a,b] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "pilutlint:", err)
		return 2
	}

	args := fs.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dirs, err := analysis.ExpandPatterns(args)
	if err != nil {
		fmt.Fprintln(stderr, "pilutlint:", err)
		return 2
	}

	ld, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "pilutlint:", err)
		return 2
	}

	findings := []Finding{} // non-nil so -json prints [] on a clean tree
	broken := false
	for _, dir := range dirs {
		pkgs, err := ld.Load(dir, *tests)
		if err != nil {
			fmt.Fprintln(stderr, "pilutlint:", err)
			broken = true
			continue
		}
		for _, pkg := range pkgs {
			for _, a := range analyzers {
				diags, err := a.Apply(pkg)
				if err != nil {
					fmt.Fprintf(stderr, "pilutlint: %s: %s: %v\n", pkg.Path, a.Name, err)
					broken = true
					continue
				}
				for _, d := range diags {
					pos := pkg.Fset.Position(d.Pos)
					findings = append(findings, Finding{
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Analyzer: a.Name,
						Message:  d.Message,
					})
					if !*jsonOut {
						fmt.Fprintf(stdout, "%s: %s (%s)\n", pos, d.Message, a.Name)
					}
				}
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "pilutlint:", err)
			return 2
		}
	}
	switch {
	case broken:
		return 2
	case len(findings) > 0:
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable/-disable to the full suite.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range analysis.All() {
		byName[a.Name] = a
	}
	parse := func(list string) (map[string]bool, error) {
		if list == "" {
			return nil, nil
		}
		set := make(map[string]bool)
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := byName[name]; !ok {
				return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, analyzerNames())
			}
			set[name] = true
		}
		return set, nil
	}
	on, err := parse(enable)
	if err != nil {
		return nil, err
	}
	off, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var out []*analysis.Analyzer
	for _, a := range analysis.All() {
		if on != nil && !on[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

func analyzerNames() string {
	var names []string
	for _, a := range analysis.All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}
