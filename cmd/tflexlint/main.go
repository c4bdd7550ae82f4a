// tflexlint runs the project's static-analysis suite (internal/lint)
// over the module: stdlib-only go/ast + go/types analyzers that enforce
// the simulator's determinism and event-ordering invariants.
//
// Usage:
//
//	go run ./cmd/tflexlint ./...            # whole module (the ci.sh lint stage)
//	go run ./cmd/tflexlint ./internal/sim   # one package subtree
//	go run ./cmd/tflexlint -analyzers determinism ./...
//	go run ./cmd/tflexlint -json ./...      # machine-readable findings
//	go run ./cmd/tflexlint -list            # describe the analyzers
//
// Findings print as "file:line:col: [analyzer] message" and make the
// exit status 1; a clean tree exits 0.  Suppress an audited finding
// with a `//lint:allow <analyzer> <reason>` comment on the flagged
// line or the line above — unused directives are themselves findings,
// so suppressions cannot go stale.
//
// With -json the output is one JSON array of findings, each with file,
// line, col, analyzer, message and allow-state; audited (allowed)
// findings are included with their reasons but do not affect the exit
// status, so CI can attach the full record while gating only on live
// findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/clp-sim/tflex/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "list the analyzers and exit")
	jsonFlag := flag.Bool("json", false, "emit findings as a JSON array (audited findings included, marked allowed)")
	analyzersFlag := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tflexlint [-list] [-json] [-analyzers a,b] [./... | dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range lint.All() {
			fmt.Printf("%-17s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *analyzersFlag != "" {
		var err error
		analyzers, err = lint.ByName(*analyzersFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tflexlint:", err)
			flag.Usage()
			os.Exit(2)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflexlint:", err)
		os.Exit(2)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflexlint:", err)
		os.Exit(2)
	}

	filter, err := packageFilter(cwd, root, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflexlint:", err)
		flag.Usage()
		os.Exit(2)
	}

	m, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tflexlint:", err)
		os.Exit(2)
	}

	diags := lint.RunDetailed(m, analyzers, filter)
	live := 0
	for i := range diags {
		// Print module-relative paths: stable across checkouts.
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
		if !diags[i].Allowed {
			live++
		}
	}

	if *jsonFlag {
		type finding struct {
			File        string `json:"file"`
			Line        int    `json:"line"`
			Col         int    `json:"col"`
			Analyzer    string `json:"analyzer"`
			Message     string `json:"message"`
			Allowed     bool   `json:"allowed"`
			AllowReason string `json:"allow_reason,omitempty"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
				Allowed: d.Allowed, AllowReason: d.AllowReason,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "tflexlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			if !d.Allowed {
				fmt.Println(d)
			}
		}
	}
	if live > 0 {
		fmt.Fprintf(os.Stderr, "tflexlint: %d finding(s)\n", live)
		os.Exit(1)
	}
}

// packageFilter turns command-line patterns into a package predicate.
// Supported: "./..." (everything), "dir/..." (subtree) and plain
// directories, all relative to the current directory.
func packageFilter(cwd, root string, args []string) (func(*lint.Package) bool, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	type pat struct {
		rel     string // module-relative path prefix ("" = module root)
		subtree bool
	}
	var pats []pat
	for _, a := range args {
		subtree := false
		if rest, ok := strings.CutSuffix(a, "/..."); ok {
			subtree = true
			a = rest
			if a == "." || a == "" {
				a = "."
			}
		}
		abs := a
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(cwd, a)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("pattern %q lies outside the module at %s", a, root)
		}
		if rel == "." {
			rel = ""
		}
		pats = append(pats, pat{rel: filepath.ToSlash(rel), subtree: subtree})
	}
	return func(p *lint.Package) bool {
		for _, pt := range pats {
			if p.RelPath == pt.rel {
				return true
			}
			if pt.subtree && (pt.rel == "" || strings.HasPrefix(p.RelPath, pt.rel+"/")) {
				return true
			}
		}
		return false
	}, nil
}
