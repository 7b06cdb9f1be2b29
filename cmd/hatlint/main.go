// Command hatlint runs the repository's custom static-analysis suite
// (DESIGN.md §11, §16): the AST/type-based checks (simdet, maporder,
// nogoroutine, obsnames) and the flow-sensitive checks
// (arenaalias, epochfence, wirebounds, errtaxonomy). It loads packages
// from source with the standard library's type checker, so it needs no
// module proxy and no generated export data.
//
// Usage:
//
//	go run ./cmd/hatlint ./...          # whole repo (the CI invocation)
//	go run ./cmd/hatlint ./internal/sim # one package
//	go run ./cmd/hatlint -list          # describe the suite
//	go run ./cmd/hatlint -json ./...    # findings as a JSON array
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hatrpc/internal/analyzers"
	"hatrpc/internal/analyzers/framework"
)

// finding is the machine-readable shape of one diagnostic, for editor
// and CI integrations that would otherwise scrape the text format.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	ld, err := framework.NewLoader(cwd)
	if err != nil {
		fail(err)
	}
	pkgs, err := ld.Load(patterns...)
	if err != nil {
		fail(err)
	}
	diags := framework.Run(pkgs, suite)
	if *asJSON {
		// Always an array — `[]` when clean — so consumers can parse
		// unconditionally and branch on length, not on exit status.
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			pos := ld.Fset.Position(d.Pos)
			out = append(out, finding{
				File:     pos.Filename,
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			pos := ld.Fset.Position(d.Pos)
			fmt.Printf("%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hatlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hatlint:", err)
	os.Exit(2)
}
