// Command hatlint runs the repository's custom static-analysis suite
// (DESIGN.md §11): the AST/type-based checks (simdet, nogoroutine,
// obsnames) and the flow-sensitive checks (arenaalias, epochfence,
// wirebounds, errtaxonomy). It loads packages from source with the
// standard library's type checker, so it needs no module proxy and no
// generated export data.
//
// Usage:
//
//	go run ./cmd/hatlint ./...          # whole repo (the CI invocation)
//	go run ./cmd/hatlint ./internal/sim # one package
//	go run ./cmd/hatlint -list          # describe the suite
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load/usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"hatrpc/internal/analyzers"
	"hatrpc/internal/analyzers/framework"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
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
	for _, d := range diags {
		pos := ld.Fset.Position(d.Pos)
		fmt.Printf("%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
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
