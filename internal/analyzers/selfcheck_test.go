package analyzers_test

import (
	"testing"

	"hatrpc/internal/analyzers"
	"hatrpc/internal/analyzers/framework"
)

// TestSuiteCleanOnRepo runs the full hatlint suite over the repository
// itself — the same invocation as `go run ./cmd/hatlint ./...` in CI.
// The suite being clean is a standing invariant: any finding here is
// either a real determinism/protocol bug or a site that needs a
// justified //hatlint:allow.
// TestSuiteComposition pins the analyzer roster: all seven checks, in
// stable order, each with a name (the //hatlint:allow key) and a doc
// string. A dropped registration would silently shrink CI coverage.
func TestSuiteComposition(t *testing.T) {
	want := []string{
		"arenaalias", "epochfence", "errtaxonomy", "nogoroutine",
		"obsnames", "simdet", "wirebounds",
	}
	all := analyzers.All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run function", a.Name)
		}
	}
}

func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	ld, err := framework.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing most of the module", len(pkgs))
	}
	for _, d := range framework.Run(pkgs, analyzers.All()) {
		pos := ld.Fset.Position(d.Pos)
		t.Errorf("%s:%d: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
	}
}
