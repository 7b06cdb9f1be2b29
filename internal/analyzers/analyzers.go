// Package analyzers assembles the hatlint suite: the custom static
// checks that machine-enforce the repository's DES-determinism and
// verbs-protocol invariants (DESIGN.md §11). The suite runs in CI via
// cmd/hatlint and must stay clean on the whole repo.
package analyzers

import (
	"hatrpc/internal/analyzers/arenaalias"
	"hatrpc/internal/analyzers/epochfence"
	"hatrpc/internal/analyzers/errtaxonomy"
	"hatrpc/internal/analyzers/framework"
	"hatrpc/internal/analyzers/nogoroutine"
	"hatrpc/internal/analyzers/obsnames"
	"hatrpc/internal/analyzers/simdet"
	"hatrpc/internal/analyzers/wirebounds"
)

// All returns every analyzer in the hatlint suite, in stable order.
// simdet, nogoroutine and obsnames are AST/type-based; the other four
// ride the flow-sensitive engine. The bar for membership: a seeded
// violation of the analyzer's invariant in product code is reported and
// survives `go test ./...` (DESIGN.md §11 has the table of mutations).
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		arenaalias.Analyzer,
		epochfence.Analyzer,
		errtaxonomy.Analyzer,
		nogoroutine.Analyzer,
		obsnames.Analyzer,
		simdet.Analyzer,
		wirebounds.Analyzer,
	}
}
