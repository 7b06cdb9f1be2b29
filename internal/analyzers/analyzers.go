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
	"hatrpc/internal/analyzers/maporder"
	"hatrpc/internal/analyzers/nogoroutine"
	"hatrpc/internal/analyzers/obsnames"
	"hatrpc/internal/analyzers/simdet"
	"hatrpc/internal/analyzers/wirebounds"
)

// All returns every analyzer in the hatlint suite, in stable order.
// simdet, maporder, nogoroutine and obsnames are AST/type-based (PR 4);
// the other four ride the flow-sensitive engine (DESIGN.md §16).
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		arenaalias.Analyzer,
		epochfence.Analyzer,
		errtaxonomy.Analyzer,
		maporder.Analyzer,
		nogoroutine.Analyzer,
		obsnames.Analyzer,
		simdet.Analyzer,
		wirebounds.Analyzer,
	}
}
