package core

import (
	"indextune/internal/iset"
	"indextune/internal/search"
	"indextune/internal/workload"
)

// pricer names its result; the implementation below does not. Result and
// parameter names are not part of a method's type, so the call through the
// interface still devirtualizes to the bypass.
type pricer interface {
	price(q *workload.Query, cfg iset.Set) (c float64)
}

// peeker implements pricer straight off the optimizer.
type peeker struct{ s *search.Session }

func (p peeker) price(q *workload.Query, cfg iset.Set) float64 {
	return p.s.Opt.PeekCost(q, cfg) // want "reaches whatif.Optimizer cost method"
}

// ViaNamedInterface reaches peeker.price through pricer.
func ViaNamedInterface(p pricer, q *workload.Query, cfg iset.Set) float64 {
	return p.price(q, cfg) // want "reaches whatif.Optimizer cost method"
}
