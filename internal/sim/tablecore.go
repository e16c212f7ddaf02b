package sim

import (
	"fmt"

	"coherdb/internal/rel"
)

// tableCore executes a controller table: given a binding of input columns,
// it finds the matching row through a rel.Ternary. A NULL in an input
// column of a row is a dontcare and matches anything; the most specific
// matching row (fewest dontcares among bound inputs) wins, which resolves
// the overlap between the concrete interleaving rows and dontcare retry
// rows.
type tableCore struct {
	tab *rel.Table
	m   *rel.Ternary
	// hits, when set, is incremented on every successful match — wired to
	// the owning System's Stats.Transitions.
	hits *int
}

func newTableCore(tab *rel.Table, inCols []string) (*tableCore, error) {
	m, err := rel.NewTernary(tab, inCols...)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &tableCore{tab: tab, m: m}, nil
}

// match finds the most specific row matching the binding. The binding maps
// input column names to concrete values; a missing binding entry is treated
// as NULL.
func (tc *tableCore) match(binding map[string]rel.Value) (rel.Row, bool) {
	best := tc.m.Match(binding)
	if best < 0 {
		return rel.Row{}, false
	}
	if tc.hits != nil {
		*tc.hits++
	}
	return tc.tab.Row(best), true
}
