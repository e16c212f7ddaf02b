package rel

import "fmt"

// Ternary is a TCAM-style ternary matcher over a table's input columns,
// the lookup a controller table performs in hardware: a NULL input cell
// is a dontcare that matches anything, and among the rows matching a
// binding the most specific one — the most non-NULL matching inputs —
// wins, the first such row on a tie. Rows are bucketed by the Str() of
// their first input cell, so S("") and NULL share a bucket; that
// looseness is part of the matcher's observed behaviour. The input
// columns are zero-copy code vectors, so scoring a candidate is integer
// compares against the binding encoded once per lookup.
type Ternary struct {
	cols    []string
	codes   [][]uint32
	buckets map[string][]int
	dict    *Dict
}

// noCode marks a binding value absent from the dictionary: no cell can
// equal it, so it never matches a non-dontcare cell.
const noCode = ^uint32(0)

// NewTernary builds a matcher over t's input columns cols (at least
// one). Like BuildIndex it snapshots the rows present at construction.
func NewTernary(t *Table, cols ...string) (*Ternary, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("rel: ternary match on table %q needs at least one input column", t.name)
	}
	m := &Ternary{cols: append([]string(nil), cols...), buckets: make(map[string][]int), dict: t.dict}
	for _, c := range cols {
		j := t.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("%w: input %q in table %q", ErrUnknownColumn, c, t.name)
		}
		m.codes = append(m.codes, t.ColCodes(j))
	}
	for i, c := range m.codes[0] {
		k := t.dict.Value(c).Str()
		m.buckets[k] = append(m.buckets[k], i)
	}
	return m, nil
}

// Match returns the row number of the most specific row matching the
// binding, or -1 when none does. The binding maps input column names to
// values; a missing entry is NULL, which matches only dontcare cells.
func (m *Ternary) Match(binding map[string]Value) int {
	bcodes := make([]uint32, len(m.cols))
	for k, name := range m.cols {
		if c, ok := m.dict.LookupCode(binding[name]); ok {
			bcodes[k] = c
		} else {
			bcodes[k] = noCode
		}
	}
	best, bestScore := -1, -1
	for _, i := range m.buckets[binding[m.cols[0]].Str()] {
		score := 0
		ok := true
		for k, col := range m.codes {
			want := col[i]
			if want == NullCode {
				continue // dontcare
			}
			if want != bcodes[k] {
				ok = false
				break
			}
			score++
		}
		if ok && score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}
