package hwmap

import (
	"fmt"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// Controller executes the nine implementation tables as the Figure 5
// micro-architecture does: the incoming message is routed to the request or
// the response controller, each of whose output tables is consulted with
// the same input key, and the per-table outputs are combined. It is the
// software twin of the generated hardware and the basis of the
// table-vs-implementation equivalence check.
type Controller struct {
	request  []*implLookup
	response []*implLookup
}

// implLookup matches one implementation table the way the hardware does: a
// TCAM-style ternary match (rel.Ternary) in which a NULL input cell is a
// dontcare (§3: the NULL value "helps in optimal mapping of tables to
// hardware"). Rows are bucketed by the incoming message; the most specific
// matching row (fewest dontcares) wins.
type implLookup struct {
	outCols []string
	outIdx  []int
	tab     *rel.Table
	m       *rel.Ternary
}

func newImplLookup(t *rel.Table) (*implLookup, error) {
	m, err := rel.NewTernary(t, edInputCols...)
	if err != nil {
		return nil, fmt.Errorf("hwmap: implementation table: %w", err)
	}
	l := &implLookup{tab: t, m: m}
	inIdx := make([]int, len(edInputCols))
	for i, c := range edInputCols {
		inIdx[i] = t.ColIndex(c)
	}
	l.outCols = t.Columns()[len(edInputCols):]
	l.outIdx = make([]int, len(l.outCols))
	for i, c := range l.outCols {
		l.outIdx[i] = t.ColIndex(c)
	}
	exact := map[string]int{}
	for r := 0; r < t.NumRows(); r++ {
		key := t.RowKey(r, inIdx)
		if prev, dup := exact[key]; dup {
			same := true
			for _, j := range l.outIdx {
				if t.CodeAt(prev, j) != t.CodeAt(r, j) {
					same = false
					break
				}
			}
			if !same {
				return nil, fmt.Errorf("hwmap: table %q is nondeterministic for one input", t.Name())
			}
			continue
		}
		exact[key] = r
	}
	return l, nil
}

// match finds the most specific row matching the inputs (NULL row cells are
// dontcares) and returns its outputs.
func (l *implLookup) match(inputs map[string]rel.Value) ([]rel.Value, bool) {
	best := l.m.Match(inputs)
	if best < 0 {
		return nil, false
	}
	outs := make([]rel.Value, len(l.outIdx))
	for i, j := range l.outIdx {
		outs[i] = l.tab.At(best, j)
	}
	return outs, true
}

// NewController builds the executable controller from a mapping.
func NewController(m *Mapping) (*Controller, error) {
	c := &Controller{}
	for i, t := range m.Tables {
		l, err := newImplLookup(t)
		if err != nil {
			return nil, err
		}
		if i < len(requestOutputGroups) {
			c.request = append(c.request, l)
		} else {
			c.response = append(c.response, l)
		}
	}
	return c, nil
}

// Lookup routes one input combination through the split controller and
// returns the combined outputs keyed by column name. The boolean reports
// whether any table matched.
func (c *Controller) Lookup(inputs map[string]rel.Value) (map[string]rel.Value, bool) {
	tables := c.response
	if protocol.IsRequest(inputs["inmsg"].Str()) {
		tables = c.request
	}
	out := map[string]rel.Value{}
	matched := false
	for _, l := range tables {
		vals, ok := l.match(inputs)
		if !ok {
			continue
		}
		matched = true
		for i, col := range l.outCols {
			out[col] = vals[i]
		}
	}
	if !matched {
		return nil, false
	}
	return out, true
}

// VerifyEquivalence proves the split controller behaves exactly like the
// extended table: for every ED row, routing its inputs through the nine
// implementation tables reproduces every output column. This is the §5
// guarantee — "the debugged tables must be mapped to an implementation
// while preserving all the properties established by static analyses" —
// checked executably rather than by reconstruction alone.
func (m *Mapping) VerifyEquivalence() error {
	ctrl, err := NewController(m)
	if err != nil {
		return err
	}
	ed := m.Extended
	for i := 0; i < ed.NumRows(); i++ {
		inputs := map[string]rel.Value{}
		for _, col := range edInputCols {
			inputs[col] = ed.Get(i, col)
		}
		got, ok := ctrl.Lookup(inputs)
		if !ok {
			return fmt.Errorf("%w: row %d has no implementation behaviour", ErrBroken, i)
		}
		for _, col := range ed.Columns() {
			if !isOutputCol(col) && col != ColFdback {
				continue
			}
			want := ed.Get(i, col)
			have, present := got[col]
			if !present {
				have = rel.Null()
			}
			if !have.Equal(want) {
				return fmt.Errorf("%w: row %d column %s: implementation says %v, table says %v",
					ErrBroken, i, col, have, want)
			}
		}
	}
	return nil
}
