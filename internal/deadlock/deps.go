package deadlock

import (
	"fmt"
	"strings"

	"coherdb/internal/rel"
)

// VAssign is one channel assignment occurrence in a dependency: message,
// source, destination and the channel it rides.
type VAssign struct {
	M, S, D, VC string
}

func (a VAssign) String() string {
	return fmt.Sprintf("(%s, %s, %s, %s)", a.M, a.S, a.D, a.VC)
}

// DepRow is one row of a (controller / pairwise / protocol) dependency
// table: processing the input assignment requires the output assignment's
// channel — the input channel depends on the output channel (§4.1).
type DepRow struct {
	In, Out VAssign
	// Origin records provenance: the controller and placement of a row,
	// as in "D@L!=H=R", and "A*B" for a row composed from rows A and B,
	// as in "D@L!=H=R*M@L!=H=R".
	Origin string
}

func (d DepRow) String() string {
	return fmt.Sprintf("%s -> %s [%s]", d.In, d.Out, d.Origin)
}

// depCols is the 8-column schema of dependency tables (§4.1: "This table
// has 8 columns representing the input assignment followed by the output
// assignment").
var depCols = []string{"m1", "s1", "d1", "vc1", "m2", "s2", "d2", "vc2"}

// DepTable materializes dependency rows as a relation (plus an origin
// column for diagnostics).
func DepTable(name string, rows []DepRow) *rel.Table {
	t := rel.MustNewTable(name, append(append([]string{}, depCols...), "origin")...)
	for _, r := range rows {
		t.MustInsert(
			rel.S(r.In.M), rel.S(r.In.S), rel.S(r.In.D), rel.S(r.In.VC),
			rel.S(r.Out.M), rel.S(r.Out.S), rel.S(r.Out.D), rel.S(r.Out.VC),
			rel.S(r.Origin),
		)
	}
	return t
}

// msgGroups discovers the message column groups of a controller table by
// the src/dest convention: a column g is a message group iff columns
// g+"src" and g+"dest" exist. The input group is "inmsg"; all others are
// output groups.
func msgGroups(t *rel.Table) (in string, outs []string, err error) {
	for _, c := range t.Columns() {
		if strings.HasSuffix(c, "src") || strings.HasSuffix(c, "dest") || strings.HasSuffix(c, "rsrc") {
			continue
		}
		if t.HasColumn(c+"src") && t.HasColumn(c+"dest") {
			if c == "inmsg" {
				in = c
			} else {
				outs = append(outs, c)
			}
		}
	}
	if in == "" {
		return "", nil, fmt.Errorf("%w: table %q has no inmsg group", ErrBadController, t.Name())
	}
	if len(outs) == 0 {
		return "", nil, fmt.Errorf("%w: table %q has no output message groups", ErrBadController, t.Name())
	}
	return in, outs, nil
}
