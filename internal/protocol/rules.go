package protocol

import (
	"fmt"
	"sort"
	"strings"

	"coherdb/internal/constraint"
)

// Rule is one controller transition case: when the input condition When
// holds, the output columns take the values in Set (outputs not listed are
// NULL, i.e. noop). Rules are the authoring form; a RuleSet compiles them
// into column constraints the solver runs (see CompileInto). A rule's When
// must be written over input columns only; the first rule (in order) whose
// When is true defines every output of a row.
type Rule struct {
	// ID identifies the rule in diagnostics, e.g. "readex@SI". It is also
	// the rule's value in the hidden rule column, so it must not contain
	// a double quote.
	ID string
	// When is an input condition in the constraint dialect.
	When string
	// Set maps output columns to their values. The special value "NULL"
	// (or an absent column) means noop.
	Set map[string]string
}

// RuleSet accumulates rules for one controller spec and compiles them.
type RuleSet struct {
	rules []Rule
	ids   map[string]struct{}
}

// NewRuleSet returns an empty rule set.
func NewRuleSet() *RuleSet {
	return &RuleSet{ids: make(map[string]struct{})}
}

// Add appends a rule. Duplicate IDs panic: protocol specs are static and a
// duplicate is an authoring bug.
func (rs *RuleSet) Add(r Rule) {
	if r.ID == "" {
		panic("protocol: rule without ID")
	}
	if _, dup := rs.ids[r.ID]; dup {
		panic(fmt.Sprintf("protocol: duplicate rule ID %q", r.ID))
	}
	rs.ids[r.ID] = struct{}{}
	rs.rules = append(rs.rules, r)
}

// Addf is Add with a formatted ID.
func (rs *RuleSet) Addf(idFormat string, args []any, when string, set map[string]string) {
	rs.Add(Rule{ID: fmt.Sprintf(idFormat, args...), When: when, Set: set})
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// Rules returns the rules in order.
func (rs *RuleSet) Rules() []Rule { return append([]Rule(nil), rs.rules...) }

// RuleColumn is the hidden column CompileInto adds: the ID of the row's
// first matching rule.
const RuleColumn = "rule"

// CompileInto attaches the compiled rules to spec as one hidden column,
// RuleColumn, placed after the inputs, plus one rule-keyed constraint per
// output column. The rule column takes the ID of the first rule whose
// When is true (unknown counts as false):
//
//	when1 ? rule = "id1" : when2 ? rule = "id2" : ... : rule = NULL
//
// and each output column looks its value up by rule, one branch per
// distinct value:
//
//	rule in ("id1", "id4") ? col = v1 : rule in ("id2") ? col = v2 : col = NULL
//
// so the solver walks the rule conditions once per input row, and each
// output step groups rows by rule instead of re-walking them. With prune
// set, the rule column has no NULL, so input rows no rule covers are
// illegal and pruned; without it they stay, with every output NULL.
//
// CompileInto fails, naming the rule and column, when a rule sets a column
// that is not in outputs, sets a value outside the column's domain, or has
// an ID that cannot be written as a double-quoted literal.
func (rs *RuleSet) CompileInto(spec *constraint.Spec, prune bool, outputs []string) error {
	domains := make(map[string]map[string]bool, len(outputs))
	for _, c := range spec.Columns() {
		dom := make(map[string]bool, len(c.Values))
		for _, v := range c.Values {
			dom[v] = true
		}
		domains[c.Name] = dom
	}
	isOut := make(map[string]bool, len(outputs))
	for _, col := range outputs {
		if _, ok := domains[col]; !ok {
			return fmt.Errorf("protocol: output %q: %w", col, constraint.ErrNoColumn)
		}
		isOut[col] = true
	}
	ids := make([]string, len(rs.rules))
	for i, r := range rs.rules {
		if r.ID == "NULL" || strings.Contains(r.ID, `"`) {
			return fmt.Errorf("protocol: rule %q: ID cannot be written as a double-quoted literal", r.ID)
		}
		ids[i] = r.ID
		cols := make([]string, 0, len(r.Set))
		for col := range r.Set {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		for _, col := range cols {
			v := r.Set[col]
			if !isOut[col] {
				return fmt.Errorf("protocol: rule %q sets %q, which is not an output column", r.ID, col)
			}
			if v != "NULL" && !domains[col][v] {
				return fmt.Errorf("protocol: rule %q sets %s = %q, outside the column's domain", r.ID, col, v)
			}
		}
	}
	if err := spec.AddColumnAfterInputs(constraint.Column{
		Name: RuleColumn, Kind: constraint.Hidden, Values: ids, NoNull: prune,
	}); err != nil {
		return fmt.Errorf("protocol: rule column: %w", err)
	}

	var sb strings.Builder
	for _, r := range rs.rules {
		sb.WriteString("(")
		sb.WriteString(r.When)
		sb.WriteString(") ? ")
		sb.WriteString(eq(RuleColumn, r.ID))
		sb.WriteString(" : ")
	}
	sb.WriteString(eq(RuleColumn, "NULL"))
	if err := spec.Constrain(RuleColumn, sb.String()); err != nil {
		return fmt.Errorf("protocol: rule constraint: %w", err)
	}
	for _, col := range outputs {
		if err := spec.Constrain(col, rs.lookupFor(col)); err != nil {
			return fmt.Errorf("protocol: constraint for %s: %w", col, err)
		}
	}
	return nil
}

// lookupFor builds the rule-keyed constraint for one output column: one
// branch per distinct non-NULL value (in order of first use) listing the
// rules that set it, NULL for every other rule and for rows no rule covers.
func (rs *RuleSet) lookupFor(col string) string {
	var vals []string
	byVal := make(map[string][]string)
	for _, r := range rs.rules {
		v, ok := r.Set[col]
		if !ok || v == "NULL" {
			continue
		}
		if _, seen := byVal[v]; !seen {
			vals = append(vals, v)
		}
		byVal[v] = append(byVal[v], r.ID)
	}
	var sb strings.Builder
	for _, v := range vals {
		sb.WriteString(in(RuleColumn, byVal[v]...))
		sb.WriteString(" ? ")
		sb.WriteString(eq(col, v))
		sb.WriteString(" : ")
	}
	sb.WriteString(eq(col, "NULL"))
	return sb.String()
}

// quoteVal renders a rule value as a constraint literal. "NULL" stays the
// NULL keyword; everything else becomes a double-quoted symbol so hyphened
// state names parse unambiguously.
func quoteVal(v string) string {
	if v == "NULL" {
		return "NULL"
	}
	return `"` + v + `"`
}

// eq builds the atom `col = "value"` (or `col = NULL`).
func eq(col, val string) string { return col + " = " + quoteVal(val) }

// ne builds the atom `col <> "value"` (or `col <> NULL`).
func ne(col, val string) string { return col + " <> " + quoteVal(val) }

// in builds `col in ("a", "b", ...)`.
func in(col string, vals ...string) string {
	var sb strings.Builder
	sb.WriteString(col)
	sb.WriteString(" in (")
	for i, v := range vals {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteVal(v))
	}
	sb.WriteString(")")
	return sb.String()
}

// all joins conditions with and.
func all(conds ...string) string {
	return "(" + strings.Join(conds, " and ") + ")"
}

// anyOf joins conditions with or.
func anyOf(conds ...string) string {
	return "(" + strings.Join(conds, " or ") + ")"
}
