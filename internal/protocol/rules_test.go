package protocol

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/rel"
)

func TestRuleSetBasics(t *testing.T) {
	rs := NewRuleSet()
	rs.Add(Rule{ID: "a", When: `x = "1"`, Set: map[string]string{"y": "p"}})
	rs.Addf("b%d", []any{2}, `x = "2"`, map[string]string{"y": "q"})
	if rs.Len() != 2 {
		t.Fatal("len")
	}
	if got := rs.Rules(); len(got) != 2 || got[0].ID != "a" || got[1].ID != "b2" {
		t.Fatalf("rules = %+v", got)
	}
}

func TestRuleSetDuplicateIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rs := NewRuleSet()
	rs.Add(Rule{ID: "x", When: "a = 1"})
	rs.Add(Rule{ID: "x", When: "a = 2"})
}

func TestRuleSetEmptyIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRuleSet().Add(Rule{When: "a = 1"})
}

func TestCompileRulePriority(t *testing.T) {
	// Overlapping rules: the first matching rule defines every output,
	// even the ones it leaves at NULL.
	s := constraint.NewSpec("prio")
	mustDo(t, s.AddInput("x", "1", "2"))
	mustDo(t, s.AddOutput("y", "p", "q"))
	mustDo(t, s.AddOutput("z", "r"))
	rs := NewRuleSet()
	rs.Add(Rule{ID: "specific", When: `x = "1"`, Set: map[string]string{"y": "p"}}) // z stays NULL
	rs.Add(Rule{ID: "general", When: `x <> NULL`, Set: map[string]string{"y": "q", "z": "r"}})
	if err := rs.CompileInto(s, true, []string{"y", "z"}); err != nil {
		t.Fatal(err)
	}
	tab, _, err := constraint.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	row1 := tab.Select(func(r rel.Row) bool { return r.Get("x").Equal(rel.S("1")) })
	if row1.NumRows() != 1 || !row1.Get(0, "y").Equal(rel.S("p")) || !row1.Get(0, "z").IsNull() {
		t.Fatalf("priority violated:\n%s", tab)
	}
	row2 := tab.Select(func(r rel.Row) bool { return r.Get("x").Equal(rel.S("2")) })
	if row2.NumRows() != 1 || !row2.Get(0, "y").Equal(rel.S("q")) || !row2.Get(0, "z").Equal(rel.S("r")) {
		t.Fatalf("general rule broken:\n%s", tab)
	}
}

// TestQuickCompiledRulesMatchDirectEvaluation is the compiler's soundness
// property: solving the compiled ternary constraints yields exactly the
// table obtained by directly applying the first matching rule to every
// legal input combination.
func TestQuickCompiledRulesMatchDirectEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	for trial := 0; trial < 30; trial++ {
		inVals := []string{"a", "b", "c"}[:1+rng.Intn(3)]
		outVals := []string{"p", "q"}

		// Random rules over two input columns.
		type simpleRule struct {
			x, y string // conditions on in1 (and in2 when y != "")
			set  map[string]string
		}
		var simples []simpleRule
		rs := NewRuleSet()
		n := 1 + rng.Intn(4)
		for k := 0; k < n; k++ {
			r := simpleRule{x: inVals[rng.Intn(len(inVals))], set: map[string]string{}}
			when := `in1 = "` + r.x + `"`
			if rng.Intn(2) == 0 {
				r.y = inVals[rng.Intn(len(inVals))]
				when += ` and in2 = "` + r.y + `"`
			}
			if rng.Intn(2) == 0 {
				r.set["out1"] = outVals[rng.Intn(len(outVals))]
			}
			if rng.Intn(2) == 0 {
				r.set["out2"] = outVals[rng.Intn(len(outVals))]
			}
			rs.Add(Rule{ID: string(rune('r' + k)), When: when, Set: r.set})
			simples = append(simples, r)
		}

		spec := constraint.NewSpec("q")
		mustDo(t, spec.AddColumn(constraint.Column{Name: "in1", Values: inVals, NoNull: true}))
		mustDo(t, spec.AddColumn(constraint.Column{Name: "in2", Values: inVals, NoNull: true}))
		mustDo(t, spec.AddColumn(constraint.Column{Name: "out1", Kind: constraint.Output, Values: outVals}))
		mustDo(t, spec.AddColumn(constraint.Column{Name: "out2", Kind: constraint.Output, Values: outVals}))
		if err := rs.CompileInto(spec, true, []string{"out1", "out2"}); err != nil {
			t.Fatal(err)
		}
		got, _, err := constraint.Solve(spec)
		if err != nil {
			t.Fatal(err)
		}

		// Direct evaluation: for each input combo, the first matching
		// rule's Set defines the outputs; combos with no match are
		// illegal (pruned by the legality constraint).
		want := rel.MustNewTable("q", "in1", "in2", "out1", "out2")
		for _, v1 := range inVals {
			for _, v2 := range inVals {
				matched := false
				for _, r := range simples {
					if r.x != v1 || (r.y != "" && r.y != v2) {
						continue
					}
					o1, o2 := rel.Null(), rel.Null()
					if v, ok := r.set["out1"]; ok {
						o1 = rel.S(v)
					}
					if v, ok := r.set["out2"]; ok {
						o2 = rel.S(v)
					}
					want.MustInsert(rel.S(v1), rel.S(v2), o1, o2)
					matched = true
					break
				}
				_ = matched
			}
		}
		eq, err := got.EqualRows(want.SetName(got.Name()))
		if err != nil || !eq {
			t.Fatalf("trial %d: compiled table differs\ncompiled:\n%s\ndirect:\n%s",
				trial, got, want)
		}
	}
}

func TestCompileLegalityConstraintPrunes(t *testing.T) {
	s := constraint.NewSpec("legal")
	mustDo(t, s.AddColumn(constraint.Column{Name: "x", Values: []string{"1", "2", "3"}, NoNull: true}))
	mustDo(t, s.AddColumn(constraint.Column{Name: "y", Kind: constraint.Output, Values: []string{"p"}}))
	rs := NewRuleSet()
	rs.Add(Rule{ID: "only1", When: `x = "1"`, Set: map[string]string{"y": "p"}})
	if err := rs.CompileInto(s, true, []string{"y"}); err != nil {
		t.Fatal(err)
	}
	tab, _, err := constraint.Solve(s)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 {
		t.Fatalf("legality failed to prune: %d rows\n%s", tab.NumRows(), tab)
	}
}

func TestCompileInvalidConstraintSurfaces(t *testing.T) {
	s := constraint.NewSpec("bad")
	mustDo(t, s.AddInput("x", "1"))
	mustDo(t, s.AddOutput("y", "p"))
	rs := NewRuleSet()
	rs.Add(Rule{ID: "broken", When: `x = `, Set: map[string]string{"y": "p"}})
	if err := rs.CompileInto(s, true, []string{"y"}); err == nil {
		t.Fatal("broken When must fail compilation")
	}
}

// TestCompileRejectsBadRules checks that CompileInto fails, naming the
// rule and the column, on rules that would otherwise be dropped or delete
// every row they match without a word.
func TestCompileRejectsBadRules(t *testing.T) {
	cases := []struct {
		name string
		rule Rule
		want []string // substrings of the error
	}{
		{"set-of-non-output", Rule{ID: "typo", Set: map[string]string{"yy": "p"}}, []string{`"typo"`, `"yy"`}},
		{"value-outside-domain", Rule{ID: "stray", Set: map[string]string{"y": "q"}}, []string{`"stray"`, `y = "q"`}},
		{"id-with-quote", Rule{ID: `say "hi"`}, []string{`say \"hi\"`, "double-quoted"}},
		{"id-null", Rule{ID: "NULL"}, []string{`"NULL"`, "double-quoted"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := constraint.NewSpec("bad")
			mustDo(t, s.AddInput("x", "1"))
			mustDo(t, s.AddOutput("y", "p"))
			rs := NewRuleSet()
			c.rule.When = `x = "1"`
			rs.Add(c.rule)
			err := rs.CompileInto(s, true, []string{"y"})
			if err == nil {
				t.Fatal("CompileInto accepted the rule")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %s", err, w)
				}
			}
		})
	}
}

// compileChains is the oracle for CompileInto: the per-column form the
// rule compiler used before the rule column existed. Every output column
// gets one ternary chain over all rules, in order,
//
//	when1 ? col = v1 : when2 ? col = v2 : ... : col = NULL
//
// and, when legalityCol is set, that column gets the disjunction of all
// rule conditions, pruning input rows no rule covers.
func compileChains(rs *RuleSet, spec *constraint.Spec, legalityCol string, outputs []string) error {
	if legalityCol != "" {
		conds := make([]string, len(rs.rules))
		for i, r := range rs.rules {
			conds[i] = "(" + r.When + ")"
		}
		if err := spec.Constrain(legalityCol, strings.Join(conds, " or ")); err != nil {
			return err
		}
	}
	for _, col := range outputs {
		if err := spec.Constrain(col, chainFor(rs, col)); err != nil {
			return err
		}
	}
	return nil
}

// chainFor builds the oracle's ternary chain for one output column. Every
// rule takes part, with NULL when it does not set the column, so rule
// priority holds for overlapping conditions.
func chainFor(rs *RuleSet, col string) string {
	sets := false
	for _, r := range rs.rules {
		if v, ok := r.Set[col]; ok && v != "NULL" {
			sets = true
		}
	}
	if !sets {
		return col + " = NULL"
	}
	var sb strings.Builder
	for _, r := range rs.rules {
		v, ok := r.Set[col]
		if !ok {
			v = "NULL"
		}
		sb.WriteString("(" + r.When + ") ? " + eq(col, v) + " : ")
	}
	sb.WriteString(eq(col, "NULL"))
	return sb.String()
}

// randomRuleSpec draws a small random controller: inputs over a few values
// (NULL included or not), two outputs, and rules whose conditions overlap,
// test NULL (including ordered comparisons, which are unknown on NULL),
// set some, none or explicitly NULL outputs, and leave some input rows
// uncovered.
func randomRuleSpec(rng *rand.Rand) (cols []constraint.Column, rs *RuleSet, outputs []string) {
	inVals := []string{"a", "b", "c"}
	nin := 2 + rng.Intn(2)
	for i := 0; i < nin; i++ {
		cols = append(cols, constraint.Column{
			Name: fmt.Sprintf("in%d", i+1), Values: inVals[:1+rng.Intn(3)], NoNull: rng.Intn(2) == 0,
		})
	}
	outDoms := map[string][]string{"out1": {"p", "q"}, "out2": {"r", "s", "t"}}
	outputs = []string{"out1", "out2"}
	for _, o := range outputs {
		cols = append(cols, constraint.Column{Name: o, Kind: constraint.Output, Values: outDoms[o]})
	}
	atom := func() string {
		c := fmt.Sprintf("in%d", 1+rng.Intn(nin))
		v := inVals[rng.Intn(len(inVals))]
		switch rng.Intn(6) {
		case 0:
			return eq(c, v)
		case 1:
			return ne(c, v)
		case 2:
			return eq(c, "NULL")
		case 3:
			return ne(c, "NULL")
		case 4:
			return in(c, v, "NULL")
		default:
			return c + ` < "` + v + `"`
		}
	}
	rs = NewRuleSet()
	for k, n := 0, 1+rng.Intn(6); k < n; k++ {
		when := atom()
		switch rng.Intn(4) {
		case 0:
			when = all(when, atom())
		case 1:
			when = anyOf(when, atom())
		case 2:
			when = "not " + all(when, atom())
		}
		set := map[string]string{}
		for _, o := range outputs {
			switch rng.Intn(3) {
			case 0:
				set[o] = outDoms[o][rng.Intn(len(outDoms[o]))]
			case 1:
				if rng.Intn(2) == 0 {
					set[o] = "NULL"
				}
			}
		}
		rs.Add(Rule{ID: fmt.Sprintf("r%d", k), When: when, Set: set})
	}
	return cols, rs, outputs
}

// TestRuleColumnMatchesPerColumnChains is the rule compiler's differential
// check: on random rule sets, with and without pruning, the rule-indexed
// spec solves — incrementally and monolithically — to tables
// byte-identical to the per-column-chain oracle's.
func TestRuleColumnMatchesPerColumnChains(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		cols, rs, outputs := randomRuleSpec(rng)
		prune := rng.Intn(2) == 0
		got, want := constraint.NewSpec("q"), constraint.NewSpec("q")
		for _, c := range cols {
			mustDo(t, got.AddColumn(c))
			mustDo(t, want.AddColumn(c))
		}
		if err := rs.CompileInto(got, prune, outputs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		legalityCol := ""
		if prune {
			legalityCol = cols[rng.Intn(2)].Name
		}
		if err := compileChains(rs, want, legalityCol, outputs); err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		solvers := map[string]func(*constraint.Spec) (*rel.Table, constraint.Stats, error){
			"solve":      constraint.Solve,
			"monolithic": constraint.Monolithic,
		}
		for name, solve := range solvers {
			g, _, err := solve(got)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			w, _, err := solve(want)
			if err != nil {
				t.Fatalf("trial %d %s: oracle: %v", trial, name, err)
			}
			if gc, wc := csvOf(t, g), csvOf(t, w); gc != wc {
				t.Fatalf("trial %d %s (prune=%v): rule-indexed table differs from the oracle's\nrules: %+v\ngot:\n%s\nwant:\n%s",
					trial, name, prune, rs.Rules(), gc, wc)
			}
		}
	}
}

func csvOf(t *testing.T, tab *rel.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func mustDo(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
