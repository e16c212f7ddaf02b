package protocol

import (
	"errors"
	"math/rand"
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// goldenSpecs gathers every controller spec the compiled kernels must stay
// faithful on: the eight directory-protocol controllers plus the Fig. 3
// fragment the solver benchmarks sweep.
func goldenSpecs(t *testing.T) map[string]*constraint.Spec {
	t.Helper()
	out, err := BuildAllSpecs()
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := Figure3FragmentSpec(2)
	if err != nil {
		t.Fatal(err)
	}
	out["figure3"] = fig3
	return out
}

// TestCompiledConstraintsMatchInterpreter is the golden equivalence check
// of the constraint-compilation layer: for every constraint of every
// controller spec, the sweep-mode predicate the solver runs must agree
// with the tree-walking Evaluator.True on randomly sampled environments
// drawn from the column domains. Each sample is driven the way the solver
// drives it: one base row, the constraint's fire column (its last
// referenced column) swept across its full domain in one call.
//
// The hidden rule column's constraint is checked too. Its domain is one
// lane per rule and the interpreter re-walks the whole chain per lane, so
// on that column only the lanes the sweep kept plus a random sample of the
// others are checked. Everything drawn for the rule column comes from its
// own generator, so the environments drawn from the seed-42 generator are
// the same as without the rule column.
func TestCompiledConstraintsMatchInterpreter(t *testing.T) {
	const samples, ruleLanes = 150, 32
	rng := rand.New(rand.NewSource(42))
	ruleRng := rand.New(rand.NewSource(43))
	for name, spec := range goldenSpecs(t) {
		cols := spec.Columns()
		colIdx := spec.ColumnIndex()
		domains := make([][]rel.Value, len(cols))
		for i, c := range cols {
			domains[i] = c.Domain()
		}
		dict := rel.SharedDict()
		ev := spec.Evaluator()
		for _, c := range cols {
			col := c.Name
			e := spec.Constraint(col)
			if e == nil {
				continue
			}
			draw := rng
			if col == RuleColumn {
				draw = ruleRng
			}
			fire := colIdx[col]
			for ref := range sqlmini.Columns(e) {
				if p, ok := colIdx[ref]; ok && p > fire {
					fire = p
				}
			}
			prog, err := ev.CompileSweep(e, colIdx, fire)
			if err != nil {
				t.Fatalf("%s.%s: compile sweep: %v", name, col, err)
			}
			domain := make([]uint32, len(domains[fire]))
			for i, v := range domains[fire] {
				domain[i] = dict.Code(v)
			}
			keep := make([]bool, len(domain))
			sel := make([]uint32, len(domain))
			crow := make([]uint32, len(cols))
			env := make(sqlmini.MapEnv, len(cols))
			for s := 0; s < samples; s++ {
				for i := range cols {
					r := draw
					if cols[i].Name == RuleColumn {
						r = ruleRng
					}
					v := domains[i][r.Intn(len(domains[i]))]
					crow[i] = dict.Code(v)
					env[cols[i].Name] = v
				}
				for i := range sel {
					sel[i] = uint32(i)
					keep[i] = false
				}
				kept, serr := prog.EvalSweep(crow, domain, sel)
				for _, i := range kept {
					keep[i] = true
				}
				var werrs error
				for di, v := range domains[fire] {
					if cols[fire].Name == RuleColumn && !keep[di] && ruleRng.Intn(len(domain)) >= ruleLanes {
						continue
					}
					env[cols[fire].Name] = v
					want, werr := ev.True(e, env)
					werrs = errors.Join(werrs, werr)
					if werr == nil && serr == nil && keep[di] != want {
						t.Fatalf("%s.%s with %s = %v, env %v: interpreter %v, sweep lane %v\nconstraint: %s",
							name, col, cols[fire].Name, v, env, want, keep[di], e)
					}
				}
				if (werrs == nil) != (serr == nil) {
					t.Fatalf("%s.%s on %v: interpreter err %v, sweep err %v\nconstraint: %s",
						name, col, env, werrs, serr, e)
				}
			}
		}
	}
}
