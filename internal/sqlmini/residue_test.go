package sqlmini

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"coherdb/internal/pool"
	"coherdb/internal/rel"
)

// Audits of the one compiled filter form on the shapes that used to run
// row at a time: conjuncts reading several columns, post-join residues,
// and the interpreter's conjunct-list evaluation that DML and uncompiled
// filters share.

// diffTestDB builds two random tables over the vecTestValues universe,
// A(x, y, z) and B(x, y, w), plus a registered function isp.
func diffTestDB(t *testing.T, rng *rand.Rand, rows int) *DB {
	t.Helper()
	db := NewDB()
	db.Register("isp", func(args []rel.Value) (rel.Value, error) {
		return rel.B(args[0].Str() == "p"), nil
	})
	for _, tab := range []struct{ name, cols string }{{"A", "x, y, z"}, {"B", "x, y, w"}} {
		var vals []string
		for i := 0; i < rows; i++ {
			var cells []string
			for j := 0; j < 3; j++ {
				cells = append(cells, Lit{Val: vecTestValues[rng.Intn(len(vecTestValues))]}.String())
			}
			vals = append(vals, "("+strings.Join(cells, ", ")+")")
		}
		if err := db.ExecScript(fmt.Sprintf("CREATE TABLE %s (%s); INSERT INTO %s VALUES %s;",
			tab.name, tab.cols, tab.name, strings.Join(vals, ", "))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// randWhere builds a random condition over the given columns from the
// multi-column shapes: column-column comparisons, CASE and ternaries over
// two columns, IN and BETWEEN with column operands, calls, combined with
// AND, OR and NOT.
func randWhere(rng *rand.Rand, cols []Col, depth int) Expr {
	col := func() Expr { return cols[rng.Intn(len(cols))] }
	lit := func() Expr { return Lit{Val: vecTestValues[rng.Intn(len(vecTestValues))]} }
	cmp := func(l, r Expr) Expr {
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return Binary{Op: ops[rng.Intn(len(ops))], L: l, R: r}
	}
	if depth <= 0 {
		switch rng.Intn(8) {
		case 0, 1:
			return cmp(col(), col())
		case 2:
			return cmp(col(), lit())
		case 3:
			return Binary{Op: "=", L: Case{
				Whens: []When{{Cond: cmp(col(), lit()), Val: col()}},
				Else:  col(),
			}, R: lit()}
		case 4:
			return Ternary{Cond: cmp(col(), lit()), Then: cmp(col(), col()), Else: IsNull{X: col(), Negate: rng.Intn(2) == 0}}
		case 5:
			return InList{X: col(), Set: []Expr{lit(), col()}, Negate: rng.Intn(2) == 0}
		case 6:
			return Between{X: col(), Lo: col(), Hi: lit(), Negate: rng.Intn(2) == 0}
		default:
			return Call{Name: "isp", Args: []Expr{col()}}
		}
	}
	switch rng.Intn(3) {
	case 0:
		return Binary{Op: "AND", L: randWhere(rng, cols, depth-1), R: randWhere(rng, cols, depth-1)}
	case 1:
		return Binary{Op: "OR", L: randWhere(rng, cols, depth-1), R: randWhere(rng, cols, depth-1)}
	default:
		return Unary{Op: "NOT", X: randWhere(rng, cols, depth-1)}
	}
}

// TestCompiledFiltersMatchInterpreter is the differential gate for
// multi-column conjuncts: random WHEREs over a join and a cross product
// of two generated tables (so conjuncts spanning both run as post-join
// residues) and over single tables (so they run as pushed scan filters)
// must produce byte-identical results compiled and on the interpreter
// (QueryInterpreted), in both NULL dialects, serial and forced-parallel.
func TestCompiledFiltersMatchInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := diffTestDB(t, rng, 24)
	one := []Col{{Name: "x"}, {Name: "y"}, {Name: "z"}}
	two := []Col{{Qualifier: "a", Name: "x"}, {Qualifier: "a", Name: "y"}, {Qualifier: "a", Name: "z"},
		{Qualifier: "b", Name: "y"}, {Qualifier: "b", Name: "w"}}
	var queries []string
	for i := 0; i < 60; i++ {
		queries = append(queries,
			"SELECT * FROM A WHERE "+randWhere(rng, one, rng.Intn(3)).String(),
			"SELECT * FROM A a JOIN B b ON a.x = b.x WHERE "+randWhere(rng, two, rng.Intn(3)).String(),
			"SELECT a.y, b.w FROM A a, B b WHERE "+randWhere(rng, two, rng.Intn(3)).String()+
				" AND "+randWhere(rng, two, 0).String())
	}
	for _, parallel := range []bool{false, true} {
		if parallel {
			db.SetPool(pool.New(4))
			db.SetWorkers(4)
			db.SetMorselSize(4)
		} else {
			db.SetPool(nil)
			db.SetWorkers(1)
			db.SetMorselSize(0)
		}
		for _, strict := range []bool{false, true} {
			db.SetStrictNulls(strict)
			for _, q := range queries {
				want, werr := QueryInterpreted(db, q)
				got, gerr := db.Query(q)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s (strict=%v, parallel=%v): interpreted err %v, compiled err %v", q, strict, parallel, werr, gerr)
				}
				if werr == nil && want.String() != got.String() {
					t.Fatalf("%s (strict=%v, parallel=%v):\ninterpreted:\n%s\ncompiled:\n%s", q, strict, parallel, want, got)
				}
			}
		}
	}
	if st := db.Stats(); st.VecBatches == 0 {
		t.Fatal("no filter ran column-at-a-time: the comparison was vacuous")
	}
}

// TestResidueRunsOnPool: a post-join residue spanning several morsels is
// filtered column-at-a-time on the worker pool, one selection batch per
// morsel, and matches the serial result.
func TestResidueRunsOnPool(t *testing.T) {
	db := diffTestDB(t, rand.New(rand.NewSource(5)), 10)
	const q = `SELECT a.x, b.w FROM A a, B b WHERE a.y <> b.y`
	serial, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	db.SetPool(pool.New(4))
	db.SetWorkers(4)
	db.SetMorselSize(8)
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	par, qs, err := p.ExecStats()
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.Table.String() {
		t.Fatalf("parallel residue differs:\nserial:\n%s\nparallel:\n%s", serial, par.Table)
	}
	// The cross product has 100 rows: 13 morsels of 8.
	if qs.Morsels != 13 || qs.VecBatches != 13 || qs.VecRowsIn != 100 {
		t.Fatalf("morsels=%d vec_batches=%d vec_rows_in=%d, want 13, 13, 100", qs.Morsels, qs.VecBatches, qs.VecRowsIn)
	}
	plan, err := db.Query(`EXPLAIN ` + q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "parallel filter (workers=4, morsel=8)") {
		t.Errorf("EXPLAIN missing parallel filter annotation:\n%s", plan)
	}
}

// TestAllTrueMatchesAndChain is the property behind DML's split WHERE and
// the interpreted filter: on random conjunct lists — some erroring, some
// unknown — allTrue returns exactly what True returns on the AND chain,
// result and error, in both NULL dialects.
func TestAllTrueMatchesAndChain(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	boom := errors.New("boom")
	names := []string{"a", "b", "c"}
	atoms := []func() Expr{
		func() Expr {
			return Binary{Op: "=", L: Col{Name: names[rng.Intn(3)]}, R: Lit{Val: vecTestValues[rng.Intn(len(vecTestValues))]}}
		},
		func() Expr {
			return Binary{Op: "<", L: Col{Name: names[rng.Intn(3)]}, R: Col{Name: names[rng.Intn(3)]}}
		},
		func() Expr { return IsNull{X: Col{Name: names[rng.Intn(3)]}} },
		func() Expr { return Call{Name: "fail", Args: []Expr{Col{Name: names[rng.Intn(3)]}}} },
		func() Expr { return Binary{Op: "=", L: Col{Name: "ghost"}, R: Lit{Val: rel.S("p")}} },
		func() Expr { return Binary{Op: "OR", L: IsNull{X: Col{Name: "a"}}, R: Col{Name: names[rng.Intn(3)]}} },
	}
	for trial := 0; trial < 2000; trial++ {
		conj := make([]Expr, 1+rng.Intn(4))
		for i := range conj {
			conj[i] = atoms[rng.Intn(len(atoms))]()
		}
		// Build the AND tree in a random shape: splitting must not care.
		chain := conj[0]
		for _, c := range conj[1:] {
			if rng.Intn(2) == 0 {
				chain = Binary{Op: "AND", L: chain, R: c}
			} else {
				chain = Binary{Op: "AND", L: c, R: chain}
			}
		}
		env := MapEnv{}
		for _, n := range names {
			env[n] = vecTestValues[rng.Intn(len(vecTestValues))]
		}
		for _, nullEq := range []bool{false, true} {
			ev := &Evaluator{NullEq: nullEq, Funcs: map[string]Func{
				"fail": func([]rel.Value) (rel.Value, error) { return rel.Null(), boom },
			}}
			want, werr := ev.True(chain, env)
			got, gerr := ev.allTrue(splitAnd(chain), env)
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("trial %d nullEq=%v %s on %v: True = (%v, %v), allTrue = (%v, %v)",
					trial, nullEq, chain, env, want, werr, got, gerr)
			}
		}
	}
}
