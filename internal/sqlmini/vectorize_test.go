package sqlmini

import (
	"fmt"
	"math/rand"
	"testing"

	"coherdb/internal/rel"
)

// Kernel-level audits of the vectorized execution layer: the selection-
// vector kernels and the sweep-vector programs against the tree-walking
// interpreter evaluated one row at a time, and the steady-state allocation
// contract of EvalVec.

// vecTestValues is the value universe the random predicate generator draws
// from: a NULL, a few strings, a few ints — enough to exercise both NULL
// dialects and the decoded-compare fallback.
var vecTestValues = []rel.Value{
	rel.Null(), rel.S("p"), rel.S("q"), rel.S("r"), rel.I(1), rel.I(2), rel.I(7),
}

// randBoundExpr builds a random plan-bound predicate over ncols columns
// from the grammar's comparable subset: =, <>, IN, IS NULL, ordered
// compares (which exercise the memoized fallback kernel), NOT, AND, OR and
// the ternary.
func randBoundExpr(rng *rand.Rand, ncols, depth int) Expr {
	col := func() Expr {
		return boundCol{Col: Col{Name: fmt.Sprintf("c%d", rng.Intn(ncols))}, Idx: rng.Intn(ncols)}
	}
	lit := func() Expr { return Lit{Val: vecTestValues[rng.Intn(len(vecTestValues))]} }
	if depth <= 0 {
		switch rng.Intn(6) {
		case 0:
			return Binary{Op: "=", L: col(), R: lit()}
		case 1:
			return Binary{Op: "<>", L: col(), R: lit()}
		case 2:
			return Binary{Op: "=", L: col(), R: col()}
		case 3:
			set := make([]Expr, rng.Intn(4))
			for i := range set {
				set[i] = lit()
			}
			return InList{X: col(), Set: set, Negate: rng.Intn(2) == 0}
		case 4:
			return IsNull{X: col(), Negate: rng.Intn(2) == 0}
		default:
			ops := []string{"<", "<=", ">", ">="}
			return Binary{Op: ops[rng.Intn(len(ops))], L: col(), R: lit()}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return Binary{Op: "AND", L: randBoundExpr(rng, ncols, depth-1), R: randBoundExpr(rng, ncols, depth-1)}
	case 1:
		return Binary{Op: "OR", L: randBoundExpr(rng, ncols, depth-1), R: randBoundExpr(rng, ncols, depth-1)}
	case 2:
		return Unary{Op: "NOT", X: randBoundExpr(rng, ncols, depth-1)}
	default:
		return Ternary{
			Cond: randBoundExpr(rng, ncols, depth-1),
			Then: randBoundExpr(rng, ncols, depth-1),
			Else: randBoundExpr(rng, ncols, depth-1),
		}
	}
}

// randCodeCols builds nrows random rows over ncols columns, column-major,
// every code interned from the test value universe.
func randCodeCols(rng *rand.Rand, ncols, nrows int) [][]uint32 {
	cols := make([][]uint32, ncols)
	for j := range cols {
		cols[j] = make([]uint32, nrows)
		for i := range cols[j] {
			cols[j][i] = dict.Code(vecTestValues[rng.Intn(len(vecTestValues))])
		}
	}
	return cols
}

// codeRowEnv is a positional Env over one dictionary-code row, so the
// interpreter can evaluate plan-bound expressions on the rows a kernel
// sees.
type codeRowEnv []uint32

func (codeRowEnv) Lookup(_, _ string) (rel.Value, bool) { return rel.Null(), false }

func (r codeRowEnv) At(i int) (rel.Value, bool) {
	if i < 0 || i >= len(r) {
		return rel.Null(), false
	}
	return dict.Value(r[i]), true
}

// TestVecPredMatchesScalarKernel is the seeded randomized cross-check: for
// hundreds of random predicates, in both NULL dialects, CompileBoundVec
// must accept the predicate and the selection vector EvalVec keeps must
// be exactly the rows Evaluator.True accepts one at a time.
func TestVecPredMatchesScalarKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const ncols, nrows = 3, 64
	for trial := 0; trial < 400; trial++ {
		e := randBoundExpr(rng, ncols, rng.Intn(3))
		cols := randCodeCols(rng, ncols, nrows)
		for _, strict := range []bool{false, true} {
			ev := &Evaluator{NullEq: !strict}
			vp, err := ev.CompileBoundVec(e)
			if err != nil {
				t.Fatalf("trial %d strict=%v: every plan-bound conjunct must compile, %s: %v", trial, strict, e, err)
			}
			sel := make([]uint32, nrows)
			for i := range sel {
				sel[i] = uint32(i)
			}
			kept, err := vp.EvalVec(cols, sel)
			if err != nil {
				t.Fatalf("trial %d strict=%v: EvalVec of %s: %v", trial, strict, e, err)
			}
			crow := make([]uint32, ncols)
			var want []uint32
			for i := 0; i < nrows; i++ {
				for j := 0; j < ncols; j++ {
					crow[j] = cols[j][i]
				}
				ok, err := ev.True(e, codeRowEnv(crow))
				if err != nil {
					t.Fatalf("trial %d strict=%v: interpreting %s: %v", trial, strict, e, err)
				}
				if ok {
					want = append(want, uint32(i))
				}
			}
			if fmt.Sprint(kept) != fmt.Sprint(want) {
				t.Fatalf("trial %d strict=%v: %s\nvectorized keeps  %v\ninterpreter keeps %v",
					trial, strict, e, kept, want)
			}
		}
	}
}

// randSweepExpr builds a random unbound condition over named columns,
// including the shapes the sweep vectorizer lowers structurally (=, <>,
// IN, IS NULL, AND/OR, ternary) and the ones it must route through the
// scalar fallback (ordered compares, BETWEEN).
func randSweepExpr(rng *rand.Rand, names []string, depth int) Expr {
	col := func() Expr { return Col{Name: names[rng.Intn(len(names))]} }
	lit := func() Expr { return Lit{Val: vecTestValues[rng.Intn(len(vecTestValues))]} }
	if depth <= 0 {
		switch rng.Intn(6) {
		case 0:
			return Binary{Op: "=", L: col(), R: lit()}
		case 1:
			return Binary{Op: "<>", L: col(), R: col()}
		case 2:
			set := make([]Expr, rng.Intn(3))
			for i := range set {
				set[i] = lit()
			}
			return InList{X: col(), Set: set, Negate: rng.Intn(2) == 0}
		case 3:
			return IsNull{X: col(), Negate: rng.Intn(2) == 0}
		case 4:
			return Binary{Op: ">", L: col(), R: lit()}
		default:
			return Between{X: col(), Lo: lit(), Hi: lit(), Negate: rng.Intn(2) == 0}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return Binary{Op: "AND", L: randSweepExpr(rng, names, depth-1), R: randSweepExpr(rng, names, depth-1)}
	case 1:
		return Binary{Op: "OR", L: randSweepExpr(rng, names, depth-1), R: randSweepExpr(rng, names, depth-1)}
	case 2:
		return Unary{Op: "NOT", X: randSweepExpr(rng, names, depth-1)}
	default:
		return Ternary{
			Cond: randSweepExpr(rng, names, depth-1),
			Then: randSweepExpr(rng, names, depth-1),
			Else: randSweepExpr(rng, names, depth-1),
		}
	}
}

// TestSweepVecMatchesScalarSweep cross-checks CompileSweep against a
// scalar sweep of the interpreter on random expressions: for random base
// rows and domains, every lane EvalSweep keeps must match Evaluator.True
// on the row with the sweep column substituted — in both NULL dialects,
// with the pooled state and its verdict memos reused across consecutive
// rows.
func TestSweepVecMatchesScalarSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c", "d"}
	ix := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	for trial := 0; trial < 300; trial++ {
		e := randSweepExpr(rng, names, rng.Intn(3))
		sweep := rng.Intn(len(names))
		for _, strict := range []bool{false, true} {
			ev := &Evaluator{NullEq: !strict}
			sp, err := ev.CompileSweep(e, ix, sweep)
			if err != nil {
				t.Fatalf("trial %d strict=%v: sweep compile of %s: %v", trial, strict, e, err)
			}
			domain := make([]uint32, 1+rng.Intn(6))
			for i := range domain {
				domain[i] = dict.Code(vecTestValues[rng.Intn(len(vecTestValues))])
			}
			crow := make([]uint32, len(names))
			for row := 0; row < 4; row++ {
				for j := range crow {
					crow[j] = dict.Code(vecTestValues[rng.Intn(len(vecTestValues))])
				}
				keep, err := sweepLanes(sp, crow, domain)
				if err != nil {
					t.Fatalf("trial %d strict=%v: EvalSweep of %s: %v", trial, strict, e, err)
				}
				env := make(MapEnv, len(names))
				for j, n := range names {
					env[n] = dict.Value(crow[j])
				}
				for di, d := range domain {
					env[names[sweep]] = dict.Value(d)
					want, err := ev.True(e, env)
					if err != nil {
						t.Fatalf("trial %d strict=%v: interpreting %s: %v", trial, strict, e, err)
					}
					if keep[di] != want {
						t.Fatalf("trial %d strict=%v row %d lane %d: %s\nvectorized=%v interpreter=%v (sweep col %d = code %d)",
							trial, strict, row, di, e, keep[di], want, sweep, d)
					}
				}
			}
		}
	}
}

// TestVectorizedFilterAllocs audits the steady-state allocation contract:
// once a VecPred's pooled scratch state is warm, EvalVec must not allocate
// — for the pure code-compare kernels and for the memoized single-column
// fallback alike (the memo table is grown on first contact, then reused).
func TestVectorizedFilterAllocs(t *testing.T) {
	if raceEnabled {
		// Under the race detector sync.Pool deliberately drops items to
		// surface reuse races, so the scratch state re-allocates by design.
		t.Skip("sync.Pool bypasses reuse under -race")
	}
	const nrows = 256
	rng := rand.New(rand.NewSource(3))
	cols := randCodeCols(rng, 2, nrows)
	ev := &Evaluator{NullEq: false}
	exprs := []struct {
		name string
		e    Expr
	}{
		{"eq-or-in", Binary{Op: "OR",
			L: Binary{Op: "=", L: boundCol{Col: Col{Name: "a"}, Idx: 0}, R: Lit{Val: rel.S("p")}},
			R: InList{X: boundCol{Col: Col{Name: "b"}, Idx: 1}, Set: []Expr{Lit{Val: rel.I(1)}, Lit{Val: rel.I(2)}}},
		}},
		{"memo-fallback", Binary{Op: ">", L: boundCol{Col: Col{Name: "b"}, Idx: 1}, R: Lit{Val: rel.I(1)}}},
	}
	sel := make([]uint32, nrows)
	for _, tc := range exprs {
		vp, err := ev.CompileBoundVec(tc.e)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		run := func() {
			for i := range sel {
				sel[i] = uint32(i)
			}
			if _, err := vp.EvalVec(cols, sel[:nrows]); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pool and the fallback memo
		if got := testing.AllocsPerRun(100, run); got > 0 {
			t.Errorf("%s: EvalVec allocates %.1f per call at steady state, want 0", tc.name, got)
		}
	}
}

// TestSweepStableColumnDoesNotLeakAcrossRows pins the memo rule of sweep
// mode: the per-code verdict memo persists across EvalSweep calls, so it
// may only serve subtrees that read the swept column alone. Two base rows
// that differ only in the stable column b run through one program, in
// both NULL dialects and in alternation, so a verdict memoized on the
// swept code under one row would be replayed under the other.
func TestSweepStableColumnDoesNotLeakAcrossRows(t *testing.T) {
	domain := encodeRow(fixtureDomain)
	rows := [][]rel.Value{
		{rel.Null(), rel.S("p"), rel.Null()},
		{rel.Null(), rel.S("r"), rel.Null()},
	}
	for _, src := range []string{
		`a > b`,
		`a <> b`,
		`a = b ? c is null : a > "p"`,
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, nullEq := range []bool{false, true} {
			ev := fixtureEvaluator(nullEq)
			prog, err := ev.CompileSweep(e, compileFixtureCols, 0)
			if err != nil {
				t.Fatalf("compile %q: %v", src, err)
			}
			for round := 0; round < 3; round++ {
				for _, row := range rows {
					keep, err := sweepLanes(prog, encodeRow(row), domain)
					if err != nil {
						t.Fatalf("%q: %v", src, err)
					}
					for di, v := range fixtureDomain {
						row[0] = v
						want, err := ev.True(e, compileFixtureEnv(row))
						if err != nil {
							t.Fatalf("%q: interpreting: %v", src, err)
						}
						if keep[di] != want {
							t.Fatalf("%q (nullEq=%v, round %d) with a = %v, b = %v: interpreter %v, sweep lane %v",
								src, nullEq, round, v, row[1], want, keep[di])
						}
					}
					row[0] = rel.Null()
				}
			}
		}
	}
}

// TestEvalSweepAllocs extends the steady-state allocation contract to sweep
// mode: once the pooled state is warm, EvalSweep allocates nothing — on a
// ternary chain over a stable condition with kernel leaves (the protocol
// constraints' shape), on the memoized single-column fallback and on the
// multi-column fallback that reads a stable column.
func TestEvalSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses reuse under -race")
	}
	ev := fixtureEvaluator(true)
	row := encodeRow([]rel.Value{rel.Null(), rel.S("q"), rel.S("p")})
	domain := encodeRow(fixtureDomain)
	sel := make([]uint32, len(domain))
	for _, src := range []string{
		`b = "p" ? a = "q" : b = "q" ? a in ("p", "r") and c <> NULL : a is null`,
		`a > "p"`,
		`a > b or c = "p"`,
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ev.CompileSweep(e, compileFixtureCols, 0)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		run := func() {
			for i := range sel {
				sel[i] = uint32(i)
			}
			if _, err := prog.EvalSweep(row, domain, sel); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pool and the fallback memo
		if got := testing.AllocsPerRun(100, run); got > 0 {
			t.Errorf("%q: EvalSweep allocates %.1f per call at steady state, want 0", src, got)
		}
	}
}
