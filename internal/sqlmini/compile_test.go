package sqlmini

import (
	"errors"
	"fmt"
	"testing"

	"coherdb/internal/rel"
)

// compileFixtureCols is the column layout the compiler tests bind against.
var compileFixtureCols = map[string]int{"a": 0, "b": 1, "c": 2}

// compileFixtureEnv views a positional row as a MapEnv for the interpreter.
func compileFixtureEnv(row []rel.Value) MapEnv {
	return MapEnv{"a": row[0], "b": row[1], "c": row[2]}
}

// fixtureEvaluator builds an evaluator with one registered function, in the
// requested NULL dialect.
func fixtureEvaluator(nullEq bool) *Evaluator {
	return &Evaluator{
		NullEq: nullEq,
		Funcs: map[string]Func{
			"isp": func(args []rel.Value) (rel.Value, error) {
				return rel.B(args[0].Str() == "p"), nil
			},
		},
	}
}

// compileTestExprs covers every operator the compiler lowers: comparisons,
// boolean connectives, IN (literal and general), BETWEEN, IS NULL, ternary
// chains, CASE, and function calls.
var compileTestExprs = []string{
	`a = "p"`,
	`a <> "p"`,
	`a < b`,
	`a >= b`,
	`a = b and b = c`,
	`a = "p" or b = "q"`,
	`not (a = "p")`,
	`a in ("p", "q")`,
	`a not in ("p", NULL)`,
	`a in ("p", b)`,
	`a is null`,
	`b is not null`,
	`a between "p" and "r"`,
	`a not between b and c`,
	`a = "p" ? b = "q" : c = "r"`,
	`a = "p" ? b = "q" : a = "q" ? b = "r" : b = NULL`,
	`case when a = "p" then b = "q" when a = "q" then c = "r" end`,
	`case when a = "p" then b = "q" else b is null end`,
	`isp(a)`,
	`isp(a) and b = c`,
	`a = NULL`,
	`b <> NULL`,
}

// fixtureDomain is the value domain each column ranges over in the
// exhaustive sweeps: NULL plus three strings.
var fixtureDomain = []rel.Value{rel.Null(), rel.S("p"), rel.S("q"), rel.S("r")}

// forEachFixtureRow calls fn with every row in the 3-column cross product
// of fixtureDomain.
func forEachFixtureRow(fn func(row []rel.Value)) {
	for _, av := range fixtureDomain {
		for _, bv := range fixtureDomain {
			for _, cv := range fixtureDomain {
				fn([]rel.Value{av, bv, cv})
			}
		}
	}
}

// fixtureFrame is the compileFixtureCols layout as a plan frame, so
// bindExpr can bind fixture expressions for CompileBoundVec.
func fixtureFrame() *frame {
	return &frame{aliases: []string{"t", "t", "t"}, names: []string{"a", "b", "c"}}
}

// encodeRow interns a Value row into dictionary codes.
func encodeRow(row []rel.Value) []uint32 {
	crow := make([]uint32, len(row))
	for i, v := range row {
		crow[i] = dict.Code(v)
	}
	return crow
}

// vecTrue evaluates a VecPred on one code row: a one-lane selection over
// one-element column vectors.
func vecTrue(vp *VecPred, crow []uint32) (bool, error) {
	cols := make([][]uint32, len(crow))
	for j, c := range crow {
		cols[j] = []uint32{c}
	}
	kept, err := vp.EvalVec(cols, []uint32{0})
	return len(kept) == 1, err
}

// TestCompileAgreesWithInterpreter is the golden equivalence property of
// the executor's compiled form at unit level: over every operator form,
// dialect and 3-column env, CompileBoundVec and Evaluator.True agree
// exactly, errors included.
func TestCompileAgreesWithInterpreter(t *testing.T) {
	for _, nullEq := range []bool{false, true} {
		ev := fixtureEvaluator(nullEq)
		for _, src := range compileTestExprs {
			e, err := ParseExpr(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			pred, err := ev.CompileBoundVec(bindExpr(e, fixtureFrame()))
			if err != nil {
				t.Fatalf("compile %q: %v", src, err)
			}
			forEachFixtureRow(func(row []rel.Value) {
				want, werr := ev.True(e, compileFixtureEnv(row))
				got, gerr := vecTrue(pred, encodeRow(row))
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%q (nullEq=%v) on %v: interpreter err %v, compiled err %v",
						src, nullEq, row, werr, gerr)
				}
				if got != want {
					t.Fatalf("%q (nullEq=%v) on %v: interpreter %v, compiled %v",
						src, nullEq, row, want, got)
				}
			})
		}
	}
}

// sweepLanes runs a sweep-mode predicate over every lane of domain and
// reports, per lane, whether it was kept.
func sweepLanes(vp *VecPred, row, domain []uint32) ([]bool, error) {
	sel := make([]uint32, len(domain))
	for i := range sel {
		sel[i] = uint32(i)
	}
	kept, err := vp.EvalSweep(row, domain, sel)
	keep := make([]bool, len(domain))
	for _, i := range kept {
		keep[i] = true
	}
	return keep, err
}

// TestCompileSweepAgreesWithInterpreter drives the sweep-mode predicate the
// way the solver does — one base row at a time, with one column swept
// across the whole domain — for every choice of sweep column, and checks
// every lane against the interpreter on the extended row.
func TestCompileSweepAgreesWithInterpreter(t *testing.T) {
	domain := encodeRow(fixtureDomain)
	for _, nullEq := range []bool{false, true} {
		ev := fixtureEvaluator(nullEq)
		for _, src := range compileTestExprs {
			e, err := ParseExpr(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			for sweep := 0; sweep < len(compileFixtureCols); sweep++ {
				prog, err := ev.CompileSweep(e, compileFixtureCols, sweep)
				if err != nil {
					t.Fatalf("compile %q: %v", src, err)
				}
				forEachFixtureRow(func(row []rel.Value) {
					if !row[sweep].IsNull() {
						return // one base row per assignment of the other columns
					}
					keep, gerr := sweepLanes(prog, encodeRow(row), domain)
					var werrs error
					for di, v := range fixtureDomain {
						row[sweep] = v
						want, werr := ev.True(e, compileFixtureEnv(row))
						werrs = errors.Join(werrs, werr)
						if werr == nil && gerr == nil && keep[di] != want {
							t.Fatalf("%q (nullEq=%v, sweep=%d) on %v: interpreter %v, sweep lane %v",
								src, nullEq, sweep, row, want, keep[di])
						}
					}
					if (werrs == nil) != (gerr == nil) {
						t.Fatalf("%q (nullEq=%v, sweep=%d) on %v: interpreter err %v, sweep err %v",
							src, nullEq, sweep, row, werrs, gerr)
					}
				})
			}
		}
	}
}

func TestCompileUnknownColumnIsCompileTimeError(t *testing.T) {
	ev := fixtureEvaluator(true)
	e, err := ParseExpr(`ghost = "p"`)
	if err != nil {
		t.Fatal(err)
	}
	for _, sweep := range []int{0, 2} {
		if _, err := ev.CompileSweep(e, compileFixtureCols, sweep); !errors.Is(err, ErrUnknownColumn) {
			t.Fatalf("sweep %d: err = %v, want ErrUnknownColumn", sweep, err)
		}
	}
}

func TestCompileUnknownFuncIsCompileTimeError(t *testing.T) {
	ev := fixtureEvaluator(true)
	e, err := ParseExpr(`nosuch(a)`)
	if err != nil {
		t.Fatal(err)
	}
	// Sweeping a routes the call through the per-lane fallback; sweeping c
	// evaluates it once per call as a stable subtree. Both compile it
	// eagerly.
	for _, sweep := range []int{0, 2} {
		if _, err := ev.CompileSweep(e, compileFixtureCols, sweep); !errors.Is(err, ErrUnknownFunc) {
			t.Fatalf("sweep %d: err = %v, want ErrUnknownFunc", sweep, err)
		}
	}
	if _, err := ev.CompileBoundVec(bindExpr(e, fixtureFrame())); !errors.Is(err, ErrUnknownFunc) {
		t.Fatalf("bound: err = %v, want ErrUnknownFunc", err)
	}
}

// TestCompiledPredShortRowErrors: a compiled filter whose kernels read
// past the frame's columns (a plan from another schema) must not run; the
// frame falls back to the interpreter, which reports the unknown column.
func TestCompiledPredShortRowErrors(t *testing.T) {
	ev := fixtureEvaluator(true)
	e, err := ParseExpr(`c = "p"`)
	if err != nil {
		t.Fatal(err)
	}
	bound := bindExpr(e, fixtureFrame())
	vp, err := ev.CompileBoundVec(bound)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{ev: *ev}
	short := &frame{aliases: []string{"t"}, names: []string{"a"}, rows: [][]uint32{encodeRow([]rel.Value{rel.S("p")})}}
	if _, err := r.filterFrame(short, []Expr{bound}, []*VecPred{vp}); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("err = %v, want ErrUnknownColumn from the interpreter", err)
	}
	if vecUsable([]*VecPred{vp}, 1, len(short.names)) {
		t.Fatal("a kernel reading position 2 was usable on a 1-column frame")
	}
}

// TestCompiledPredConcurrentUse runs one compiled predicate from many
// goroutines; it must be safe because all mutable evaluation state lives
// in pooled per-call vecStates. The predicate reads two columns, so it
// runs the per-lane fallback through the shared scratch-row pool. Meant
// for -race runs.
func TestCompiledPredConcurrentUse(t *testing.T) {
	ev := fixtureEvaluator(true)
	e, err := ParseExpr(`a = "p" ? b = "q" : b in ("q", "r")`)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := ev.CompileBoundVec(bindExpr(e, fixtureFrame()))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				row := encodeRow([]rel.Value{rel.S("p"), rel.S("q"), fixtureDomain[i%len(fixtureDomain)]})
				if ok, err := vecTrue(pred, row); err != nil || !ok {
					done <- fmt.Errorf("row %d: kept=%v err=%v", i, ok, err)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
