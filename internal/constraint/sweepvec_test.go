package constraint

import (
	"errors"
	"math/rand"
	"testing"

	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// interpretedTable is the reference a solver must reproduce: the full
// cross product of the column domains, in column-major domain order,
// filtered by evaluating every constraint with the tree-walking
// Evaluator.True. Only usable on small spaces.
func interpretedTable(t *testing.T, s *Spec) *rel.Table {
	t.Helper()
	ev := s.Evaluator()
	cols := s.Columns()
	out := rel.MustNewTable(s.Name, s.ColumnNames()...)
	row := make([]rel.Value, len(cols))
	env := make(sqlmini.MapEnv, len(cols))
	var walk func(i int)
	walk = func(i int) {
		if i == len(cols) {
			for _, c := range cols {
				e := s.Constraint(c.Name)
				if e == nil {
					continue
				}
				ok, err := ev.True(e, env)
				if err != nil {
					t.Fatalf("interpreting %s.%s: %v", s.Name, c.Name, err)
				}
				if !ok {
					return
				}
			}
			out.MustInsert(row...)
			return
		}
		for _, v := range cols[i].Domain() {
			row[i] = v
			env[cols[i].Name] = v
			walk(i + 1)
		}
	}
	walk(0)
	return out
}

// TestVectorizedSweepMatchesScalar is the solver half of the sweep-mode
// equivalence gate: on the Fig. 3 fragment and a batch of random
// specs, Solve must generate exactly the cross product filtered row by
// row (scalar evaluation) through the interpreter, in the same order.
func TestVectorizedSweepMatchesScalar(t *testing.T) {
	specs := []*Spec{figure3Spec(t)}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 25; i++ {
		specs = append(specs, randomSpec(rng))
	}
	for i, s := range specs {
		got, _, err := Solve(s)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		want := interpretedTable(t, s)
		if got.String() != want.String() {
			t.Fatalf("spec %d: solver produced %d rows, interpreter %d:\n%s\nwant:\n%s",
				i, got.NumRows(), want.NumRows(), got, want)
		}
	}
}

// TestCompileErrorIsDeterministic: with several constraints that fail to
// compile, every solve must report the same one — the first in column
// order — rather than whichever a map iteration happens to reach first.
func TestCompileErrorIsDeterministic(t *testing.T) {
	s := NewSpec("bad")
	for _, c := range []string{"a", "b", "c"} {
		mustDo(t, s.AddInput(c, "p", "q"))
	}
	mustDo(t, s.Constrain("b", `nosuchb(a)`))
	mustDo(t, s.Constrain("c", `nosuchc(a)`))
	first := ""
	for i := 0; i < 50; i++ {
		_, _, err := Solve(s)
		if !errors.Is(err, sqlmini.ErrUnknownFunc) {
			t.Fatalf("solve %d: err = %v, want ErrUnknownFunc", i, err)
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("solve %d: error %q, first solve reported %q", i, err, first)
		}
	}
	if want := "constraint: compiling constraint for bad.b: sqlmini: unknown function: nosuchb"; first != want {
		t.Fatalf("error %q, want %q", first, want)
	}
}
