package sqlmini

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"coherdb/internal/rel"
)

// planLines renders a plan table as "op|target|est_rows|detail" lines for
// golden comparison.
func planLines(t *testing.T, p *rel.Table) []string {
	t.Helper()
	want := []string{"step", "op", "target", "est_rows", "detail"}
	if got := p.Columns(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("plan columns %v, want %v", got, want)
	}
	var out []string
	for i := 0; i < p.NumRows(); i++ {
		if s := p.Get(i, "step"); s.Int() != int64(i+1) {
			t.Fatalf("row %d has step %s", i, s)
		}
		out = append(out, fmt.Sprintf("%s|%s|%d|%s",
			p.Get(i, "op").Str(), p.Get(i, "target").Str(),
			p.Get(i, "est_rows").Int(), p.Get(i, "detail").Str()))
	}
	return out
}

func checkPlan(t *testing.T, db *DB, query string, want []string) {
	t.Helper()
	res, err := db.Exec(query)
	if err != nil {
		t.Fatal(err)
	}
	got := planLines(t, res.Table)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("plan for %s:\n%s\nwant:\n%s",
			query, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestExplainHashJoinWithPushdown(t *testing.T) {
	db := newTestDB(t)
	// Both WHERE conjuncts are column-equals-literal, so both become index
	// scans; the join then hashes the two reduced inputs (neither side is
	// a whole-table scan, so no persistent index applies).
	checkPlan(t, db,
		`EXPLAIN SELECT D.inmsg FROM D JOIN V ON D.inmsg = V.m WHERE D.dirst = 'SI' AND V.d = 'home'`,
		[]string{
			`indexscan|D|1|index(dirst) = ('SI'); storage=columnar`,
			`indexscan|V|1|index(d) = ('home'); storage=columnar`,
			`join|V|1|hash, 1 key(s), build=right`,
		})
}

func TestExplainIndexJoin(t *testing.T) {
	db := newTestDB(t)
	// Both sides are pristine whole-table scans; the left is larger, so
	// the executor indexes the left table and probes it with right rows.
	checkPlan(t, db,
		`EXPLAIN SELECT * FROM D JOIN V ON D.inmsg = V.m`,
		[]string{
			`scan|D|6|storage=columnar`,
			`scan|V|5|storage=columnar`,
			`join|V|7|index nested-loop via D(inmsg)`,
		})
}

func TestExplainNestedLoopJoin(t *testing.T) {
	db := newTestDB(t)
	checkPlan(t, db,
		`EXPLAIN SELECT * FROM D JOIN V ON D.inmsg <> V.m`,
		[]string{
			`scan|D|6|storage=columnar`,
			`scan|V|5|storage=columnar`,
			`join|V|10|nested-loop: (D.inmsg <> V.m)`,
		})
}

func TestExplainCrossWithResidue(t *testing.T) {
	db := newTestDB(t)
	// The cross-source comparison cannot be pushed; it stays as a residual
	// filter above the cross product.
	checkPlan(t, db,
		`EXPLAIN SELECT * FROM D, V WHERE D.inmsg = V.m AND D.dirst = 'SI'`,
		[]string{
			`indexscan|D|1|index(dirst) = ('SI'); storage=columnar`,
			`scan|V|5|storage=columnar`,
			`cross|V|5|cross product`,
			`filter||1|(D.inmsg = V.m)`,
		})
}

func TestExplainSingleTableShape(t *testing.T) {
	db := newTestDB(t)
	// Single-table selects get the same index treatment as join inputs.
	checkPlan(t, db,
		`EXPLAIN SELECT DISTINCT inmsg FROM D WHERE dirst = 'SI' ORDER BY inmsg DESC LIMIT 1`,
		[]string{
			`indexscan|D|1|index(dirst) = ('SI'); storage=columnar`,
			`distinct||1|`,
			`sort||1|1 key(s)`,
			`limit||1|LIMIT 1`,
		})
}

func TestExplainGroupAndUnion(t *testing.T) {
	db := newTestDB(t)
	checkPlan(t, db,
		`EXPLAIN SELECT dirst, COUNT(*) FROM D GROUP BY dirst
		 UNION ALL SELECT m, COUNT(*) FROM V GROUP BY m`,
		[]string{
			`scan|D|6|storage=columnar`,
			`group||1|1 key(s)`,
			`scan|V|5|storage=columnar`,
			`group||1|1 key(s)`,
			`union||2|ALL`,
		})
}

func TestExplainAggregateWithoutGroup(t *testing.T) {
	db := newTestDB(t)
	checkPlan(t, db,
		`EXPLAIN SELECT COUNT(*) FROM D`,
		[]string{
			`scan|D|6|storage=columnar`,
			`aggregate||1|`,
		})
}

func TestExplainEvalAnnotation(t *testing.T) {
	db := newTestDB(t)
	// Every plan-bound conjunct compiles to a selection-vector kernel, so
	// filters carry no evaluation-mode annotation: a conjunct reading two
	// columns runs column-at-a-time like a single-column one, and EXPLAIN
	// ANALYZE reports its selection density and batch count.
	checkPlan(t, db,
		`EXPLAIN SELECT * FROM D WHERE inmsg <> 'readex'`,
		[]string{
			`scan|D|2|pushdown: (inmsg <> 'readex'); storage=columnar`,
		})
	checkPlan(t, db,
		`EXPLAIN SELECT * FROM D WHERE dirst = 'SI' AND inmsg <> 'readex'`,
		[]string{
			`indexscan|D|1|index(dirst) = ('SI'); filter: (inmsg <> 'readex'); storage=columnar`,
		})
	checkAnalyze(t, db,
		`EXPLAIN ANALYZE SELECT * FROM D WHERE dirst < nxtdirst`,
		[]string{
			`scan|D|1|pushdown: (dirst < nxtdirst); storage=columnar; sel_density=0.17 vec_batches=1`,
			`project||1|`,
		})
	// A FROM-less SELECT's WHERE is a residue over the one empty row.
	checkAnalyze(t, db,
		`EXPLAIN ANALYZE SELECT 1 WHERE 1 = 1`,
		[]string{
			`filter||1|(1 = 1); sel_density=1.00 vec_batches=1`,
			`project||1|`,
		})
}

// TestExplainUnknownFunction: EXPLAIN rejects a call to an unregistered
// function in any clause with the error executing the statement raises,
// while aggregates stay legal where the executor evaluates them.
func TestExplainUnknownFunction(t *testing.T) {
	db := newTestDB(t)
	for _, q := range []string{
		`SELECT * FROM D WHERE nosuch(inmsg) = 1`,
		`SELECT nosuch(inmsg) FROM D`,
		`SELECT * FROM D JOIN V ON nosuch(D.inmsg) = V.m`,
		`SELECT inmsg FROM D GROUP BY nosuch(inmsg)`,
		`SELECT inmsg, COUNT(*) FROM D GROUP BY inmsg HAVING nosuch(inmsg)`,
		`SELECT inmsg FROM D ORDER BY nosuch(inmsg)`,
	} {
		if _, err := db.Exec(q); !errors.Is(err, ErrUnknownFunc) {
			t.Errorf("executing %s: err = %v, want ErrUnknownFunc", q, err)
		}
		if _, err := db.Exec(`EXPLAIN ` + q); !errors.Is(err, ErrUnknownFunc) {
			t.Errorf("EXPLAIN %s: err = %v, want ErrUnknownFunc", q, err)
		}
	}
	for _, q := range []string{
		`EXPLAIN SELECT inmsg, COUNT(*) FROM D GROUP BY inmsg HAVING COUNT(*) > 1 ORDER BY COUNT(*)`,
		`EXPLAIN SELECT MIN(dirst), MAX(dirst) FROM D WHERE typename(inmsg) = 'string'`,
	} {
		if _, err := db.Exec(q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`EXPLAIN SELECT * FROM D JOIN V ON D.inmsg = V.m`); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.RowsScanned != 0 || st.HashJoins != 0 {
		t.Errorf("EXPLAIN scanned %d rows, ran %d hash joins; want 0", st.RowsScanned, st.HashJoins)
	}
	if st.LastQuery.Kind != "EXPLAIN" {
		t.Errorf("LastQuery.Kind = %q, want EXPLAIN", st.LastQuery.Kind)
	}
}

func TestExplainUnknownTable(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec(`EXPLAIN SELECT * FROM nope`); err == nil {
		t.Fatal("want error for unknown table")
	}
}

// TestExplainUnknownColumn checks that EXPLAIN rejects exactly the
// statements whose execution fails on an unknown column, with the same
// error.
func TestExplainUnknownColumn(t *testing.T) {
	db := newTestDB(t)
	for _, q := range []string{
		`SELECT * FROM D WHERE bogus = 'x'`,
		`SELECT bogus FROM D`,
		`SELECT D.bogus FROM D`,
		`SELECT Z.inmsg FROM D`,
		`SELECT D.inmsg FROM D JOIN V ON D.inmsg = V.bogus`,
		`SELECT dirst, COUNT(*) FROM D GROUP BY bogus`,
		`SELECT inmsg FROM D ORDER BY bogus`,
		`SELECT inmsg FROM D UNION SELECT bogus FROM V`,
		`SELECT inmsg FROM D WHERE dirst = 'SI'`,
		`SELECT inmsg AS msg FROM D ORDER BY msg`,
		`SELECT D.inmsg, V.m, V.m FROM D JOIN V ON D.inmsg = V.m ORDER BY m_1`,
		`SELECT inmsg FROM D ORDER BY m_1`,
		`SELECT dirst, COUNT(*) FROM D GROUP BY dirst HAVING COUNT(*) > 1`,
		`SELECT D.inmsg, v FROM D JOIN V ON D.inmsg = V.m WHERE V.d = 'home'`,
	} {
		_, runErr := db.Exec(q)
		_, explainErr := db.Exec("EXPLAIN " + q)
		if errors.Is(runErr, ErrUnknownColumn) != errors.Is(explainErr, ErrUnknownColumn) ||
			fmt.Sprint(runErr) != fmt.Sprint(explainErr) {
			t.Errorf("%s:\n  run error:     %v\n  explain error: %v", q, runErr, explainErr)
		}
	}
}
