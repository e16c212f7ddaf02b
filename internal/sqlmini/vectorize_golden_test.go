package sqlmini_test

import (
	"testing"

	"coherdb/internal/check"
	"coherdb/internal/pool"
	"coherdb/internal/protocol"
	"coherdb/internal/sqlmini"
)

// TestVectorizedMatchesScalarControllers is the compiled executor's
// golden equivalence gate on the real workload, the counterpart of
// TestParallelMatchesSerialControllers: over all eight generated
// controller tables, every query — full scans, filtered scans, grouping,
// the Fig. 3 readex-rows projection, two-column filters and residues, and
// the complete ~50-invariant suite — must produce byte-identical results
// column-at-a-time and on the row-at-a-time interpreter
// (QueryInterpreted), in both NULL dialects, serial and under a
// forced-parallel morsel split.
func TestVectorizedMatchesScalarControllers(t *testing.T) {
	if testing.Short() {
		t.Skip("generates all controller tables")
	}
	db := sqlmini.NewDB()
	if _, err := protocol.GenerateAll(db); err != nil {
		t.Fatal(err)
	}

	var queries []string
	for _, tab := range []string{"D", "M", "C", "N", "R", "IO", "INT", "SY"} {
		queries = append(queries,
			`SELECT * FROM `+tab,
			`SELECT * FROM `+tab+` WHERE inmsg IS NOT NULL`,
			`SELECT * FROM `+tab+` WHERE inmsg <> 'readex' AND inmsg IS NOT NULL`,
			`SELECT inmsg, COUNT(*) AS n FROM `+tab+` GROUP BY inmsg`,
		)
	}
	// The Fig. 3 fragment: the readex transaction rows of D, plus
	// multi-column conjuncts pushed to a scan and left as a residue.
	queries = append(queries,
		`SELECT inmsg, dirst, dirpv, locmsg, remmsg, memmsg, nxtbdirst, nxtdirpv
		 FROM D WHERE inmsg = 'readex' AND bdirhit = 'miss'`,
		`SELECT inmsg, dirst, nxtdirst FROM D WHERE dirst < nxtdirst`,
		`SELECT a.inmsg, a.dirst, b.dirst FROM D a JOIN D b ON a.inmsg = b.inmsg
		 WHERE a.dirst <> b.nxtdirst AND a.locmsg IS NOT NULL`)
	for _, inv := range check.ProtocolSuite().Invariants() {
		queries = append(queries, inv.SQL)
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
				want, err := sqlmini.QueryInterpreted(db, q)
				if err != nil {
					t.Fatalf("interpreted (strict=%v, parallel=%v) %q: %v", strict, parallel, q, err)
				}
				vec, err := db.Query(q)
				if err != nil {
					t.Fatalf("vectorized (strict=%v, parallel=%v) %q: %v", strict, parallel, q, err)
				}
				if want.String() != vec.String() {
					t.Errorf("vectorized result differs (strict=%v, parallel=%v) for %q:\ninterpreted:\n%s\nvectorized:\n%s",
						strict, parallel, q, want, vec)
				}
			}
		}
	}
	if db.Stats().VecBatches == 0 {
		t.Fatal("no query took the vectorized path: the golden comparison was vacuous")
	}
}
