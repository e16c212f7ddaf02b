package sqlmini

import "coherdb/internal/rel"

// QueryInterpreted runs the SELECT src on db with each branch's whole
// WHERE as an unbound post-join residue — the plan planAt falls back to —
// so every filter runs on the tree-walking interpreter, row at a time,
// with no pushdown and no compiled predicate. It is the oracle the golden
// tests compare compiled execution against.
func QueryInterpreted(db *DB, src string) (*rel.Table, error) {
	stmt, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, errNotQuery(src)
	}
	var plans []*branchPlan
	for b := s; b != nil; b = b.Union {
		plans = append(plans, &branchPlan{residue: b.Where})
	}
	fp := db.planFP(nil)
	e := &planEntry{stmt: stmt, fp: [2]uint64{fp, fp}, branches: [2][]*branchPlan{plans, plans}}
	res, err := db.execute(stmt, execOpts{entry: e, src: src})
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}
