package deadlock

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"coherdb/internal/protocol"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// rowSetHash is an order-independent hash of the (In, Out) row set;
// origins are left out.
func rowSetHash(rows []DepRow) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.In.M + "\x1f" + r.In.S + "\x1f" + r.In.D + "\x1f" + r.In.VC + "\x1e" +
			r.Out.M + "\x1f" + r.Out.S + "\x1f" + r.Out.D + "\x1f" + r.Out.VC
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// analysisGolden is one recorded analysis outcome.
type analysisGolden struct {
	name, assign  string
	opts          func(*Options)
	rows, rounds  int
	edges, cycles int
	hash          string
}

// analysisGoldens were recorded from the Go composition implementation
// (per-placement Compose jobs with string-keyed dedupe) that the SQL
// analysis replaced, on the generated controller tables.
var analysisGoldens = []analysisGolden{
	{name: "default", assign: protocol.AssignInitial, rows: 1735, rounds: 1, edges: 15, cycles: 23, hash: "9a17eaf2a095f444"},
	{name: "default", assign: protocol.AssignVC4, rows: 1155, rounds: 1, edges: 16, cycles: 8, hash: "2b5ca8afbc5d6c2d"},
	{name: "default", assign: protocol.AssignFixed, rows: 673, rounds: 1, edges: 12, cycles: 0, hash: "43cd8851da28426f"},
	{name: "closure", assign: protocol.AssignVC4, opts: func(o *Options) { o.Closure = true },
		rows: 3147, rounds: 4, edges: 16, cycles: 8, hash: "62d2fb7afde0b429"},
	{name: "no-placements", assign: protocol.AssignVC4, opts: func(o *Options) { o.NoPlacements = true },
		rows: 290, rounds: 1, edges: 13, cycles: 4, hash: "e61e6d5634d645c3"},
	{name: "exact", assign: protocol.AssignVC4, opts: func(o *Options) { o.Relaxed = false },
		rows: 550, rounds: 1, edges: 14, cycles: 5, hash: "bcc101c074e0ec51"},
}

// TestSQLImplementationMatchesGo checks the SQL analysis against the
// answers the Go implementation gave: protocol rows, rounds, edges,
// cycles and the row-set hash, for the §4.2 story and the closure,
// no-placement and exact-matching ablations.
func TestSQLImplementationMatchesGo(t *testing.T) {
	tables := controllerTables(t)
	for _, g := range analysisGoldens {
		t.Run(g.name+"/"+g.assign, func(t *testing.T) {
			opts := DefaultOptions()
			if g.opts != nil {
				g.opts(&opts)
			}
			rep, err := Analyze(tables, assignment(t, g.assign), opts)
			if err != nil {
				t.Fatal(err)
			}
			st := rep.Stats
			if len(rep.Protocol) != g.rows || st.ProtocolRows != g.rows || st.Rounds != g.rounds ||
				st.Edges != g.edges || st.Cycles != g.cycles || len(rep.Cycles) != g.cycles {
				t.Fatalf("rows=%d/%d rounds=%d edges=%d cycles=%d, want rows=%d rounds=%d edges=%d cycles=%d",
					len(rep.Protocol), st.ProtocolRows, st.Rounds, st.Edges, st.Cycles,
					g.rows, g.rounds, g.edges, g.cycles)
			}
			if h := rowSetHash(rep.Protocol); h != g.hash {
				t.Fatalf("row-set hash %s, want %s", h, g.hash)
			}
			if st.ControllerRows == 0 || st.PlacementRows == 0 || st.ComposedRows == 0 {
				t.Fatalf("statement row counts missing: %+v", st)
			}
		})
	}
}

// TestSQLImplementationDependencyRows checks that the analysis statements
// derive the published §4.2 rows, and that the intermediate tables stay
// inspectable, as in the paper.
func TestSQLImplementationDependencyRows(t *testing.T) {
	db := analyzed(t, protocol.AssignVC4, DefaultOptions())
	r1 := db.MustTable("deps").Select(func(r rel.Row) bool {
		return r.Get("m1").Equal(rel.S("wb")) && r.Get("m2").Equal(rel.S("compl")) &&
			r.Get("vc1").Equal(rel.S("VC4")) && r.Get("vc2").Equal(rel.S("VC2")) &&
			r.Get("origin").Equal(rel.S(protocol.MemoryTable))
	})
	if r1.Empty() {
		t.Fatal("R1 missing from the SQL-built M dependency rows")
	}
	// And the composed R3 row must appear in the protocol table.
	r3 := db.MustTable("protocol").Select(func(r rel.Row) bool {
		return r.Get("m1").Equal(rel.S("wb")) && r.Get("m2").Equal(rel.S("mread")) &&
			r.Get("vc1").Equal(rel.S("VC4")) && r.Get("vc2").Equal(rel.S("VC4"))
	})
	if r3.Empty() {
		t.Fatal("R3 missing from the SQL-built protocol dependency table")
	}
}

func TestSQLImplementationBadInputs(t *testing.T) {
	tables := controllerTables(t)
	bad := rel.MustNewTable("V", "m", "s")
	if _, err := Analyze(tables, bad, DefaultOptions()); err == nil {
		t.Fatal("malformed V must error")
	}
	noMsg := rel.MustNewTable("X", "foo")
	v := assignment(t, protocol.AssignVC4)
	if _, err := Analyze([]*rel.Table{noMsg}, v, DefaultOptions()); err == nil {
		t.Fatal("malformed controller must error")
	}
}

// TestCycleEvidenceOrigins checks the provenance of every cycle-evidence
// row: each half of its origin names a controller and a placement, and
// two runs name the same rows.
func TestCycleEvidenceOrigins(t *testing.T) {
	tables := controllerTables(t)
	controllers := map[string]bool{}
	for _, tab := range tables {
		controllers[tab.Name()] = true
	}
	placements := map[string]bool{}
	for _, p := range Placements() {
		placements[p.Name] = true
	}
	evidence := func(name string) []string {
		rep, err := Analyze(tables, assignment(t, name), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range rep.Cycles {
			for _, ev := range rep.Graph.CycleEvidence(c) {
				out = append(out, ev.String())
				for _, part := range strings.Split(ev.Origin, "*") {
					ctl, pl, ok := strings.Cut(part, "@")
					if !ok || !controllers[ctl] || !placements[pl] {
						t.Fatalf("%s: evidence %s: origin part %q names no controller@placement", name, ev, part)
					}
				}
			}
		}
		return out
	}
	for _, name := range []string{protocol.AssignInitial, protocol.AssignVC4} {
		first, second := evidence(name), evidence(name)
		if len(first) == 0 {
			t.Fatalf("%s: no cycle evidence", name)
		}
		if strings.Join(first, "\n") != strings.Join(second, "\n") {
			t.Fatalf("%s: cycle evidence differs between runs", name)
		}
	}
}

// analyzed runs the analysis statements for one assignment and returns
// the database holding their tables.
func analyzed(t testing.TB, assign string, opts Options) *sqlmini.DB {
	t.Helper()
	db := analysisDB(opts)
	if _, err := runAnalysis(db, controllerTables(t), assignment(t, assign), opts); err != nil {
		t.Fatal(err)
	}
	return db
}

// controllerDeps returns one controller's individual dependency rows.
func controllerDeps(t testing.TB, assign, controller string) []DepRow {
	t.Helper()
	var out []DepRow
	for _, r := range depRows(analyzed(t, assign, DefaultOptions()).MustTable("deps")) {
		if r.Origin == controller {
			out = append(out, r)
		}
	}
	return out
}

// depDB returns an analysis database holding the given dependency tables.
func depDB(tables map[string][]DepRow) *sqlmini.DB {
	db := analysisDB(Options{})
	for name, rows := range tables {
		db.PutTable(DepTable(name, rows))
	}
	return db
}

func mustExec(t testing.TB, db *sqlmini.DB, stmt string) {
	t.Helper()
	if _, err := db.Exec(stmt); err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
}

// placeRows runs the placement statement over rows, for p alone.
func placeRows(t testing.TB, rows []DepRow, p Placement) []DepRow {
	t.Helper()
	db := depDB(map[string][]DepRow{"deps": rows})
	mustExec(t, db, placementSQL([]Placement{p}))
	return depRows(db.MustTable("placed"))
}

// composeRows runs the composition statements over a and b and returns
// the composed rows, named lo*ro.
func composeRows(t testing.TB, a, b []DepRow, relaxed bool) []DepRow {
	t.Helper()
	db := depDB(map[string][]DepRow{"lt": a, "rt": b})
	c := composition{relaxed: relaxed}
	for _, stmt := range c.sidesSQL("lt", "rt") {
		mustExec(t, db, stmt)
	}
	mustExec(t, db, "CREATE TABLE c AS "+c.joinSQL())
	out, err := db.Query("SELECT " + depKey + ", cat(lo, '*', ro) AS origin FROM c")
	if err != nil {
		t.Fatal(err)
	}
	return depRows(out)
}

// collapseRows runs the collapse statement over rows, as uncomposed steps.
func collapseRows(t testing.TB, rows []DepRow) []DepRow {
	t.Helper()
	db := depDB(map[string][]DepRow{"deps": rows})
	mustExec(t, db, "CREATE TABLE steps AS SELECT "+depKey+", origin AS lo, NULL AS ro FROM deps")
	mustExec(t, db, collapseSQL)
	return depRows(db.MustTable("protocol"))
}
