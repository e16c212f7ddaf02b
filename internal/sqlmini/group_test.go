package sqlmini

import (
	"testing"

	"coherdb/internal/rel"
)

func groupDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if err := db.ExecScript(`
		CREATE TABLE msgs (m, class, vc);
		INSERT INTO msgs VALUES
			('readex', 'request',  'VC0'),
			('read',   'request',  'VC0'),
			('sinv',   'request',  'VC1'),
			('idone',  'response', 'VC2'),
			('data',   'response', 'VC3'),
			('compl',  'response', 'VC3')`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestGroupByCount(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT class, COUNT(*) AS n FROM msgs GROUP BY class`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d\n%s", res.NumRows(), res)
	}
	for i := 0; i < res.NumRows(); i++ {
		if res.Get(i, "n").Int() != 3 {
			t.Fatalf("group %v count = %v", res.Get(i, "class"), res.Get(i, "n"))
		}
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT class, vc, COUNT(*) AS n FROM msgs GROUP BY class, vc`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 { // (request,VC0)=2 (request,VC1)=1 (response,VC2)=1 (response,VC3)=2
		t.Fatalf("groups = %d\n%s", res.NumRows(), res)
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT vc, COUNT(*) AS n FROM msgs GROUP BY vc HAVING COUNT(*) > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 { // VC0 and VC3
		t.Fatalf("groups = %d\n%s", res.NumRows(), res)
	}
	for i := 0; i < res.NumRows(); i++ {
		if res.Get(i, "n").Int() != 2 {
			t.Fatalf("bad group survived HAVING:\n%s", res)
		}
	}
}

func TestGroupByWithWhere(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT vc, COUNT(*) AS n FROM msgs WHERE class = 'request' GROUP BY vc`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d\n%s", res.NumRows(), res)
	}
}

func TestGroupByDuplicateDetectionIdiom(t *testing.T) {
	// The determinism-invariant idiom: duplicate key detection.
	db := groupDB(t)
	if _, err := db.Exec(`INSERT INTO msgs VALUES ('readex', 'request', 'VC9')`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT m, COUNT(*) AS n FROM msgs GROUP BY m HAVING COUNT(*) > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || !res.Get(0, "m").Equal(rel.S("readex")) {
		t.Fatalf("duplicate not isolated:\n%s", res)
	}
	if res.Get(0, "n").Int() != 2 {
		t.Fatalf("count = %v", res.Get(0, "n"))
	}
}

func TestGroupByEmptyInput(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT m, COUNT(*) FROM msgs WHERE m = 'ghost' GROUP BY m`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Empty() {
		t.Fatalf("rows = %d", res.NumRows())
	}
}

func TestGroupByOrderBy(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT vc, COUNT(*) AS n FROM msgs GROUP BY vc ORDER BY n DESC, vc`)
	if err != nil {
		t.Fatal(err)
	}
	// Counts: VC0=2, VC3=2, VC1=1, VC2=1 -> order VC0, VC3, VC1, VC2.
	want := []string{"VC0", "VC3", "VC1", "VC2"}
	for i, w := range want {
		if res.Get(i, "vc").Str() != w {
			t.Fatalf("row %d = %v, want %s\n%s", i, res.Get(i, "vc"), w, res)
		}
	}
}

func TestGroupByLimit(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT m, COUNT(*) AS n FROM msgs GROUP BY m LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
}

func TestMinMaxAggregates(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT class, MIN(m) AS lo, MAX(m) AS hi, COUNT(*) AS n FROM msgs GROUP BY class ORDER BY class`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", res.NumRows(), res)
	}
	// requests: read, readex, sinv -> min=read, max=sinv
	if res.Get(0, "lo").Str() != "read" || res.Get(0, "hi").Str() != "sinv" {
		t.Fatalf("request min/max wrong:\n%s", res)
	}
	// responses: compl, data, idone -> min=compl, max=idone
	if res.Get(1, "lo").Str() != "compl" || res.Get(1, "hi").Str() != "idone" {
		t.Fatalf("response min/max wrong:\n%s", res)
	}
}

func TestMinMaxWholeTable(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT MIN(m) AS lo, MAX(vc) AS hi FROM msgs`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Get(0, "lo").Str() != "compl" || res.Get(0, "hi").Str() != "VC3" {
		t.Fatalf("whole-table aggregate wrong:\n%s", res)
	}
}

func TestMinMaxSkipsNulls(t *testing.T) {
	db := NewDB()
	if err := db.ExecScript(`CREATE TABLE t (a); INSERT INTO t VALUES (NULL), (3), (NULL), (1)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT MIN(a) AS lo, MAX(a) AS hi FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "lo").Int() != 1 || res.Get(0, "hi").Int() != 3 {
		t.Fatalf("NULL handling wrong:\n%s", res)
	}
}

func TestHavingWithMinMax(t *testing.T) {
	db := groupDB(t)
	// VC3 carries {compl, data}: MAX is data.
	res, err := db.Query(`SELECT vc FROM msgs GROUP BY vc HAVING MAX(m) = 'data'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Get(0, "vc").Str() != "VC3" {
		t.Fatalf("HAVING max wrong:\n%s", res)
	}
}

func TestGroupByErrors(t *testing.T) {
	db := groupDB(t)
	for _, q := range []string{
		`SELECT m FROM msgs GROUP BY`,
		`SELECT m FROM msgs GROUP m`,
		`SELECT m FROM msgs GROUP BY nosuchcol`,
		`SELECT m FROM msgs GROUP BY m HAVING nosuch(m)`,
	} {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%q must fail", q)
		}
	}
}

func TestGroupKeysProbesPastHashCollisions(t *testing.T) {
	k := newGroupKeys(1)
	// Every key below shares hash 7, so groups are told apart only by
	// probing past the collisions and comparing keys; the table starts at
	// 8 slots, so the later keys also cross a grow.
	keys := []string{"ab", "ba", "ab", "cc", "ba", "cc", "d", "e", "f", "g", "d", "ab", "g"}
	want := []int32{0, 1, 0, 2, 1, 2, 3, 4, 5, 6, 3, 0, 6}
	var stored []string
	for i, key := range keys {
		g := k.intern(7, func(g int32) bool { return stored[g] == key })
		if g != want[i] {
			t.Fatalf("key %q: group %d, want %d", key, g, want[i])
		}
		if int(g) == len(stored) {
			stored = append(stored, key)
		}
	}
	if g := k.intern(8, func(g int32) bool { return stored[g] == "ab" }); g != 7 {
		t.Fatalf("same key under another hash: group %d, want 7", g)
	}
	if k.len() != 8 {
		t.Fatalf("len = %d, want 8", k.len())
	}
}

func TestAggregatesInsideExpressions(t *testing.T) {
	db := groupDB(t)
	res, err := db.Query(`SELECT vc, CASE WHEN COUNT(*) > 1 THEN MIN(m) ELSE MAX(class) END AS x
		FROM msgs GROUP BY vc HAVING NOT COUNT(*) = 3 ORDER BY vc`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"VC0", "read"}, {"VC1", "request"}, {"VC2", "response"}, {"VC3", "compl"}}
	if res.NumRows() != len(want) {
		t.Fatalf("rows = %d\n%s", res.NumRows(), res)
	}
	for i, w := range want {
		if got := [2]string{res.Get(i, "vc").String(), res.Get(i, "x").String()}; got != w {
			t.Fatalf("row %d = %v, want %v\n%s", i, got, w, res)
		}
	}
}

func TestGroupByComputedKeys(t *testing.T) {
	db := groupDB(t)
	db.Register("cat", func(args []rel.Value) (rel.Value, error) {
		return rel.S(args[0].String() + args[1].String()), nil
	})
	for _, q := range []string{
		`SELECT COUNT(*) AS n FROM msgs GROUP BY cat(class, vc)`,
		`SELECT class, COUNT(*) AS n FROM msgs GROUP BY class, cat(vc, 'x')`,
	} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		total := int64(0)
		for i := 0; i < res.NumRows(); i++ {
			total += res.Get(i, "n").Int()
		}
		if res.NumRows() != 4 || total != 6 { // as in TestGroupByMultipleKeys
			t.Fatalf("%s: %d groups over %d rows\n%s", q, res.NumRows(), total, res)
		}
	}
}
