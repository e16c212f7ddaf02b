package rel

import (
	"errors"
	"testing"
)

func TestTernaryMatch(t *testing.T) {
	tab := MustNewTable("T", "inmsg", "st", "out")
	tab.MustInsert(S("req"), Null(), S("generic"))     // 0: dontcare state
	tab.MustInsert(S("req"), S("busy"), S("specific")) // 1
	tab.MustInsert(S("req"), S("busy"), S("tie"))      // 2: loses the tie to 1
	tab.MustInsert(Null(), Null(), S("wild"))          // 3: bucketed under ""
	tab.MustInsert(S(""), S("idle"), S("empty"))       // 4: also under ""
	m, err := NewTernary(tab, "inmsg", "st")
	if err != nil {
		t.Fatal(err)
	}
	unseen := S("ternary-test-never-interned")
	for _, tc := range []struct {
		name    string
		binding map[string]Value
		want    int
	}{
		{"most specific row wins", map[string]Value{"inmsg": S("req"), "st": S("busy")}, 1},
		{"dontcare cell matches any value", map[string]Value{"inmsg": S("req"), "st": S("other")}, 0},
		{"unseen value matches only dontcares", map[string]Value{"inmsg": S("req"), "st": unseen}, 0},
		{"missing binding is NULL", map[string]Value{"inmsg": S("req")}, 0},
		{"no bucket, no match", map[string]Value{"inmsg": S("nosuch"), "st": Null()}, -1},
		{"unseen bucket key", map[string]Value{"inmsg": unseen}, -1},
		{"S(\"\") shares the NULL bucket", map[string]Value{"inmsg": S(""), "st": S("idle")}, 4},
		{"NULL binding reaches the S(\"\") bucket but not its cell", map[string]Value{"inmsg": Null(), "st": S("idle")}, 3},
	} {
		if got := m.Match(tc.binding); got != tc.want {
			t.Errorf("%s: Match(%v) = %d, want %d", tc.name, tc.binding, got, tc.want)
		}
	}
	if _, ok := tab.Dict().LookupCode(unseen); ok {
		t.Error("Match interned a binding value; the probe must be read-only")
	}
}

func TestNewTernaryErrors(t *testing.T) {
	tab := MustNewTable("T", "inmsg", "st")
	if _, err := NewTernary(tab); err == nil {
		t.Error("no input columns: want error")
	}
	if _, err := NewTernary(tab, "inmsg", "ghost"); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("unknown input column: err = %v, want ErrUnknownColumn", err)
	}
}
