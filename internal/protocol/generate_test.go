package protocol

import (
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// TestGenerateAllMatchesSerialSolves runs GenerateAll, which builds and
// solves the eight specs on concurrent goroutines sharing the expression
// parse cache and the process-wide dictionary, and checks every table it
// installs byte for byte against a one-at-a-time build and solve. Neither
// may carry the hidden rule column.
func TestGenerateAllMatchesSerialSolves(t *testing.T) {
	db := sqlmini.NewDB()
	if _, err := GenerateAll(db); err != nil {
		t.Fatal(err)
	}
	for _, sb := range SpecBuilders() {
		spec, err := sb.Build()
		if err != nil {
			t.Fatalf("%s: %v", sb.Name, err)
		}
		want, _, err := constraint.Solve(spec)
		if err != nil {
			t.Fatalf("%s: %v", sb.Name, err)
		}
		got, ok := db.Table(sb.Name)
		if !ok {
			t.Fatalf("GenerateAll installed no table %s", sb.Name)
		}
		if csvOf(t, got) != csvOf(t, want) {
			t.Errorf("%s: concurrent generation differs from a serial solve", sb.Name)
		}
		for _, tab := range []*rel.Table{got, want} {
			if tab.ColIndex(RuleColumn) >= 0 {
				t.Errorf("%s: generated table %q has the hidden %s column", sb.Name, tab.Name(), RuleColumn)
			}
		}
	}
}
