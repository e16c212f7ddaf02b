package protocol

import (
	"testing"

	"coherdb/internal/constraint"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// TestGenerateInputsMatchesSolvedInputs pins input legality on all eight
// controllers: the legal input combinations GenerateInputs solves for are
// exactly the distinct input projections of the full table. A sub-spec
// that dropped the hidden rule column would lose its coverage pruning and
// admit input rows no rule covers.
func TestGenerateInputsMatchesSolvedInputs(t *testing.T) {
	specs, err := BuildAllSpecs()
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range specs {
		inputs, _, err := constraint.GenerateInputs(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full, _, err := constraint.Solve(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		proj, err := full.Project(spec.InputNames()...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := proj.Distinct()
		eq, err := inputs.SetName(want.Name()).EqualRows(want)
		if err != nil || !eq || inputs.NumRows() != want.NumRows() {
			t.Errorf("%s: GenerateInputs has %d rows, the solved table %d distinct input rows (err %v)",
				name, inputs.NumRows(), want.NumRows(), err)
		}
		for _, tab := range []*rel.Table{inputs, full} {
			if tab.ColIndex(RuleColumn) >= 0 {
				t.Errorf("%s: generated table %q has the hidden %s column", name, tab.Name(), RuleColumn)
			}
		}
	}
}

// TestGenerateAllMatchesSerialSolves runs GenerateAll, which builds and
// solves the eight specs on concurrent goroutines sharing the expression
// parse cache and the process-wide dictionary, and checks every table it
// installs byte for byte against a one-at-a-time build and solve.
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
	}
}
