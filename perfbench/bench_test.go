package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"coherdb/internal/check"
	"coherdb/internal/protocol"
)

func TestMain(m *testing.M) {
	// The pipeline's cold set-up re-executes this binary.
	if os.Getenv(coldSetupEnv) == "1" {
		os.Exit(coldSetupChild())
	}
	os.Exit(m.Run())
}

// TestInvariantsOverWire sends every invariant query over the line
// protocol, collapsed onto one line, and requires the same non-error
// answer the database gives in-process.
func TestInvariantsOverWire(t *testing.T) {
	b, _, err := serverSetup(options{seed: 1, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if len(b.queries) != b.suite.Len() {
		t.Fatalf("%d queries for %d invariants", len(b.queries), b.suite.Len())
	}
	for i, q := range b.queries {
		if strings.Contains(q, "\n") {
			t.Errorf("query %d still spans lines", i)
		}
		resp, err := b.reader.cmd(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(resp, "error:") {
			t.Errorf("%s: %s", b.suite.Invariants()[i].Name, resp)
		} else if resp != b.answers[0][i] {
			t.Errorf("%s: wire answer %q, in-process %q", b.suite.Invariants()[i].Name, resp, b.answers[0][i])
		}
	}
}

// TestOracles runs each workload briefly, once as it is and once with its
// golden values corrupted: the first must not fail, the second must.
func TestOracles(t *testing.T) {
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			for _, corrupt := range []bool{false, true} {
				rep, err := workloads[name].run(options{seed: 3, dur: 300 * time.Millisecond, setups: 1, corrupt: corrupt})
				if err != nil {
					t.Fatal(err)
				}
				if rep.attempted == 0 {
					t.Fatal("no operations attempted")
				}
				if failed := rep.failed > 0; failed != corrupt {
					t.Errorf("corrupt=%v: %d of %d operations failed (first: %s)", corrupt, rep.failed, rep.attempted, rep.firstFailure)
				}
			}
		})
	}
}

// TestEditOracleCatchesStaleResults edits D until an edit breaks an
// invariant, then stands the verdicts from before the edit in for
// RunDelta's: the periodic comparison must fail on them.
func TestEditOracleCatchesStaleResults(t *testing.T) {
	b, _, err := editSetup(options{seed: 1, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseline := b.prev
	for i := 0; i < 50; i++ {
		e := b.gen.update(protocol.DirectoryTable)
		b.undo, b.undoTable = e.sql, e.table
		if _, err := b.step(false); err != nil {
			t.Fatal(err)
		}
		if _, err := b.verify(); err != nil {
			t.Fatal(err)
		}
		broken := check.Summarize(b.prev).Passed < b.suite.Len()
		if broken {
			b.prev = baseline
			if _, err := b.verify(); err == nil {
				t.Fatalf("stale verdicts passed the comparison after %s", e.sql)
			}
		}
		b.undo = e.undo
		if _, err := b.step(false); err != nil {
			t.Fatal(err)
		}
		if broken {
			return
		}
	}
	t.Fatal("no edit to D broke an invariant")
}

// TestTracedRunReportsEveryMetric runs a short traced run, which fails if
// any declared per-layer metric goes unmeasured.
func TestTracedRunReportsEveryMetric(t *testing.T) {
	if err := run("edit-check", 2, 3, 1); err != nil {
		t.Fatal(err)
	}
}

func TestCollapseSQL(t *testing.T) {
	got := collapseSQL("SELECT a,\n\t b FROM D\n  WHERE a = 'x  y'\n")
	if want := "SELECT a, b FROM D WHERE a = 'x  y'"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	want := append([]string(nil), workloadOrder...)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		json []metric
		code []unit
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json declares %d metrics, program %d", len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
