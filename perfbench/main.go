// Command perfbench is coherdb's end-to-end benchmark. It times the three
// things a protocol designer waits for — one full core.Run, one
// edit-check round trip, one server statement — checks every output
// against an oracle, and prints one JSON result line.
//
//	go -C perfbench build -o ../.bench_build/perfbench .
//	.bench_build/perfbench --workload pipeline --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the named workload with nothing but a clock
// around each operation and prints the end-to-end metrics. With --trace 1
// it runs every workload twice, once as in --trace 0 and once with each
// operation split into timed calls to the public functions of the layers
// below it, and prints the per-layer metrics (see README.md).
//
// The last line of standard output is the result object; the line before
// it records the host the numbers were taken on.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// unit is one declared metric: its name and unit.
type unit struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints, for every workload.
// Each workload has one unit operation ("op"): a core.Run on pipeline, an
// edit round trip on edit-check, a reader statement on server.
var endToEnd = []unit{
	{"setup_s", "s"},
	{"op_us_p50", "us"},
	{"op_us_p90", "us"},
	{"alloc_kb_per_op", "KB"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run prints.
var perLayer = []unit{
	// Pipeline phases, called in core.Run's order.
	{"constraint.generate_ms", "ms"},
	{"check.suite_ms", "ms"},
	{"deadlock.story_ms", "ms"},
	{"hwmap.map_ms", "ms"},
	{"core.phase_coverage", "ratio"},
	{"runtime.alloc_mb.generate", "MB"},
	{"runtime.alloc_mb.invariants", "MB"},
	{"runtime.alloc_mb.deadlock", "MB"},
	{"runtime.alloc_mb.mapping", "MB"},
	{"runtime.gc_cycles.generate", "count"},
	{"runtime.gc_cycles.invariants", "count"},
	{"runtime.gc_cycles.deadlock", "count"},
	{"runtime.gc_cycles.mapping", "count"},
	{"runtime.gc_cpu_ms.generate", "ms"},
	{"runtime.gc_cpu_ms.invariants", "ms"},
	{"runtime.gc_cpu_ms.deadlock", "ms"},
	{"runtime.gc_cpu_ms.mapping", "ms"},
	// Generation, one controller at a time.
	{"protocol.spec_build_ms", "ms"},
	{"constraint.solve_ms.C", "ms"},
	{"constraint.solve_ms.D", "ms"},
	{"constraint.solve_ms.INT", "ms"},
	{"constraint.solve_ms.IO", "ms"},
	{"constraint.solve_ms.M", "ms"},
	{"constraint.solve_ms.N", "ms"},
	{"constraint.solve_ms.R", "ms"},
	{"constraint.solve_ms.SY", "ms"},
	{"constraint.compile_ms.D", "ms"},
	{"constraint.candidates.D", "count"},
	{"constraint.memo_hits.D", "count"},
	{"constraint.rows_per_candidate.D", "ratio"},
	// Deadlock, one analysis per channel assignment.
	{"deadlock.analyze_ms.initial4", "ms"},
	{"deadlock.analyze_ms.vc4", "ms"},
	{"deadlock.analyze_ms.fixed", "ms"},
	{"deadlock.cycle_ms.initial4", "ms"},
	{"deadlock.cycle_ms.vc4", "ms"},
	{"deadlock.cycle_ms.fixed", "ms"},
	{"deadlock.composed_rows.initial4", "count"},
	{"deadlock.composed_rows.vc4", "count"},
	{"deadlock.composed_rows.fixed", "count"},
	{"deadlock.protocol_rows.initial4", "count"},
	{"deadlock.protocol_rows.vc4", "count"},
	{"deadlock.protocol_rows.fixed", "count"},
	// Hardware mapping.
	{"hwmap.partition_ms", "ms"},
	{"hwmap.verify_ms", "ms"},
	// SQL counters of one pipeline run.
	{"sqlmini.statements.pipeline", "count"},
	{"sqlmini.rows_scanned.pipeline", "count"},
	{"sqlmini.plan_cache_hit_ratio.pipeline", "ratio"},
	// Edit-check round trip.
	{"sqlmini.dml_us_p50", "us"},
	{"sqlmini.dml_us_p99", "us"},
	{"delta.commit_us_p50", "us"},
	{"check.run_delta_us_p50.D", "us"},
	{"check.run_delta_us_p50.other", "us"},
	{"check.run_delta_us_p99", "us"},
	{"check.rechecked_per_edit", "count"},
	{"check.skip_ratio", "ratio"},
	{"check.full_run_us", "us"},
	{"runtime.alloc_kb.dml", "KB"},
	{"runtime.alloc_kb.run_delta", "KB"},
	// The untraced tails and writer latency of edit-check and server.
	{"edit_us_p99", "us"},
	{"read_us_p99", "us"},
	{"write_us_p50", "us"},
	// Server, replayed in-process through sqlmini sessions.
	{"sqlmini.session_read_us_p50", "us"},
	{"sqlmini.session_read_us_p99", "us"},
	{"server.read_overhead_us_p50", "us"},
	{"sqlmini.session_update_us_p50", "us"},
	{"check.session_recheck_us_p50", "us"},
	{"server.statements", "count"},
	{"server.rechecks", "count"},
	{"rel.epochs_published", "count"},
	{"sqlmini.plan_cache_hit_ratio.server", "ratio"},
	// Traced ÷ untraced end-to-end op latency.
	{"trace.overhead_ratio.pipeline", "ratio"},
	{"trace.overhead_ratio.edit-check", "ratio"},
	{"trace.overhead_ratio.server", "ratio"},
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run    func(o options) (*report, error)
	traced func(o options, r *report) error
}{
	"pipeline":   {runPipeline, tracePipeline},
	"edit-check": {runEditCheck, traceEditCheck},
	"server":     {runServer, traceServer},
}

// workloadOrder is the order a traced run visits the workloads in, after
// the one named on the command line.
var workloadOrder = []string{"pipeline", "edit-check", "server"}

// options configures one workload run.
type options struct {
	seed int64
	// dur is how long the timed loop runs.
	dur time.Duration
	// setups is how many times the workload's set-up is repeated to
	// report its median; the last one is kept for the timed loop.
	setups int
	// corrupt flips the golden values after set-up, so every oracle that
	// consults them must fail; tests use it to prove the oracles bite.
	corrupt bool
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int64
	firstFailure      string
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// op records one attempted operation and, when err is non-nil, its failure.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failure of an operation already counted as attempted.
func (r *report) fail(err error) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = err.Error()
	}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// coldSetupEnv marks a child process that only times one cold core.Run.
const coldSetupEnv = "PERFBENCH_COLD_SETUP"

func main() {
	if os.Getenv(coldSetupEnv) == "1" {
		os.Exit(coldSetupChild())
	}
	workload := flag.String("workload", "", "pipeline, edit-check or server")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 30, "length of the measured loop")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int) error {
	w, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	dur := time.Duration(seconds * float64(time.Second))
	host := startHost()
	var rep *report
	declared := endToEnd
	if trace == 0 {
		var err error
		if rep, err = w.run(options{seed: seed, dur: dur, setups: 9}); err != nil {
			return fmt.Errorf("%s: %w", workload, err)
		}
	} else {
		declared = perLayer
		rep = newReport()
		order := []string{workload}
		for _, name := range workloadOrder {
			if name != workload {
				order = append(order, name)
			}
		}
		// Each workload gets an equal share of the run, half of it
		// untraced and half traced.
		share := dur / time.Duration(len(order))
		for _, name := range order {
			if err := workloads[name].traced(options{seed: seed, dur: share / 2, setups: 1}, rep); err != nil {
				return fmt.Errorf("%s traced: %w", name, err)
			}
		}
	}
	if rep.firstFailure != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %s\n", rep.failed, rep.attempted, rep.firstFailure)
	}
	out, err := render(rep, declared)
	if err != nil {
		return err
	}
	hostLine, err := json.Marshal(map[string]any{"host": host.finish(), "workload": workload, "seed": seed, "seconds": seconds, "trace": trace})
	if err != nil {
		return err
	}
	fmt.Println(string(hostLine))
	fmt.Println(string(out))
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render builds the result line from exactly the declared metrics. A
// metric without a value is an error, unless operations failed: then the
// failures may have left it without samples, and the line reports the
// failures with the metrics that were measured.
func render(rep *report, declared []unit) ([]byte, error) {
	ms := make(map[string]metricJSON, len(declared))
	var missing []string
	for _, u := range declared {
		v, ok := rep.metrics[u.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, u.name)
			continue
		}
		ms[u.name] = metricJSON{Value: v, Unit: u.unit}
	}
	if len(missing) > 0 && rep.failed == 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, ms})
}
