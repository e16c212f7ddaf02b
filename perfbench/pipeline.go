package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"coherdb/internal/check"
	"coherdb/internal/constraint"
	"coherdb/internal/core"
	"coherdb/internal/deadlock"
	"coherdb/internal/hwmap"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// The pipeline workload: repeated full core.Run with default options,
// each on a fresh Pipeline, one caller.

// deadlockExpected says which §4.2 assignments must show a cycle.
var deadlockExpected = map[string]bool{
	protocol.AssignInitial: true,
	protocol.AssignVC4:     true,
	protocol.AssignFixed:   false,
}

// pipelinePhases names core.Run's phases in the order it runs them.
var pipelinePhases = []string{"generate", "invariants", "deadlock", "mapping"}

// coldSetupChild is the body of a child process: it times the first,
// cold core.Run in a fresh process — what every cohercheck invocation
// pays — and prints the seconds it took.
func coldSetupChild() int {
	t0 := time.Now()
	_, err := core.Run(core.Options{})
	el := time.Since(t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cold core.Run:", err)
		return 1
	}
	fmt.Println(el.Seconds())
	return 0
}

// coldRun runs coldSetupChild in a child process and waits for it.
func coldRun() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), coldSetupEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold core.Run child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// tableMap lets the oracles read tables that live outside a database.
type tableMap map[string]*rel.Table

func (m tableMap) Table(name string) (*rel.Table, bool) {
	t, ok := m[name]
	return t, ok
}

// splitGeneration is generation done one controller at a time: the spec
// builders, then one constraint.SolveOpts per controller.
type splitGeneration struct {
	specBuild time.Duration
	solve     map[string]time.Duration
	statsD    constraint.Stats
	hash      uint64
}

// generateSplit generates the eight tables sequentially. Its hash is the
// pipeline's golden value: core.Run generates the same tables with every
// controller solved concurrently.
func generateSplit() (*splitGeneration, error) {
	g := &splitGeneration{solve: map[string]time.Duration{}}
	builders := protocol.SpecBuilders()
	specs := make([]*constraint.Spec, len(builders))
	t0 := time.Now()
	for i, sb := range builders {
		s, err := sb.Build()
		if err != nil {
			return nil, fmt.Errorf("building spec %s: %w", sb.Name, err)
		}
		specs[i] = s
	}
	g.specBuild = time.Since(t0)
	tables := tableMap{}
	for i, sb := range builders {
		t1 := time.Now()
		tab, st, err := constraint.SolveOpts(specs[i], constraint.Options{})
		g.solve[sb.Name] = time.Since(t1)
		if err != nil {
			return nil, fmt.Errorf("solving %s: %w", sb.Name, err)
		}
		if sb.Name == protocol.DirectoryTable {
			g.statsD = st
		}
		tables[sb.Name] = tab
	}
	h, err := tablesHash(tables)
	g.hash = h
	return g, err
}

// checkPipeline is the pipeline oracle: the generated tables hash to the
// golden value, every invariant passes, initial4 and vc4 deadlock while
// fixed is cycle free, and the hardware mapping verified.
func checkPipeline(p *core.Pipeline, runErr error, golden uint64) error {
	if runErr != nil {
		return runErr
	}
	h, err := tablesHash(p.DB)
	if err != nil {
		return err
	}
	if h != golden {
		return fmt.Errorf("generated tables hash to %x, golden %x", h, golden)
	}
	want := check.ProtocolSuite().Len()
	if s := p.Report.InvariantSummary; s.Total != want || s.Passed != want {
		return fmt.Errorf("invariants: %s, want %d passed", s, want)
	}
	for name, cyclic := range deadlockExpected {
		rep := p.Report.Deadlock[name]
		if rep == nil || rep.Deadlocked() != cyclic {
			return fmt.Errorf("assignment %s: deadlock verdict is not %v", name, cyclic)
		}
	}
	if p.Report.Mapping == nil || len(p.Report.ImplChecks) == 0 {
		return errors.New("hardware mapping not verified")
	}
	return nil
}

// timePipelines runs core.Run back to back for dur (at least three
// times), checking each, and returns the latencies and bytes allocated.
func timePipelines(dur time.Duration, golden uint64, rep *report) (samples, uint64) {
	var lat samples
	var alloc uint64
	deadline := time.Now().Add(dur)
	for len(lat) < 3 || time.Now().Before(deadline) {
		before := readRT()
		t0 := time.Now()
		p, err := core.Run(core.Options{})
		lat = append(lat, time.Since(t0))
		alloc += readRT().sub(before).allocBytes
		rep.op(checkPipeline(p, err, golden))
	}
	return lat, alloc
}

// pipelineSetup times the cold runs (in child processes), computes the
// golden hash and runs one warm-up core.Run.
func pipelineSetup(o options, rep *report) (golden uint64, setup []float64, err error) {
	for i := 0; i < o.setups; i++ {
		s, err := coldRun()
		if err != nil {
			return 0, nil, err
		}
		setup = append(setup, s)
	}
	g, err := generateSplit()
	if err != nil {
		return 0, nil, err
	}
	golden = g.hash
	if o.corrupt {
		golden ^= 1
	}
	p, err := core.Run(core.Options{})
	rep.op(checkPipeline(p, err, golden))
	return golden, setup, nil
}

func runPipeline(o options) (*report, error) {
	rep := newReport()
	golden, setup, err := pipelineSetup(o, rep)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	lat, alloc := timePipelines(o.dur, golden, rep)
	rep.set("setup_s", median(setup))
	rep.set("op_us_p50", lat.p50())
	rep.set("op_us_p90", lat.quantile(0.90))
	rep.set("alloc_kb_per_op", float64(alloc)/float64(len(lat))/1024)
	rep.set("max_rss_mb", maxRSSMB())
	return rep, nil
}

// tracePipeline runs the pipeline untraced for o.dur, then for o.dur
// runs one untraced core.Run and then calls core.Run's phases one by
// one, each round followed by the generation, deadlock and mapping work
// split into their layers' public calls.
func tracePipeline(o options, rep *report) error {
	golden, _, err := pipelineSetup(options{seed: o.seed}, rep)
	if err != nil {
		return err
	}
	plain, _ := timePipelines(o.dur, golden, rep)

	var (
		opLat, solveD, compileD, specBuild, partition, verify samples
		coverage, statements, scanned, hitRatio               []float64
		candidates, memoHits, rowsPerCand                     []float64
		phase                                                 = map[string]samples{}
		phaseRT                                               = map[string][]rtStat{}
		solve                                                 = map[string]samples{}
		analyze, cycle                                        = map[string]samples{}, map[string]samples{}
		composed, protoRows                                   = map[string][]float64{}, map[string][]float64{}
	)
	deadline := time.Now().Add(o.dur)
	// Bounded by attempts, not successes, so that a run whose phases all
	// fail still ends and reports its failures.
	for attempts := 0; attempts < 3 || time.Now().Before(deadline); attempts++ {
		// An untraced core.Run beside each traced one: the coverage
		// compares the two under the same host conditions.
		c0 := time.Now()
		pc, err := core.Run(core.Options{})
		untraced := time.Since(c0)
		untracedErr := checkPipeline(pc, err, golden)
		rep.op(untracedErr)

		t0 := time.Now()
		p := core.New()
		p.SetWorkers(0)
		steps := []func() error{
			p.Generate,
			func() error { return p.CheckInvariants(0) },
			func() error { return p.CheckDeadlocks(nil, 0) },
			p.MapToHardware,
		}
		var sum time.Duration
		var runErr error
		for k, step := range steps {
			before := readRT()
			s0 := time.Now()
			err := step()
			el := time.Since(s0)
			name := pipelinePhases[k]
			phaseRT[name] = append(phaseRT[name], readRT().sub(before))
			phase[name] = append(phase[name], el)
			sum += el
			if err != nil {
				runErr = err
				break
			}
		}
		total := time.Since(t0)
		rep.op(checkPipeline(p, runErr, golden))
		if runErr != nil {
			continue
		}
		opLat = append(opLat, total)
		if untracedErr == nil {
			coverage = append(coverage, float64(sum)/float64(untraced))
		}
		st := p.DB.Stats()
		statements = append(statements, float64(st.Statements))
		scanned = append(scanned, float64(st.RowsScanned))
		hitRatio = append(hitRatio, float64(st.PlanCacheHits)/float64(st.PlanCacheHits+st.PlanCacheMisses))

		g, err := generateSplit()
		if err == nil && g.hash != golden {
			err = fmt.Errorf("sequential generation hashes to %x, golden %x", g.hash, golden)
		}
		rep.op(err)
		if err == nil {
			specBuild = append(specBuild, g.specBuild)
			for name, d := range g.solve {
				solve[name] = append(solve[name], d)
			}
			compileD = append(compileD, g.statsD.CompileTime)
			solveD = append(solveD, g.solve[protocol.DirectoryTable])
			candidates = append(candidates, float64(g.statsD.Candidates))
			memoHits = append(memoHits, float64(g.statsD.MemoHits))
			rowsPerCand = append(rowsPerCand, float64(g.statsD.Rows)/float64(g.statsD.Candidates))
		}

		tables, err := p.ControllerTables()
		if err != nil {
			return err
		}
		for _, name := range protocol.AssignmentNames() {
			v, err := protocol.BuildAssignment(name)
			if err != nil {
				return err
			}
			dopts := deadlock.DefaultOptions()
			dopts.Label = name
			a0 := time.Now()
			r, err := deadlock.Analyze(tables, v, dopts)
			el := time.Since(a0)
			if err == nil && r.Deadlocked() != deadlockExpected[name] {
				err = fmt.Errorf("assignment %s: deadlock verdict is not %v", name, deadlockExpected[name])
			}
			rep.op(err)
			if err != nil {
				continue
			}
			analyze[name] = append(analyze[name], el)
			cycle[name] = append(cycle[name], r.Stats.CycleElapsed)
			composed[name] = append(composed[name], float64(r.Stats.ComposedRows))
			protoRows[name] = append(protoRows[name], float64(r.Stats.ProtocolRows))
		}

		m0 := time.Now()
		m, err := hwmap.Partition(p.DB, p.DB.MustTable(protocol.DirectoryTable))
		m1 := time.Now()
		if err == nil {
			_, err = m.Verify()
		}
		if err == nil {
			err = m.VerifyEquivalence()
		}
		m2 := time.Now()
		rep.op(err)
		if err == nil {
			partition = append(partition, m1.Sub(m0))
			verify = append(verify, m2.Sub(m1))
		}
	}

	for metric, name := range map[string]string{
		"constraint.generate_ms": "generate", "check.suite_ms": "invariants",
		"deadlock.story_ms": "deadlock", "hwmap.map_ms": "mapping",
	} {
		rep.set(metric, phase[name].p50()/1e3)
	}
	for _, name := range pipelinePhases {
		var alloc, gcs, gcCPU []float64
		for _, d := range phaseRT[name] {
			alloc = append(alloc, float64(d.allocBytes)/(1<<20))
			gcs = append(gcs, float64(d.gcCycles))
			gcCPU = append(gcCPU, d.gcCPU*1e3)
		}
		rep.set("runtime.alloc_mb."+name, median(alloc))
		rep.set("runtime.gc_cycles."+name, mean(gcs))
		rep.set("runtime.gc_cpu_ms."+name, mean(gcCPU))
	}
	// Below 1 when core.Run spends time outside its four phases.
	rep.set("core.phase_coverage", median(coverage))
	rep.set("protocol.spec_build_ms", specBuild.p50()/1e3)
	for name, d := range solve {
		rep.set("constraint.solve_ms."+name, d.p50()/1e3)
	}
	rep.set("constraint.compile_ms.D", compileD.p50()/1e3)
	rep.set("constraint.candidates.D", median(candidates))
	rep.set("constraint.memo_hits.D", median(memoHits))
	rep.set("constraint.rows_per_candidate.D", median(rowsPerCand))
	for name := range deadlockExpected {
		rep.set("deadlock.analyze_ms."+name, analyze[name].p50()/1e3)
		rep.set("deadlock.cycle_ms."+name, cycle[name].p50()/1e3)
		rep.set("deadlock.composed_rows."+name, median(composed[name]))
		rep.set("deadlock.protocol_rows."+name, median(protoRows[name]))
	}
	rep.set("hwmap.partition_ms", partition.p50()/1e3)
	rep.set("hwmap.verify_ms", verify.p50()/1e3)
	rep.set("sqlmini.statements.pipeline", median(statements))
	rep.set("sqlmini.rows_scanned.pipeline", median(scanned))
	rep.set("sqlmini.plan_cache_hit_ratio.pipeline", median(hitRatio))
	rep.set("trace.overhead_ratio.pipeline", opLat.p50()/plain.p50())
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
