package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"coherdb/internal/check"
	"coherdb/internal/core"
	"coherdb/internal/protocol"
	"coherdb/internal/sqlmini"
)

// The edit-check workload: the cohercheck -incremental loop. Seeded
// single-row DML goes through DB.Exec across the eight controller tables,
// each statement followed by Revision.Commit and Suite.RunDelta. Every
// edit is undone by the next statement, so the tables stay at the
// generated protocol plus at most one row.

// oracleEvery is how many statements pass between comparisons of the
// incremental results with a fresh full suite run. It is odd, so the
// comparisons take turns between an edited state, where RunDelta must
// re-run what the edit touched, and the restored generated tables.
const oracleEvery = 63

// edit is one DML statement and the statement that undoes it.
type edit struct {
	table, sql, undo string
}

// editGen draws seeded single-row edits from the generated tables.
type editGen struct {
	rng    *rand.Rand
	tables []*snapshotTable
	turn   int
}

func newEditGen(seed int64, db tableLookup) (*editGen, error) {
	g := &editGen{rng: rand.New(rand.NewSource(seed))}
	for _, name := range controllerNames() {
		t, ok := db.Table(name)
		if !ok {
			return nil, fmt.Errorf("table %s missing", name)
		}
		g.tables = append(g.tables, snapshot(t))
	}
	return g, nil
}

// next draws an edit: a cell UPDATE, a row INSERT or a row DELETE, each
// touching exactly one row. Tables and kinds take turns, so every seed
// draws the same mix and only the rows and values differ.
func (g *editGen) next() edit {
	t := g.tables[g.turn%len(g.tables)]
	kind := g.turn / len(g.tables) % 3
	g.turn++
	for {
		if e, ok := g.draw(t, kind); ok {
			return e
		}
	}
}

// update draws a cell UPDATE on the named table, which must exist.
func (g *editGen) update(name string) edit {
	for {
		for _, t := range g.tables {
			if t.name != name {
				continue
			}
			if e, ok := g.draw(t, 0); ok {
				return e
			}
		}
	}
}

// draw tries to build an edit of the given kind (0 UPDATE, 1 INSERT,
// 2 DELETE) on a random row of t; it fails when the draw would not
// address exactly one row.
func (g *editGen) draw(t *snapshotTable, kind int) (edit, bool) {
	row := t.rows[g.rng.Intn(len(t.rows))]
	if t.keys[rowKey(row)] != 1 {
		return edit{}, false // duplicate rows cannot be addressed one at a time
	}
	if kind == 2 {
		return edit{t.name,
			"DELETE FROM " + t.name + " WHERE " + rowMatch(t.cols, row),
			"INSERT INTO " + t.name + " VALUES (" + rowValues(row) + ")"}, true
	}
	j := g.rng.Intn(len(t.cols))
	dom := t.domains[j]
	v := dom[g.rng.Intn(len(dom))]
	changed := append(row[:0:0], row...)
	changed[j] = v
	if t.keys[rowKey(changed)] != 0 {
		return edit{}, false // no change, or a duplicate of another row
	}
	if kind == 0 {
		return edit{t.name,
			"UPDATE " + t.name + " SET " + t.cols[j] + " = " + v.Quoted() + " WHERE " + rowMatch(t.cols, row),
			"UPDATE " + t.name + " SET " + t.cols[j] + " = " + row[j].Quoted() + " WHERE " + rowMatch(t.cols, changed)}, true
	}
	return edit{t.name,
		"INSERT INTO " + t.name + " VALUES (" + rowValues(changed) + ")",
		"DELETE FROM " + t.name + " WHERE " + rowMatch(t.cols, changed)}, true
}

// editBench is the edit-check workload's state after set-up.
type editBench struct {
	db     *sqlmini.DB
	suite  *check.Suite
	rev    *sqlmini.Revision
	prev   []check.Result
	gen    *editGen
	golden uint64
	// undo is the statement that restores the generated tables, or ""
	// when they are restored.
	undo, undoTable string
	edits           int
}

// editSetup generates the tables and runs the baseline suite, o.setups
// times, and returns the last set-up with the time each took.
func editSetup(o options) (*editBench, []float64, error) {
	var b *editBench
	var setup []float64
	for i := 0; i < max(o.setups, 1); i++ {
		t0 := time.Now()
		p := core.New()
		if err := p.Generate(); err != nil {
			return nil, nil, err
		}
		suite := check.ProtocolSuite()
		prev := suite.Run(p.DB, check.Options{})
		setup = append(setup, time.Since(t0).Seconds())
		if s := check.Summarize(prev); s.Passed != suite.Len() {
			return nil, nil, fmt.Errorf("baseline suite: %s", s)
		}
		b = &editBench{db: p.DB, suite: suite, prev: prev}
		// Return the garbage of this and any discarded set-up to the OS,
		// so the next set-up starts from a heap like a fresh process's.
		debug.FreeOSMemory()
	}
	var err error
	if b.golden, err = tablesHash(b.db); err != nil {
		return nil, nil, err
	}
	if o.corrupt {
		b.golden ^= 1
	}
	if b.gen, err = newEditGen(o.seed, b.db); err != nil {
		return nil, nil, err
	}
	b.rev = b.db.BeginRevision()
	return b, setup, nil
}

// editTiming is the split of one edit round trip.
type editTiming struct {
	dml, commit, runDelta time.Duration
	dmlRT, runDeltaRT     rtStat
	rechecked             int
	table                 string
}

// step applies the next statement — the pending undo, or a fresh edit —
// then commits and re-checks incrementally. With split set it also times
// each layer and reads the allocation counters around them.
func (b *editBench) step(split bool) (editTiming, error) {
	var tm editTiming
	sql := b.undo
	if sql == "" {
		e := b.gen.next()
		sql, b.undo, b.undoTable = e.sql, e.undo, e.table
		tm.table = e.table
	} else {
		tm.table = b.undoTable
		b.undo = ""
	}
	b.edits++
	var r0 rtStat
	if split {
		r0 = readRT()
	}
	t0 := time.Now()
	res, err := b.db.Exec(sql)
	t1 := time.Now()
	var r1 rtStat
	if split {
		r1 = readRT()
		tm.dmlRT = r1.sub(r0)
	}
	d := b.rev.Commit()
	t2 := time.Now()
	if split {
		r1 = readRT()
	}
	b.prev = b.suite.RunDelta(b.db, b.prev, d, check.Options{})
	t3 := time.Now()
	if split {
		tm.runDeltaRT = readRT().sub(r1)
	}
	tm.dml, tm.commit, tm.runDelta = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	for _, r := range b.prev {
		if !r.Skipped {
			tm.rechecked++
		}
	}
	if err != nil {
		return tm, fmt.Errorf("%s: %w", sql, err)
	}
	if res.Affected != 1 {
		return tm, fmt.Errorf("%s: %d rows affected, want 1", sql, res.Affected)
	}
	return tm, nil
}

// verify is the periodic oracle: the incremental results must render
// exactly as a fresh full run over the same tables. It returns the full
// run's duration.
func (b *editBench) verify() (time.Duration, error) {
	t0 := time.Now()
	fresh := b.suite.Run(b.db, check.Options{})
	el := time.Since(t0)
	if got, want := renderResults(b.prev), renderResults(fresh); got != want {
		return el, fmt.Errorf("incremental results after %d edits differ from a full run:\n%s\nfull:\n%s", b.edits, got, want)
	}
	return el, nil
}

// finish undoes the pending edit, if any, and checks that the tables are
// back to the generated ones.
func (b *editBench) finish(rep *report) {
	if b.undo != "" {
		_, err := b.step(false)
		rep.op(err)
	}
	h, err := tablesHash(b.db)
	if err == nil && h != b.golden {
		err = fmt.Errorf("tables hash to %x after the final undo, golden %x", h, b.golden)
	}
	if err != nil {
		rep.fail(err)
	}
}

// loop runs edits for dur, verifying every oracleEvery statements outside the
// timed region, and returns the per-edit timings and the bytes the edits
// allocated.
func (b *editBench) loop(dur time.Duration, split bool, rep *report) ([]editTiming, uint64, samples) {
	var out []editTiming
	var alloc uint64
	var full samples
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) || len(out) < oracleEvery {
		before := readRT()
		for i := 0; i < oracleEvery; i++ {
			tm, err := b.step(split)
			rep.op(err)
			out = append(out, tm)
		}
		alloc += readRT().sub(before).allocBytes
		el, err := b.verify()
		if err != nil {
			rep.fail(err)
		}
		full = append(full, el)
	}
	return out, alloc, full
}

func total(tm editTiming) time.Duration { return tm.dml + tm.commit + tm.runDelta }

// warmEdits is how many statements run before timing starts. It is
// even, so timing starts on the generated tables.
const warmEdits = 256

func runEditCheck(o options) (*report, error) {
	b, setup, err := editSetup(o)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	for i := 0; i < warmEdits; i++ {
		_, err := b.step(false)
		rep.op(err)
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	tms, alloc, _ := b.loop(o.dur, false, rep)
	b.finish(rep)
	lat := make(samples, len(tms))
	for i, tm := range tms {
		lat[i] = total(tm)
	}
	rep.set("setup_s", median(setup))
	rep.set("op_us_p50", lat.p50())
	rep.set("op_us_p90", lat.quantile(0.90))
	rep.set("alloc_kb_per_op", float64(alloc)/float64(len(tms))/1024)
	rep.set("max_rss_mb", maxRSSMB())
	return rep, nil
}

// traceEditCheck runs the edit loop untraced for o.dur, then for o.dur
// with DML, commit and incremental re-check timed separately.
func traceEditCheck(o options, rep *report) error {
	b, _, err := editSetup(options{seed: o.seed})
	if err != nil {
		return err
	}
	for i := 0; i < warmEdits; i++ {
		_, err := b.step(false)
		rep.op(err)
	}
	plainTms, _, _ := b.loop(o.dur, false, rep)
	tms, _, full := b.loop(o.dur, true, rep)
	b.finish(rep)

	var plain, lat, dml, commit, rdD, rdOther, rd samples
	var rechecked, dmlKB, rdKB []float64
	for _, tm := range plainTms {
		plain = append(plain, total(tm))
	}
	suiteLen := float64(b.suite.Len())
	var skipped float64
	for _, tm := range tms {
		lat = append(lat, total(tm))
		dml = append(dml, tm.dml)
		commit = append(commit, tm.commit)
		rd = append(rd, tm.runDelta)
		if tm.table == protocol.DirectoryTable {
			rdD = append(rdD, tm.runDelta)
		} else {
			rdOther = append(rdOther, tm.runDelta)
		}
		rechecked = append(rechecked, float64(tm.rechecked))
		skipped += (suiteLen - float64(tm.rechecked)) / suiteLen
		dmlKB = append(dmlKB, float64(tm.dmlRT.allocBytes)/1024)
		rdKB = append(rdKB, float64(tm.runDeltaRT.allocBytes)/1024)
	}
	rep.set("edit_us_p99", plain.p99())
	rep.set("sqlmini.dml_us_p50", dml.p50())
	rep.set("sqlmini.dml_us_p99", dml.p99())
	rep.set("delta.commit_us_p50", commit.p50())
	rep.set("check.run_delta_us_p50.D", rdD.p50())
	rep.set("check.run_delta_us_p50.other", rdOther.p50())
	rep.set("check.run_delta_us_p99", rd.p99())
	rep.set("check.rechecked_per_edit", mean(rechecked))
	rep.set("check.skip_ratio", skipped/float64(len(tms)))
	rep.set("check.full_run_us", full.p50())
	rep.set("runtime.alloc_kb.dml", mean(dmlKB))
	rep.set("runtime.alloc_kb.run_delta", mean(rdKB))
	rep.set("trace.overhead_ratio.edit-check", lat.p50()/plain.p50())
	return nil
}
