package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coherdb/internal/check"
	"coherdb/internal/core"
	"coherdb/internal/obs"
	"coherdb/internal/protocol"
	"coherdb/internal/server"
	"coherdb/internal/sqlmini"
)

// The server workload: an in-process server.Server over the generated
// protocol, driven by two line-protocol connections. A reader cycles
// through the invariant queries; a writer loops \begin, an UPDATE of one
// D cell that the next iteration undoes, and \recheck.

// recheckWorkers runs each \recheck inline on its session's goroutine, so
// that the reader and the writer each keep one CPU of a two-CPU host
// instead of the writer's re-check fanning out over both.
const recheckWorkers = 1

// lineClient is one line-protocol connection.
type lineClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// errTransport marks a failed connection, after which a loop stops.
var errTransport = errors.New("connection failed")

func dialLine(addr string) (*lineClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &lineClient{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriter(conn)}
	if err := conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		conn.Close()
		return nil, err
	}
	greeting, err := c.response()
	if err != nil || !strings.HasPrefix(greeting, "ok coherdb") {
		conn.Close()
		return nil, fmt.Errorf("greeting %q: %v", greeting, err)
	}
	return c, nil
}

// cmd sends one protocol line and returns the response body without its
// "." terminator.
func (c *lineClient) cmd(line string) (string, error) {
	c.w.WriteString(line)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return "", fmt.Errorf("%w: %v", errTransport, err)
	}
	return c.response()
}

func (c *lineClient) response() (string, error) {
	var sb strings.Builder
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return sb.String(), fmt.Errorf("%w: %v", errTransport, err)
		}
		if line == ".\n" {
			return sb.String(), nil
		}
		sb.WriteString(line)
	}
}

// serverBench is the server workload's state after set-up.
type serverBench struct {
	db     *sqlmini.DB
	suite  *check.Suite
	srv    *server.Server
	reader *lineClient
	writer *lineClient
	// queries are the invariant queries on one line each.
	queries []string
	start   int
	// answers[s][i] is the response to queries[i] with D in state s: 0
	// as generated, 1 after the writer's UPDATE.
	answers [2][]string
	// rechecks[s] is the \recheck response with D in state s.
	rechecks [2]string
	// toggles[s] moves D from state s to the other state.
	toggles [2]string
	state   int
	golden  uint64
}

// serve starts a server over b.db and dials the reader and the writer.
func (b *serverBench) serve(reg *obs.Registry) error {
	b.srv = server.New(server.Config{DB: b.db, Suite: b.suite, Workers: recheckWorkers, Metrics: reg})
	if err := b.srv.Serve("127.0.0.1:0"); err != nil {
		return err
	}
	var err error
	if b.reader, err = dialLine(b.srv.Addr()); err != nil {
		b.close()
		return err
	}
	if b.writer, err = dialLine(b.srv.Addr()); err != nil {
		b.close()
		return err
	}
	return nil
}

// close hangs up both connections and shuts the server down.
func (b *serverBench) close() {
	for _, c := range []*lineClient{b.reader, b.writer} {
		if c != nil {
			c.conn.Close()
		}
	}
	b.reader, b.writer = nil, nil
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = b.srv.Shutdown(ctx) // past the deadline Shutdown cuts the connections itself
		b.srv = nil
	}
}

// serverSetup generates the tables, serves them and dials both
// connections, o.setups times, keeping the last; then it precomputes the
// answers for both states of D in-process.
func serverSetup(o options) (*serverBench, []float64, error) {
	var b *serverBench
	var setup []float64
	for i := 0; i < max(o.setups, 1); i++ {
		if b != nil {
			b.close()
			b = nil
			debug.FreeOSMemory() // as in editSetup
		}
		t0 := time.Now()
		p := core.New()
		if err := p.Generate(); err != nil {
			return nil, nil, err
		}
		b = &serverBench{db: p.DB, suite: check.ProtocolSuite()}
		if err := b.serve(nil); err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	if err := b.precompute(o); err != nil {
		b.close()
		return nil, nil, err
	}
	debug.FreeOSMemory() // as in editSetup
	return b, setup, nil
}

// precompute draws the writer's UPDATE from the seed and computes every
// reader and \recheck answer for both states of D directly on the
// database, before any load runs.
func (b *serverBench) precompute(o options) error {
	var err error
	if b.golden, err = tablesHash(b.db); err != nil {
		return err
	}
	gen, err := newEditGen(o.seed, b.db)
	if err != nil {
		return err
	}
	e := gen.update(protocol.DirectoryTable)
	b.toggles = [2]string{e.sql, e.undo}
	for _, inv := range b.suite.Invariants() {
		b.queries = append(b.queries, collapseSQL(inv.SQL))
	}
	b.start = rand.New(rand.NewSource(o.seed)).Intn(len(b.queries))
	for s := 0; s < 2; s++ {
		for _, q := range b.queries {
			res, err := b.db.Exec(q)
			if err != nil {
				return fmt.Errorf("%s: %w", q, err)
			}
			b.answers[s] = append(b.answers[s], res.Table.String())
		}
		b.rechecks[s] = recheckResponse(b.suite.Run(b.db, check.Options{}))
		res, err := b.db.Exec(b.toggles[s])
		if err != nil {
			return fmt.Errorf("%s: %w", b.toggles[s], err)
		}
		if res.Affected != 1 {
			return fmt.Errorf("%s: %d rows affected, want 1", b.toggles[s], res.Affected)
		}
	}
	if h, err := tablesHash(b.db); err != nil || h != b.golden {
		return fmt.Errorf("D not restored after precomputing answers: %v", err)
	}
	if o.corrupt {
		b.golden ^= 1
		for s := range b.answers {
			for i := range b.answers[s] {
				b.answers[s][i] += "corrupt"
			}
			b.rechecks[s] += "corrupt"
		}
	}
	return nil
}

// recheckResponse renders a full re-check the way the server answers
// \recheck right after \begin: every invariant re-checked, none skipped.
func recheckResponse(results []check.Result) string {
	sum := check.Summarize(results)
	out := fmt.Sprintf("recheck: %d rechecked, %d skipped; %d passed, %d failed, %d errors\n",
		len(results), 0, sum.Passed, sum.Failed, sum.Errors)
	for _, r := range results {
		if r.Err != nil {
			out += fmt.Sprintf("ERROR %s: %v\n", r.Invariant.Name, r.Err)
		} else if !r.Passed() {
			out += fmt.Sprintf("VIOLATED %s: %d rows\n", r.Invariant.Name, r.Violations.NumRows())
		}
	}
	return out
}

// checkRead is the reader oracle: a response must be the answer for one
// of D's two states.
func (b *serverBench) checkRead(i int, resp string) error {
	if resp != b.answers[0][i] && resp != b.answers[1][i] {
		return fmt.Errorf("query %d answered %q", i, resp)
	}
	return nil
}

// writeIter runs one writer iteration over the wire and returns its
// round-trip time.
func (b *serverBench) writeIter() (time.Duration, error) {
	s := b.state
	t0 := time.Now()
	begin, err := b.writer.cmd(`\begin`)
	if err != nil {
		return 0, err
	}
	upd, err := b.writer.cmd(b.toggles[s])
	if err != nil {
		return 0, err
	}
	rc, err := b.writer.cmd(`\recheck`)
	if err != nil {
		return 0, err
	}
	el := time.Since(t0)
	if begin != "ok begin\n" || upd != "ok (1 rows affected)\n" {
		return el, fmt.Errorf("writer: %q, %q", begin, upd)
	}
	b.state = 1 - s
	if rc != b.rechecks[b.state] {
		return el, fmt.Errorf("recheck answered %q", rc)
	}
	return el, nil
}

// wireResult is what one timed window over the wire measured.
type wireResult struct {
	reads, writes samples
	allocBytes    uint64
}

// statements counts the protocol lines both sessions sent.
func (w wireResult) statements() int { return len(w.reads) + 3*len(w.writes) }

// concurrently runs the reader and writer loops on two goroutines for
// dur; each loop records into its own report, merged into rep at the end.
func concurrently(dur time.Duration, rep *report, read, write func() (time.Duration, error)) (reads, writes samples) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	reps := [2]*report{newReport(), newReport()}
	lats := [2]*samples{&reads, &writes}
	for k, f := range []func() (time.Duration, error){read, write} {
		wg.Add(1)
		go func(r *report, lat *samples, f func() (time.Duration, error)) {
			defer wg.Done()
			for !stop.Load() {
				el, err := f()
				r.op(err)
				if errors.Is(err, errTransport) {
					return
				}
				*lat = append(*lat, el)
			}
		}(reps[k], lats[k], f)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	for _, r := range reps {
		rep.attempted += r.attempted
		rep.failed += r.failed
		if rep.firstFailure == "" {
			rep.firstFailure = r.firstFailure
		}
	}
	return reads, writes
}

// wire runs the reader and the writer over the line protocol for dur.
func (b *serverBench) wire(dur time.Duration, rep *report) wireResult {
	deadline := time.Now().Add(dur + time.Minute)
	_ = b.reader.conn.SetDeadline(deadline) // a failed deadline shows as a failed command
	_ = b.writer.conn.SetDeadline(deadline)
	i := b.start
	before := readRT()
	reads, writes := concurrently(dur, rep,
		func() (time.Duration, error) {
			q := i % len(b.queries)
			i++
			t0 := time.Now()
			resp, err := b.reader.cmd(b.queries[q])
			el := time.Since(t0)
			if err != nil {
				return el, err
			}
			return el, b.checkRead(q, resp)
		},
		b.writeIter)
	b.start = i
	return wireResult{reads: reads, writes: writes, allocBytes: readRT().sub(before).allocBytes}
}

// finish returns D to its generated state and checks it hashes so.
func (b *serverBench) finish(rep *report) {
	if b.state == 1 && b.writer != nil {
		_, err := b.writeIter()
		rep.op(err)
	}
	h, err := tablesHash(b.db)
	if err == nil && h != b.golden {
		err = fmt.Errorf("tables hash to %x at the end, golden %x", h, b.golden)
	}
	if err != nil {
		rep.fail(err)
	}
}

func runServer(o options) (*report, error) {
	b, setup, err := serverSetup(o)
	if err != nil {
		return nil, err
	}
	defer b.close()
	rep := newReport()
	b.wire(time.Second, rep)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	w := b.wire(o.dur, rep)
	b.finish(rep)
	rep.set("setup_s", median(setup))
	rep.set("op_us_p50", w.reads.p50())
	rep.set("op_us_p90", w.reads.quantile(0.90))
	rep.set("alloc_kb_per_op", float64(w.allocBytes)/float64(w.statements())/1024)
	rep.set("max_rss_mb", maxRSSMB())
	return rep, nil
}

// traceServer runs the wire workload untraced for o.dur, then for o.dur/2
// on a server with a metrics registry, then replays the same statement
// mix for o.dur/2 in-process through two sqlmini sessions.
func traceServer(o options, rep *report) error {
	b, _, err := serverSetup(options{seed: o.seed})
	if err != nil {
		return err
	}
	defer b.close()
	b.wire(time.Second, rep)
	plain := b.wire(o.dur, rep)

	b.close()
	reg := obs.NewRegistry()
	if err := b.serve(reg); err != nil {
		return err
	}
	epoch0, stats0 := b.db.Epoch(), b.db.Stats()
	traced := b.wire(o.dur/2, rep)
	epoch1, stats1 := b.db.Epoch(), b.db.Stats()
	b.finish(rep)
	hits := float64(stats1.PlanCacheHits - stats0.PlanCacheHits)
	misses := float64(stats1.PlanCacheMisses - stats0.PlanCacheMisses)

	sessReads, updates, rechecks := b.sessions(o.dur/2, rep)
	b.finish(rep)

	rep.set("read_us_p99", plain.reads.p99())
	rep.set("write_us_p50", plain.writes.p50())
	rep.set("sqlmini.session_read_us_p50", sessReads.p50())
	rep.set("sqlmini.session_read_us_p99", sessReads.p99())
	rep.set("server.read_overhead_us_p50", plain.reads.p50()-sessReads.p50())
	rep.set("sqlmini.session_update_us_p50", updates.p50())
	rep.set("check.session_recheck_us_p50", rechecks.p50())
	rep.set("server.statements", float64(reg.Counter("coherdb_server_statements_total").Value()))
	rep.set("server.rechecks", float64(reg.Counter("coherdb_server_rechecks_total").Value()))
	rep.set("rel.epochs_published", float64(epoch1-epoch0))
	rep.set("sqlmini.plan_cache_hit_ratio.server", hits/(hits+misses))
	rep.set("trace.overhead_ratio.server", traced.reads.p50()/plain.reads.p50())
	return nil
}

// sessions replays the server's statement mix in-process: a reader
// session runs the invariant queries and renders their tables as the
// server would; a writer session brackets each UPDATE with
// BeginRevision, Commit and a RunDelta from no previous results.
func (b *serverBench) sessions(dur time.Duration, rep *report) (reads, updates, rechecks samples) {
	rs, ws := b.db.NewSession(), b.db.NewSession()
	defer rs.Close()
	defer ws.Close()
	i := b.start
	reads, _ = concurrently(dur, rep,
		func() (time.Duration, error) {
			q := i % len(b.queries)
			i++
			t0 := time.Now()
			res, err := rs.Exec(b.queries[q])
			if err != nil {
				return time.Since(t0), err
			}
			body := res.Table.String()
			el := time.Since(t0)
			return el, b.checkRead(q, body)
		},
		func() (time.Duration, error) {
			s := b.state
			rev := ws.BeginRevision()
			t0 := time.Now()
			res, err := ws.Exec(b.toggles[s])
			t1 := time.Now()
			if err != nil {
				return t1.Sub(t0), err
			}
			results := b.suite.RunDelta(ws, nil, rev.Commit(), check.Options{Workers: recheckWorkers})
			t2 := time.Now()
			updates = append(updates, t1.Sub(t0))
			rechecks = append(rechecks, t2.Sub(t1))
			if res.Affected != 1 {
				return t2.Sub(t0), fmt.Errorf("%s: %d rows affected, want 1", b.toggles[s], res.Affected)
			}
			b.state = 1 - s
			if got := recheckResponse(results); got != b.rechecks[b.state] {
				return t2.Sub(t0), fmt.Errorf("session recheck answered %q", got)
			}
			return t2.Sub(t0), nil
		})
	b.start = i
	return reads, updates, rechecks
}
