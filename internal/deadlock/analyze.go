package deadlock

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"coherdb/internal/obs"
	"coherdb/internal/rel"
	"coherdb/internal/sqlmini"
)

// Options tunes the analysis.
type Options struct {
	// Relaxed ignores messages when matching input and output assignments
	// during composition, capturing transaction interleavings (§4.1).
	// The paper's final method uses the relaxation; it defaults to on.
	Relaxed bool
	// NoPlacements disables the four merging quad-placement relations
	// (ablation: only L≠H≠R is considered). The Fig. 4 deadlock is
	// invisible without placements.
	NoPlacements bool
	// Closure repeatedly composes the protocol table with itself until no
	// new dependencies are added. The paper's first attempt used a
	// transitive closure and "abandoned [it] due to the excessive number
	// of spurious cycles"; it is kept as an ablation.
	Closure bool
	// Workers bounds the morsel parallelism of the analysis statements
	// (sqlmini.DB.SetWorkers); 0 means the shared pool's full size.
	Workers int
	// Label names the channel assignment in spans and metrics; empty
	// means the V table's own name. AnalyzeStory sets it per assignment.
	Label string
	// Tracer, when set, receives one "deadlock.analyze" span per analysis
	// carrying the Stats, and one "sql.stmt" span per analysis statement.
	Tracer obs.Tracer
	// Metrics, when set, records graph-size gauges (coherdb_vcg_nodes,
	// coherdb_vcg_edges, coherdb_vcg_cycles) and a cycle-search duration
	// histogram, labelled by assignment. It is not installed on the
	// analysis database: that database's catalog-epoch gauge would
	// overwrite the caller's.
	Metrics *obs.Registry
}

// DefaultOptions returns the paper's final configuration.
func DefaultOptions() Options { return Options{Relaxed: true} }

// Stats reports the work done by one analysis. The row counts are those
// of the analysis statements.
type Stats struct {
	// ControllerRows counts the individual controller dependency rows.
	ControllerRows int
	// PlacementRows counts the distinct rows of the placement sets.
	PlacementRows int
	// ComposedRows counts the rows the composition joins produced, over
	// every round, before duplicate dependencies collapse.
	ComposedRows int
	// ProtocolRows counts the distinct protocol dependency rows.
	ProtocolRows int
	// Rounds counts composition rounds: 1, plus the closure's rounds.
	Rounds int
	// Nodes and Edges are the virtual channel graph size; Cycles the
	// number of elementary cycles found in it.
	Nodes, Edges, Cycles int
	Elapsed              time.Duration
	// CycleElapsed is the portion of Elapsed spent in cycle search.
	CycleElapsed time.Duration
}

// Report is the outcome of one deadlock analysis.
type Report struct {
	Graph    *VCG
	Cycles   []Cycle
	Protocol []DepRow
	Stats    Stats
}

// Deadlocked reports whether any cycle was found.
func (r *Report) Deadlocked() bool { return len(r.Cycles) > 0 }

// ProtocolTable materializes the protocol dependency table as a relation.
func (r *Report) ProtocolTable() *rel.Table {
	return DepTable("protocol_deps", r.Protocol)
}

// Analyze runs the §4.1 method the way the paper did, inside a relational
// database: the individual controller dependency tables are joins against
// V, the quad placements are projections substituting role names, the
// pairwise composition is a self-join on the channel-assignment columns,
// and the VCG is the (vc1, vc2) projection of the protocol table. Each
// analysis runs in a private database, so the caller's database never
// sees V or the intermediate tables.
func Analyze(controllers []*rel.Table, v *rel.Table, opts Options) (_ *Report, err error) {
	start := time.Now()
	label := opts.Label
	if label == "" {
		label = v.Name()
	}
	span := obs.StartSpan(opts.Tracer, "deadlock.analyze", obs.String("assignment", label))
	defer func() {
		if err != nil {
			span.SetAttr(obs.String("error", err.Error()))
		}
		span.Finish()
	}()
	if err := validateAssignment(v); err != nil {
		return nil, err
	}
	db := analysisDB(opts)
	stats, err := runAnalysis(db, controllers, v, opts)
	if err != nil {
		return nil, err
	}
	protocol := depRows(db.MustTable("protocol"))

	g := NewVCG(protocol)
	cycleStart := time.Now()
	cycles := g.Cycles()
	stats.CycleElapsed = time.Since(cycleStart)
	stats.Nodes = len(g.Nodes())
	stats.Edges = len(g.Edges())
	stats.Cycles = len(cycles)
	stats.Elapsed = time.Since(start)
	span.SetAttr(
		obs.Int("protocol_rows", stats.ProtocolRows),
		obs.Int("nodes", stats.Nodes),
		obs.Int("edges", stats.Edges),
		obs.Int("cycles", stats.Cycles),
		obs.Duration("cycle_elapsed", stats.CycleElapsed),
	)
	opts.observe(label, stats)
	return &Report{
		Graph:    g,
		Cycles:   cycles,
		Protocol: protocol,
		Stats:    stats,
	}, nil
}

// analysisDB returns an empty database configured for one analysis, with
// cat — string concatenation, NULL if any argument is NULL — registered
// for building row provenance.
func analysisDB(opts Options) *sqlmini.DB {
	db := sqlmini.NewDB()
	db.SetWorkers(opts.Workers)
	db.SetTracer(opts.Tracer)
	db.Register("cat", func(args []rel.Value) (rel.Value, error) {
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return rel.Null(), nil
			}
			sb.WriteString(a.Str())
		}
		return rel.S(sb.String()), nil
	})
	return db
}

// runAnalysis installs the controllers and V in db and leaves the protocol
// dependency table in db as "protocol", with the 8 dependency columns plus
// origin. The intermediate tables stay inspectable: deps (the individual
// controller tables), placed (the placement sets), and the last round's
// lefts and rights (the join's two sides) and steps (its rows before
// duplicates collapse).
func runAnalysis(db *sqlmini.DB, controllers []*rel.Table, v *rel.Table, opts Options) (Stats, error) {
	var stats Stats
	db.PutTable(v.Clone().SetName("V"))
	for _, t := range controllers {
		db.PutTable(t)
	}
	deps, err := depsSQL(controllers)
	if err != nil {
		return stats, err
	}
	placements := Placements()
	if opts.NoPlacements {
		placements = placements[:1]
	}
	exec := func(what, stmt string) (int, error) {
		res, err := db.Exec(stmt)
		if err != nil {
			return 0, fmt.Errorf("deadlock: SQL %s: %w", what, err)
		}
		return res.Affected, nil
	}
	if stats.ControllerRows, err = exec("controller dependencies", deps); err != nil {
		return stats, err
	}
	if stats.PlacementRows, err = exec("placements", placementSQL(placements)); err != nil {
		return stats, err
	}
	// One composition round: src composed with itself into steps, then
	// collapsed into the protocol table.
	compose := func(src string, c composition) error {
		for _, name := range []string{"lefts", "rights", "steps"} {
			db.DropTable(name)
		}
		for _, stmt := range append(c.sidesSQL(src, src), c.stepsSQL(src)) {
			if _, err := exec("composition", stmt); err != nil {
				return err
			}
		}
		stats.ComposedRows += db.MustTable("steps").NumRows() - db.MustTable(src).NumRows()
		db.DropTable("protocol")
		var err error
		stats.ProtocolRows, err = exec("protocol table", collapseSQL)
		stats.Rounds++
		return err
	}
	// Pairwise composition within each placement set.
	if err := compose("placed", composition{relaxed: opts.Relaxed, perPlacement: true}); err != nil {
		return stats, err
	}
	// Optional closure (the paper's abandoned first attempt): compose the
	// whole protocol table with itself until the row count stops changing.
	for opts.Closure {
		before := stats.ProtocolRows
		if err := compose("protocol", composition{relaxed: opts.Relaxed}); err != nil {
			return stats, err
		}
		if stats.ProtocolRows == before {
			break
		}
	}
	return stats, nil
}

// depsSQL derives the individual controller dependency tables (§4.1:
// "One entry is added for each outgoing message") into deps: one join
// against V per controller and output message group. A row is produced
// only when both its input and output hop are assigned a channel;
// unassigned hops travel over dedicated or node-internal paths.
func depsSQL(controllers []*rel.Table) (string, error) {
	var arms []string
	for _, t := range controllers {
		in, outs, err := msgGroups(t)
		if err != nil {
			return "", err
		}
		for _, g := range outs {
			arms = append(arms, fmt.Sprintf(
				`SELECT t.%[2]s AS m1, t.%[2]ssrc AS s1, t.%[2]sdest AS d1, vin.v AS vc1,
				        t.%[3]s AS m2, t.%[3]ssrc AS s2, t.%[3]sdest AS d2, vout.v AS vc2,
				        '%[1]s' AS origin
				 FROM %[1]s t
				 JOIN V vin  ON t.%[2]s = vin.m  AND t.%[2]ssrc = vin.s  AND t.%[2]sdest = vin.d
				 JOIN V vout ON t.%[3]s = vout.m AND t.%[3]ssrc = vout.s AND t.%[3]sdest = vout.d`,
				t.Name(), in, g))
		}
	}
	return "CREATE TABLE deps AS " + strings.Join(arms, " UNION ALL "), nil
}

// depKey is the 8 dependency columns as a select or GROUP BY list.
var depKey = strings.Join(depCols, ", ")

// roleCols are the dependency columns that hold node roles.
var roleCols = map[string]bool{"s1": true, "d1": true, "s2": true, "d2": true}

// placementSQL builds the placement sets into placed: one projection of
// deps per placement, numbered p, substituting the identified roles in
// the source and destination columns. Channels are kept: co-located roles
// share the physical link, which is exactly what makes the dependency
// arise (§4.1). Rows that become equal collapse, and every origin gains
// its placement, as in "D@L!=H=R".
func placementSQL(placements []Placement) string {
	arms := make([]string, len(placements))
	for i, p := range placements {
		from := make([]string, 0, len(p.Subst))
		for role := range p.Subst {
			from = append(from, role)
		}
		sort.Strings(from)
		cols := make([]string, len(depCols))
		items := make([]string, len(depCols))
		for j, col := range depCols {
			cols[j] = col
			if len(from) > 0 && roleCols[col] {
				expr := "CASE "
				for _, role := range from {
					expr += fmt.Sprintf("WHEN %s = '%s' THEN '%s' ", col, role, p.Subst[role])
				}
				cols[j] = expr + "ELSE " + col + " END"
			}
			items[j] = cols[j] + " AS " + col
		}
		arms[i] = fmt.Sprintf("SELECT %d AS p, %s, MIN(cat(origin, '@%s')) AS origin FROM deps GROUP BY %s",
			i, strings.Join(items, ", "), p.Name, strings.Join(cols, ", "))
	}
	return "CREATE TABLE placed AS " + strings.Join(arms, " UNION ALL ")
}

// composition is the shape of one composition round (§4.1): for rows
// R=(R1,R2) of the left table and S=(S3,S4) of the right one, if R2
// matches S3 the row (R1,S4) is produced. Relaxed matching ignores the
// message — two different transactions' messages meeting on the same
// channel between the same endpoints — and within placement sets the
// rows must also share their placement p.
type composition struct{ relaxed, perPlacement bool }

// key returns the columns of R2 and of S3 that must match, pairwise.
func (c composition) key() (out, in []string) {
	out, in = []string{"s2", "d2", "vc2"}, []string{"s1", "d1", "vc1"}
	if !c.relaxed {
		out, in = append([]string{"m2"}, out...), append([]string{"m1"}, in...)
	}
	if c.perPlacement {
		out, in = append([]string{"p"}, out...), append([]string{"p"}, in...)
	}
	return out, in
}

// sidesSQL projects left onto R1 and the key into lefts, and right onto
// the key and S4 into rights, one row per distinct projection named by
// its least origin. The join then pairs distinct halves instead of every
// pair of rows that share them.
func (c composition) sidesSQL(left, right string) []string {
	out, in := c.key()
	side := func(dst, src string, cols []string) string {
		list := strings.Join(cols, ", ")
		return fmt.Sprintf("CREATE TABLE %s AS SELECT %s, MIN(origin) AS origin FROM %s GROUP BY %s",
			dst, list, src, list)
	}
	return []string{
		side("lefts", left, append([]string{"m1", "s1", "d1", "vc1"}, out...)),
		side("rights", right, append(in, "m2", "s2", "d2", "vc2")),
	}
}

// joinSQL selects the composed rows of lefts and rights, with lo and ro
// naming their two halves.
func (c composition) joinSQL() string {
	out, in := c.key()
	on := make([]string, len(out))
	for i := range out {
		on[i] = fmt.Sprintf("a.%s = b.%s", out[i], in[i])
	}
	return `SELECT a.m1 AS m1, a.s1 AS s1, a.d1 AS d1, a.vc1 AS vc1,
		b.m2 AS m2, b.s2 AS s2, b.d2 AS d2, b.vc2 AS vc2, a.origin AS lo, b.origin AS ro
		FROM lefts a JOIN rights b ON ` + strings.Join(on, " AND ")
}

// stepsSQL builds one composition round into steps: the rows of src
// unchanged (ro is NULL) followed by the composed rows.
func (c composition) stepsSQL(src string) string {
	return fmt.Sprintf("CREATE TABLE steps AS SELECT %s, origin AS lo, NULL AS ro FROM %s UNION ALL %s",
		depKey, src, c.joinSQL())
}

// collapseSQL collapses steps into the protocol table: one row per
// distinct dependency, named by the least of its derivations — a
// composed row's origin is lo*ro — so the choice does not depend on row
// order.
var collapseSQL = fmt.Sprintf(
	"CREATE TABLE protocol AS SELECT %[1]s, MIN(coalesce2(cat(lo, '*', ro), lo)) AS origin FROM steps GROUP BY %[1]s",
	depKey)

// depRows reads a dependency table (the 8 dependency columns plus origin).
func depRows(t *rel.Table) []DepRow {
	idx := make([]int, len(depCols)+1)
	for j, c := range append(append([]string{}, depCols...), "origin") {
		idx[j] = t.ColIndex(c)
	}
	str := func(i, j int) string { return t.At(i, idx[j]).Str() }
	rows := make([]DepRow, t.NumRows())
	for i := range rows {
		rows[i] = DepRow{
			In:     VAssign{M: str(i, 0), S: str(i, 1), D: str(i, 2), VC: str(i, 3)},
			Out:    VAssign{M: str(i, 4), S: str(i, 5), D: str(i, 6), VC: str(i, 7)},
			Origin: str(i, 8),
		}
	}
	return rows
}

// observe reports a finished analysis to the metrics registry.
func (o Options) observe(label string, stats Stats) {
	if o.Metrics == nil {
		return
	}
	l := obs.L("assignment", label)
	o.Metrics.Help("coherdb_vcg_nodes", "Virtual channel graph node count per assignment.")
	o.Metrics.Gauge("coherdb_vcg_nodes", l).Set(int64(stats.Nodes))
	o.Metrics.Help("coherdb_vcg_edges", "Virtual channel graph edge count per assignment.")
	o.Metrics.Gauge("coherdb_vcg_edges", l).Set(int64(stats.Edges))
	o.Metrics.Help("coherdb_vcg_cycles", "Elementary cycles found per assignment.")
	o.Metrics.Gauge("coherdb_vcg_cycles", l).Set(int64(stats.Cycles))
	o.Metrics.Help("coherdb_cycle_search_duration_seconds", "Wall time of VCG cycle search.")
	o.Metrics.Histogram("coherdb_cycle_search_duration_seconds", nil, l).ObserveDuration(stats.CycleElapsed)
}

// AnalyzeStory runs the analysis over a sequence of named assignments and
// returns the per-assignment reports — the §4.2 narrative: find cycles,
// modify V, repeat until none remain.
func AnalyzeStory(controllers []*rel.Table, assignments map[string]*rel.Table, order []string, opts Options) (map[string]*Report, error) {
	out := make(map[string]*Report, len(assignments))
	for _, name := range order {
		v, ok := assignments[name]
		if !ok {
			return nil, fmt.Errorf("deadlock: assignment %q missing", name)
		}
		po := opts
		po.Label = name
		rep, err := Analyze(controllers, v, po)
		if err != nil {
			return nil, fmt.Errorf("deadlock: analyzing %q: %w", name, err)
		}
		out[name] = rep
	}
	return out, nil
}
