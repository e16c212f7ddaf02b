package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"coherdb/internal/check"
	"coherdb/internal/protocol"
	"coherdb/internal/rel"
)

// tableLookup is the part of *sqlmini.DB and *sqlmini.Session the
// oracles read.
type tableLookup interface {
	Table(name string) (*rel.Table, bool)
}

// controllerNames lists the eight generated controller tables.
func controllerNames() []string {
	var out []string
	for _, sb := range protocol.SpecBuilders() {
		out = append(out, sb.Name)
	}
	return out
}

// tablesHash is a value-level hash of the eight controller tables: names,
// columns and the multiset of rows, so row order does not matter.
func tablesHash(db tableLookup) (uint64, error) {
	var h uint64
	for _, name := range controllerNames() {
		t, ok := db.Table(name)
		if !ok {
			return 0, fmt.Errorf("table %s missing", name)
		}
		h = h*1099511628211 ^ tableHash(t)
	}
	return h, nil
}

func tableHash(t *rel.Table) uint64 {
	f := fnv.New64a()
	f.Write([]byte(t.Name() + "\x00" + strings.Join(t.Columns(), "\x00")))
	sum := f.Sum64()
	var key []byte
	for i := 0; i < t.NumRows(); i++ {
		key = key[:0]
		for j := 0; j < t.NumCols(); j++ {
			key = t.At(i, j).AppendKey(key)
			key = append(key, 0)
		}
		f.Reset()
		f.Write(key)
		sum += mix(f.Sum64())
	}
	return sum
}

// mix spreads a row hash before it is summed, so that sums of similar
// hashes do not collide.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// renderResults renders invariant results for comparison: name, verdict
// and the sorted violating rows. Timings and the Skipped flag are left
// out, so incremental and full runs of the same state render the same.
func renderResults(results []check.Result) string {
	var sb strings.Builder
	for _, r := range results {
		sb.WriteString(r.Invariant.Name)
		switch {
		case r.Err != nil:
			fmt.Fprintf(&sb, " error %v\n", r.Err)
		case r.Violations == nil:
			sb.WriteString(" no result\n")
		default:
			rows := make([]string, r.Violations.NumRows())
			for i := range rows {
				vals := make([]string, r.Violations.NumCols())
				for j := range vals {
					vals[j] = r.Violations.At(i, j).Quoted()
				}
				rows[i] = strings.Join(vals, ",")
			}
			sort.Strings(rows)
			fmt.Fprintf(&sb, " %d violations [%s]\n", len(rows), strings.Join(rows, "; "))
		}
	}
	return sb.String()
}

// collapseSQL puts a multi-line statement on one line for the line
// protocol: every run of whitespace outside string literals becomes one
// space.
func collapseSQL(src string) string {
	var sb strings.Builder
	inQuote, space := false, false
	for _, c := range strings.TrimSpace(src) {
		if !inQuote && (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
			space = true
			continue
		}
		if space {
			sb.WriteByte(' ')
			space = false
		}
		if c == '\'' {
			inQuote = !inQuote
		}
		sb.WriteRune(c)
	}
	return sb.String()
}

// rowMatch renders a WHERE condition that matches exactly the rows equal
// to row, column by column.
func rowMatch(cols []string, row []rel.Value) string {
	parts := make([]string, len(cols))
	for j, c := range cols {
		if row[j].IsNull() {
			parts[j] = c + " IS NULL"
		} else {
			parts[j] = c + " = " + row[j].Quoted()
		}
	}
	return strings.Join(parts, " AND ")
}

// rowValues renders a row as an INSERT value list.
func rowValues(row []rel.Value) string {
	vals := make([]string, len(row))
	for j, v := range row {
		vals[j] = v.Quoted()
	}
	return strings.Join(vals, ", ")
}

// rowKey identifies a row by value.
func rowKey(row []rel.Value) string {
	var key []byte
	for _, v := range row {
		key = v.AppendKey(key)
		key = append(key, 0)
	}
	return string(key)
}

// snapshotTable is a read-only copy of one generated table: its rows, the
// set of row keys, and the values each column takes.
type snapshotTable struct {
	name    string
	cols    []string
	rows    [][]rel.Value
	keys    map[string]int
	domains [][]rel.Value
}

func snapshot(t *rel.Table) *snapshotTable {
	s := &snapshotTable{name: t.Name(), cols: t.Columns(), keys: map[string]int{}}
	seen := make([]map[string]bool, t.NumCols())
	s.domains = make([][]rel.Value, t.NumCols())
	for j := range seen {
		seen[j] = map[string]bool{}
	}
	for i := 0; i < t.NumRows(); i++ {
		row := make([]rel.Value, t.NumCols())
		for j := range row {
			v := t.At(i, j)
			row[j] = v
			if k := v.Key(); !seen[j][k] {
				seen[j][k] = true
				s.domains[j] = append(s.domains[j], v)
			}
		}
		s.rows = append(s.rows, row)
		s.keys[rowKey(row)]++
	}
	return s
}
