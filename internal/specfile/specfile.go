// Package specfile reads and writes the textual "database input" of the
// paper's §1: a controller table specification comprising (i) the table
// schema — the column tables with their legal values, (ii) the SQL column
// constraints, and (iii) static checks as SQL queries that must return the
// empty relation. It is the on-disk interchange form for cohergen and the
// format protocol architects edit during revisions.
//
// Grammar (line oriented; "--" starts a comment; keyword sections may span
// lines until the next keyword; a hidden column is solved like the others
// but left out of the generated table):
//
//	table D_readex
//	input  inmsg = readex, data, idone  nonull
//	input  dirst = I, SI, Busy-sd, Busy-d, Busy-s
//	output remmsg = sinv
//	hidden rule = readex@SI, data@Busy-d
//	constrain remmsg:
//	    inmsg = readex and dirst = SI ? remmsg = sinv : remmsg = NULL
//	check pv-consistent "state and vector agree":
//	    SELECT dirst, dirpv FROM D WHERE dirst = 'MESI' AND NOT dirpv = 'one'
package specfile

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"coherdb/internal/check"
	"coherdb/internal/constraint"
)

// ErrSyntax reports a malformed spec file.
var ErrSyntax = errors.New("specfile: syntax error")

// File is one parsed specification: the table spec plus its static checks.
type File struct {
	Spec   *constraint.Spec
	Checks []check.Invariant
}

func errLine(n int, format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrSyntax, n, fmt.Sprintf(format, args...))
}

// Parse reads a specification.
func Parse(r io.Reader) (*File, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	type rawLine struct {
		n    int
		text string
	}
	var lines []rawLine
	n := 0
	for sc.Scan() {
		n++
		text := sc.Text()
		if i := strings.Index(text, "--"); i >= 0 {
			text = text[:i]
		}
		lines = append(lines, rawLine{n: n, text: text})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	f := &File{}
	var pending func(body string, atLine int) error
	var bodyBuf strings.Builder
	bodyLine := 0
	flush := func() error {
		if pending == nil {
			return nil
		}
		err := pending(strings.TrimSpace(bodyBuf.String()), bodyLine)
		pending = nil
		bodyBuf.Reset()
		return err
	}

	for _, ln := range lines {
		trimmed := strings.TrimSpace(ln.text)
		keyword := firstWord(trimmed)
		switch keyword {
		case "":
			if pending != nil {
				bodyBuf.WriteString(ln.text)
				bodyBuf.WriteByte('\n')
			}
			continue
		case "table", "input", "output", "hidden", "constrain", "check":
			if err := flush(); err != nil {
				return nil, err
			}
		default:
			// Continuation of a pending section body.
			if pending == nil {
				return nil, errLine(ln.n, "unexpected %q outside a section", trimmed)
			}
			bodyBuf.WriteString(ln.text)
			bodyBuf.WriteByte('\n')
			continue
		}
		rest := strings.TrimSpace(strings.TrimPrefix(trimmed, keyword))
		switch keyword {
		case "table":
			if f.Spec != nil {
				return nil, errLine(ln.n, "duplicate table declaration")
			}
			if rest == "" {
				return nil, errLine(ln.n, "table needs a name")
			}
			f.Spec = constraint.NewSpec(rest)
		case "input", "output", "hidden":
			if f.Spec == nil {
				return nil, errLine(ln.n, "%s before table declaration", keyword)
			}
			col, err := parseColumn(rest, columnKinds[keyword], ln.n)
			if err != nil {
				return nil, err
			}
			if err := f.Spec.AddColumn(col); err != nil {
				return nil, errLine(ln.n, "%v", err)
			}
		case "constrain":
			if f.Spec == nil {
				return nil, errLine(ln.n, "constrain before table declaration")
			}
			name, inline, ok := strings.Cut(rest, ":")
			if !ok {
				return nil, errLine(ln.n, "constrain needs 'column:'")
			}
			name = strings.TrimSpace(name)
			bodyBuf.WriteString(inline)
			bodyBuf.WriteByte('\n')
			bodyLine = ln.n
			spec := f.Spec
			pending = func(body string, atLine int) error {
				if body == "" {
					return errLine(atLine, "empty constraint for %q", name)
				}
				if err := spec.Constrain(name, body); err != nil {
					return errLine(atLine, "%v", err)
				}
				return nil
			}
		case "check":
			head, inline, ok := strings.Cut(rest, ":")
			if !ok {
				return nil, errLine(ln.n, "check needs 'name \"desc\":'")
			}
			name, desc, err := parseCheckHead(strings.TrimSpace(head), ln.n)
			if err != nil {
				return nil, err
			}
			bodyBuf.WriteString(inline)
			bodyBuf.WriteByte('\n')
			bodyLine = ln.n
			pending = func(body string, atLine int) error {
				if body == "" {
					return errLine(atLine, "empty check %q", name)
				}
				f.Checks = append(f.Checks, check.Invariant{
					Name: name, Desc: desc, Ref: "specfile", SQL: body,
				})
				return nil
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if f.Spec == nil {
		return nil, fmt.Errorf("%w: no table declaration", ErrSyntax)
	}
	return f, nil
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i]
		}
	}
	return s
}

// columnKinds maps the column keywords to their kinds.
var columnKinds = map[string]constraint.ColumnKind{
	"input": constraint.Input, "output": constraint.Output, "hidden": constraint.Hidden,
}

// parseColumn parses "name = v1, v2, ... [nonull]".
func parseColumn(rest string, kind constraint.ColumnKind, line int) (constraint.Column, error) {
	name, vals, ok := strings.Cut(rest, "=")
	if !ok {
		return constraint.Column{}, errLine(line, "column needs 'name = values'")
	}
	col := constraint.Column{Name: strings.TrimSpace(name), Kind: kind}
	if col.Name == "" {
		return constraint.Column{}, errLine(line, "column needs a name")
	}
	vals = strings.TrimSpace(vals)
	if strings.HasSuffix(vals, "nonull") {
		col.NoNull = true
		vals = strings.TrimSpace(strings.TrimSuffix(vals, "nonull"))
	}
	for _, v := range strings.Split(vals, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		col.Values = append(col.Values, v)
	}
	if len(col.Values) == 0 {
		return constraint.Column{}, errLine(line, "column %q has no values", col.Name)
	}
	return col, nil
}

// parseCheckHead parses `name "description"`.
func parseCheckHead(head string, line int) (name, desc string, err error) {
	name = firstWord(head)
	if name == "" {
		return "", "", errLine(line, "check needs a name")
	}
	rest := strings.TrimSpace(strings.TrimPrefix(head, name))
	if rest == "" {
		return name, name, nil
	}
	if !strings.HasPrefix(rest, `"`) || !strings.HasSuffix(rest, `"`) || len(rest) < 2 {
		return "", "", errLine(line, "check description must be double-quoted")
	}
	return name, rest[1 : len(rest)-1], nil
}

// Write renders a specification in the format Parse reads. Constraints are
// rendered from their parsed (resolved) form, so Parse(Write(f)) yields an
// equivalent specification.
func Write(w io.Writer, f *File) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "-- coherdb controller specification\ntable %s\n\n", f.Spec.Name)
	for _, col := range f.Spec.Columns() {
		fmt.Fprintf(bw, "%-6s %s = %s", col.Kind, col.Name, strings.Join(col.Values, ", "))
		if col.NoNull {
			fmt.Fprint(bw, "  nonull")
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw)
	for _, col := range f.Spec.Columns() {
		e := f.Spec.Constraint(col.Name)
		if e == nil {
			continue
		}
		fmt.Fprintf(bw, "constrain %s:\n    %s\n\n", col.Name, e.String())
	}
	for _, c := range f.Checks {
		fmt.Fprintf(bw, "check %s %q:\n    %s\n\n", c.Name, c.Desc, c.SQL)
	}
	return bw.Flush()
}
