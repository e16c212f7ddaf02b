package sqlmini

import (
	"fmt"
	"slices"
	"sync"

	"coherdb/internal/rel"
)

// Vectorized predicate execution: VecPred is the one compiled form of a
// condition, for the executor's filters and the constraint solver's
// domain sweeps. A WHERE conjunct — pushed to a scan or left as a
// post-join residue — evaluates a whole morsel's column vectors per call
// instead of one code row at a time. The unit of work is a selection
// vector — the strictly increasing row indices still alive — and every
// kernel filters it in place:
//
//   - =, <>, IN and IS NULL over dictionary codes compile to tight
//     compare loops over one column vector (codes are injective, so
//     equality never decodes; NULL is code 0 in both dialects);
//   - AND is a kernel cascade over the shrinking selection (the second
//     conjunct only sees survivors, which is also the short-circuit:
//     an empty selection skips the rest of the chain);
//   - OR runs the left kernel on a copy, the right kernel on the
//     remainder (set-minus), and merges the two sorted survivor lists;
//   - NOT rewrites through Kleene-valid identities (De Morgan, operator
//     flips) so negation never needs a complement set;
//   - a stable subtree — one that reads no column that varies across the
//     lanes — is evaluated once per call and keeps every lane or none,
//     and a ternary with a stable condition passes the whole selection
//     to the one branch that condition picks;
//   - any other shape falls back to the scalar compiled closure (see
//     compile.go). One that reads exactly one column — range compares,
//     BETWEEN, CASE, registered calls — runs behind a per-code verdict
//     memo: each distinct dictionary code is evaluated once and the
//     vector loop reuses the verdict, which on low-cardinality protocol
//     columns is almost as tight as a native kernel. One that reads two
//     or more columns copies the lane-varying ones into a scratch row
//     per lane.
//
// The same compiler serves the executor and the constraint solver. On a
// scan (CompileBoundVec) every column varies across the lanes, so only
// subtrees that read no column are stable. In sweep mode (CompileSweep)
// the lanes are one column's domain with the rest of the row fixed: only
// the swept position varies, the other positions are read from the
// state's row (EvalSweep copies it in), and a subtree that does not read
// the swept column is stable. The protocol constraints are chains of
// ternaries over stable rule conditions with =/IN leaves on the swept
// column, so one sweep walks one path of the chain and runs tight loops
// over the domain's code vector.
//
// Selection semantics are WHERE semantics: a row survives iff the
// conjunct is definitely true. Kernels therefore drop unknown outright,
// which is what makes the NOT rewrites (rather than complements) exact.
//
// Equivalence: the selection EvalVec keeps is exactly the set of rows on
// which Evaluator.True holds, and the lanes EvalSweep keeps exactly the
// domain values on which it holds for the row with the swept column set
// to them (TestVecPredMatchesScalarKernel and
// TestSweepVecMatchesScalarSweep check this on random predicates in both
// NULL dialects). Evaluation order differs
// from the interpreter — conjunct-major over a morsel instead of
// row-major — so when several rows would error, which error surfaces
// first can differ. The compiled subset only errors on registered Funcs,
// which this codebase's workloads keep pure and total; the golden
// controller tests pin byte-identical results against the interpreter on
// every successful query.
//
// A VecPred is immutable after compilation and safe for concurrent use:
// all mutable evaluation state (scratch selections, verdict memos) lives
// in pooled vecStates, one checked out per EvalVec or EvalSweep call, so
// the steady-state vectorized path allocates nothing (see
// TestVectorizedFilterAllocs and TestEvalSweepAllocs).

// memoCap bounds the per-code verdict memo of fallback kernels. Codes
// beyond it (a dictionary past 64k distinct values) evaluate through the
// scalar closure each time instead of growing the memo without bound.
const memoCap = 1 << 16

// vecKernel filters sel in place against the column vectors, returning
// the surviving prefix. sel is strictly increasing; kernels preserve
// that (they only compact forward).
type vecKernel func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error)

// vecState is one evaluation's mutable scratch: selection buffers for OR
// nodes, verdict memos for fallback nodes, a scratch row for their scalar
// closures (in sweep mode also the base row stable subtrees read), and in
// sweep mode the column-vector slice whose swept slot holds the domain.
// States are pooled per VecPred; memos persist across calls, which is
// sound because dictionary codes are append-only, a memo only ever keys
// a subtree that reads nothing but its one column, and the compiled
// closure's literals, dialect and functions are fixed at compile time
// (function re-registration bumps the schema epoch and rebuilds the plan,
// VecPred included).
type vecState struct {
	bufs  [][]uint32
	memos [][]uint8
	crow  []uint32
	cols  [][]uint32
}

// buf returns scratch selection buffer slot with room for n entries.
func (st *vecState) buf(slot, n int) []uint32 {
	b := st.bufs[slot]
	if cap(b) < n {
		b = make([]uint32, n)
		st.bufs[slot] = b
	}
	return b[:n]
}

// growMemo widens memo slot to cover code, returning the grown table.
// Entries are 0 (unset), 1 (keep) or 2 (drop).
func (st *vecState) growMemo(slot int, code uint32) []uint8 {
	n := len(st.memos[slot])
	if n == 0 {
		n = 256
	}
	for n <= int(code) {
		n *= 2
	}
	if n > memoCap {
		n = memoCap
	}
	m := make([]uint8, n)
	copy(m, st.memos[slot])
	st.memos[slot] = m
	return m
}

// VecPred is the one compiled form of a condition: EvalVec keeps exactly
// the rows on which Evaluator.True holds, EvalSweep exactly the swept
// lanes on which it holds.
type VecPred struct {
	kern      vecKernel
	reads     []int // distinct column positions read, ascending
	sweep     int   // swept position (CompileSweep), -1 for a scan filter
	bufSlots  int
	memoSlots int
	pool      sync.Pool // *vecState
}

// state checks a vecState out of the pool, building one on first use.
func (p *VecPred) state() *vecState {
	if st, _ := p.pool.Get().(*vecState); st != nil {
		return st
	}
	return &vecState{
		bufs:  make([][]uint32, p.bufSlots),
		memos: make([][]uint8, p.memoSlots),
		crow:  make([]uint32, p.Width()),
		cols:  make([][]uint32, p.sweep+1),
	}
}

// EvalVec filters sel — strictly increasing row indices into the column
// vectors — in place and returns the surviving prefix. It is safe for
// concurrent use; each call checks a vecState out of the pool.
func (p *VecPred) EvalVec(cols [][]uint32, sel []uint32) ([]uint32, error) {
	st := p.state()
	out, err := p.kern(st, cols, sel)
	p.pool.Put(st)
	return out, err
}

// EvalSweep evaluates a sweep-mode predicate (CompileSweep) on row with
// the swept column taking the values of domain. sel holds strictly
// increasing lane indices into domain; it is filtered in place to the
// lanes on which Evaluator.True holds for row with the swept position set
// to domain[lane], and the surviving prefix is returned. row must cover
// every position the predicate reads below the swept one; its swept
// position itself is never read. Safe for concurrent use, like EvalVec.
func (p *VecPred) EvalSweep(row, domain, sel []uint32) ([]uint32, error) {
	st := p.state()
	copy(st.crow, row)
	st.cols[p.sweep] = domain
	out, err := p.kern(st, st.cols, sel)
	st.cols[p.sweep] = nil
	p.pool.Put(st)
	return out, err
}

// Width returns the number of column positions the predicate may read —
// the minimum length of the cols slice passed to EvalVec.
func (p *VecPred) Width() int {
	if len(p.reads) == 0 {
		return 0
	}
	return p.reads[len(p.reads)-1] + 1
}

// CompileBoundVec lowers a plan-bound conjunct — one whose column
// references bindExpr already replaced with boundCol positions — into its
// vectorized form. It fails only when the expression names a column the
// planner could not bind (errUnboundCol; the interpreter owns that
// diagnosis) or an unregistered function (ErrUnknownFunc). The NULL
// dialect and function registry are captured at compile time, so plans
// are cached per dialect (see planEntry) and invalidated when a function
// is registered.
func (ev *Evaluator) CompileBoundVec(e Expr) (*VecPred, error) {
	return ev.compileVec(e, -1)
}

// CompileSweep lowers a constraint into sweep mode around the column at
// position sweep, for EvalSweep. e is unbound, as parsed; colIndex maps
// each column name it references to its row position; the evaluator's Funcs and NullEq
// dialect are captured at compile time. Unknown columns and functions are
// compile-time errors (the interpreter reports them at evaluation time;
// the constraint solver validates constraints when the spec is built, so
// the shift is invisible there).
//
// Stable subtrees are evaluated once per call, not once per lane, which
// assumes registered Funcs are pure.
func (ev *Evaluator) CompileSweep(e Expr, colIndex map[string]int, sweep int) (*VecPred, error) {
	width := 0
	for _, i := range colIndex {
		width = max(width, i+1)
	}
	f := &frame{names: make([]string, width), aliases: make([]string, width)}
	for name, i := range colIndex {
		f.names[i] = name
	}
	bound := bindExpr(e, f)
	var unknown Expr
	anyExpr(bound, func(n Expr) bool {
		if c, ok := n.(Col); ok {
			unknown = c
		}
		return unknown != nil
	})
	if unknown != nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownColumn, unknown)
	}
	return ev.compileVec(bound, sweep)
}

// compileVec lowers a bound expression, in sweep mode when sweep >= 0.
func (ev *Evaluator) compileVec(e Expr, sweep int) (*VecPred, error) {
	vc := &vecCompiler{c: &compiler{ev: ev}, sweep: sweep}
	k, err := vc.comp(e)
	if err != nil {
		return nil, err
	}
	return &VecPred{kern: k, reads: boundPositions(e), sweep: sweep, bufSlots: vc.bufSlots, memoSlots: vc.memoSlots}, nil
}

// compileVecs lowers each bound conjunct through CompileBoundVec, leaving
// nil slots where the compiler declined; a filter with a nil slot runs on
// the interpreter, which reports the unknown column or function exactly
// as the unplanned path does.
func compileVecs(ev *Evaluator, conjuncts []Expr) []*VecPred {
	if len(conjuncts) == 0 {
		return nil
	}
	out := make([]*VecPred, len(conjuncts))
	for i, c := range conjuncts {
		if p, err := ev.CompileBoundVec(c); err == nil {
			out[i] = p
		}
	}
	return out
}

// fullyVec reports whether all n conjuncts lowered to vectorized
// kernels — the precondition for the column-at-a-time scan path.
func fullyVec(vecs []*VecPred, n int) bool {
	if n == 0 || len(vecs) != n {
		return false
	}
	for _, p := range vecs {
		if p == nil {
			return false
		}
	}
	return true
}

// vecCompiler carries the swept position (-1 on a scan) and compile-time
// slot counters; the inner scalar compiler lowers stable and fallback
// subtrees.
type vecCompiler struct {
	c         *compiler
	sweep     int
	bufSlots  int
	memoSlots int
}

// lane reports whether e is a column the kernels read from the column
// vectors: any bound column on a scan, only the swept one in sweep mode.
func (vc *vecCompiler) lane(e Expr) (int, bool) {
	b, ok := e.(boundCol)
	if !ok || (vc.sweep >= 0 && b.Idx != vc.sweep) {
		return 0, false
	}
	return b.Idx, true
}

// operand classifies a code-loadable operand: an interned literal or a
// lane column.
func (vc *vecCompiler) operand(e Expr) (code uint32, idx int, isLit, ok bool) {
	if x, lit := e.(Lit); lit {
		return dict.Code(x.Val), 0, true, true
	}
	idx, ok = vc.lane(e)
	return 0, idx, false, ok
}

// stable reports whether e reads no lane-varying column: no column at all
// on a scan, not the swept one in sweep mode.
func (vc *vecCompiler) stable(e Expr) bool {
	return !anyExpr(e, func(n Expr) bool {
		switch x := n.(type) {
		case Col:
			return true
		case boundCol:
			return vc.sweep < 0 || x.Idx == vc.sweep
		}
		return false
	})
}

// once compiles a stable subtree: one scalar evaluation per call over the
// state's row keeps every lane or none.
func (vc *vecCompiler) once(e Expr) (vecKernel, error) {
	fn, err := vc.c.bool(e)
	if err != nil {
		return nil, err
	}
	return func(st *vecState, _ [][]uint32, sel []uint32) ([]uint32, error) {
		if len(sel) == 0 {
			return sel, nil
		}
		t, err := fn(st.crow)
		if err != nil {
			return nil, err
		}
		if t == triTrue {
			return sel, nil
		}
		return sel[:0], nil
	}, nil
}

// constKernel keeps everything or nothing, for conjuncts decided at
// compile time.
func constKernel(keep bool) vecKernel {
	return func(_ *vecState, _ [][]uint32, sel []uint32) ([]uint32, error) {
		if keep {
			return sel, nil
		}
		return sel[:0], nil
	}
}

func (vc *vecCompiler) comp(e Expr) (vecKernel, error) {
	if vc.stable(e) {
		return vc.once(e)
	}
	nullEq := vc.c.ev.NullEq
	switch x := e.(type) {
	case Unary:
		if r, ok := negateVec(x.X); ok {
			return vc.comp(r)
		}
		return vc.fallback(e)
	case Binary:
		switch x.Op {
		case "AND":
			l, err := vc.comp(x.L)
			if err != nil {
				return nil, err
			}
			r, err := vc.comp(x.R)
			if err != nil {
				return nil, err
			}
			return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
				s, err := l(st, cols, sel)
				if err != nil || len(s) == 0 {
					return s, err
				}
				return r(st, cols, s)
			}, nil
		case "OR":
			l, err := vc.comp(x.L)
			if err != nil {
				return nil, err
			}
			r, err := vc.comp(x.R)
			if err != nil {
				return nil, err
			}
			slotL, slotR := vc.bufSlots, vc.bufSlots+1
			vc.bufSlots += 2
			return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
				if len(sel) == 0 {
					return sel, nil
				}
				b := st.buf(slotL, len(sel))
				copy(b, sel)
				selL, err := l(st, cols, b)
				if err != nil {
					return nil, err
				}
				if len(selL) == len(sel) {
					return sel, nil // left kept everything; sel is unchanged
				}
				// Remainder = sel minus selL: both sorted, selL ⊆ sel.
				rem := st.buf(slotR, len(sel)-len(selL))
				k, li := 0, 0
				for _, ri := range sel {
					if li < len(selL) && selL[li] == ri {
						li++
						continue
					}
					rem[k] = ri
					k++
				}
				selR, err := r(st, cols, rem[:k])
				if err != nil {
					return nil, err
				}
				// Merge the two sorted, disjoint survivor lists into sel.
				i, j, w := 0, 0, 0
				for i < len(selL) && j < len(selR) {
					if selL[i] < selR[j] {
						sel[w] = selL[i]
						i++
					} else {
						sel[w] = selR[j]
						j++
					}
					w++
				}
				w += copy(sel[w:], selL[i:])
				w += copy(sel[w:], selR[j:])
				return sel[:w], nil
			}, nil
		case "=", "<>":
			// Not both literals: that subtree is stable.
			lc, li, llit, lok := vc.operand(x.L)
			rc, ri, rlit, rok := vc.operand(x.R)
			if !lok || !rok {
				return vc.fallback(e)
			}
			want := x.Op == "="
			switch {
			case llit != rlit:
				lit, idx := lc, ri
				if rlit {
					lit, idx = rc, li
				}
				if !nullEq && lit == rel.NullCode {
					return constKernel(false), nil
				}
				if want {
					// col = lit: a matching code is necessarily non-NULL
					// (lit is), so one compare serves both dialects.
					return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
						col := cols[idx]
						k := 0
						for _, ri := range sel {
							if col[ri] == lit {
								sel[k] = ri
								k++
							}
						}
						return sel[:k], nil
					}, nil
				}
				if nullEq {
					return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
						col := cols[idx]
						k := 0
						for _, ri := range sel {
							if col[ri] != lit {
								sel[k] = ri
								k++
							}
						}
						return sel[:k], nil
					}, nil
				}
				// Strict <>: NULL <> lit is unknown, dropped.
				return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
					col := cols[idx]
					k := 0
					for _, ri := range sel {
						if c := col[ri]; c != lit && c != rel.NullCode {
							sel[k] = ri
							k++
						}
					}
					return sel[:k], nil
				}, nil
			default: // column vs column
				if nullEq {
					return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
						a, b := cols[li], cols[ri]
						k := 0
						for _, rx := range sel {
							if (a[rx] == b[rx]) == want {
								sel[k] = rx
								k++
							}
						}
						return sel[:k], nil
					}, nil
				}
				if want {
					return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
						a, b := cols[li], cols[ri]
						k := 0
						for _, rx := range sel {
							if ca := a[rx]; ca == b[rx] && ca != rel.NullCode {
								sel[k] = rx
								k++
							}
						}
						return sel[:k], nil
					}, nil
				}
				return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
					a, b := cols[li], cols[ri]
					k := 0
					for _, rx := range sel {
						ca, cb := a[rx], b[rx]
						if ca != cb && ca != rel.NullCode && cb != rel.NullCode {
							sel[k] = rx
							k++
						}
					}
					return sel[:k], nil
				}, nil
			}
		default:
			return vc.fallback(e)
		}
	case InList:
		return vc.inList(x)
	case IsNull:
		idx, ok := vc.lane(x.X)
		if !ok {
			return vc.fallback(e)
		}
		neg := x.Negate
		// NULL is code 0 in both dialects; IS NULL never yields unknown.
		return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
			col := cols[idx]
			k := 0
			for _, ri := range sel {
				if (col[ri] == rel.NullCode) != neg {
					sel[k] = ri
					k++
				}
			}
			return sel[:k], nil
		}, nil
	case Ternary:
		if !vc.stable(x.Cond) {
			return vc.fallback(e)
		}
		cond, err := vc.c.bool(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := vc.comp(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := vc.comp(x.Else)
		if err != nil {
			return nil, err
		}
		return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
			if len(sel) == 0 {
				return sel, nil
			}
			t, err := cond(st.crow)
			if err != nil {
				return nil, err
			}
			// Unknown behaves as false: the else branch (paper's ternary).
			if t == triTrue {
				return then(st, cols, sel)
			}
			return els(st, cols, sel)
		}, nil
	default:
		return vc.fallback(e)
	}
}

// inList compiles IN over an all-literal set and a column operand to a
// membership loop: small sets scan a dedup'd code array, larger ones
// probe a hash set — both per morsel element, no Value boxing.
func (vc *vecCompiler) inList(x InList) (vecKernel, error) {
	idx, ok := vc.lane(x.X)
	if !ok {
		return vc.fallback(x)
	}
	if !allLits(x.Set) {
		return vc.fallback(x)
	}
	nullEq := vc.c.ev.NullEq
	neg := x.Negate

	var codes []uint32
	hasNull := false
	for _, s := range x.Set {
		v := s.(Lit).Val
		if v.IsNull() {
			hasNull = true
			if !nullEq {
				continue // NULL elements never match in 3VL; they only taint
			}
		}
		c := dict.Code(v)
		dup := false
		for _, have := range codes {
			if have == c {
				dup = true
				break
			}
		}
		if !dup {
			codes = append(codes, c)
		}
	}
	if !nullEq && len(x.Set) == 0 {
		// Strict x IN () is false (NOT IN () true) for every x, NULL
		// included: the empty-set case precedes the NULL-operand case.
		return constKernel(neg), nil
	}
	var member func(c uint32) bool
	if len(codes) <= 8 {
		set := codes
		member = func(c uint32) bool {
			for _, s := range set {
				if s == c {
					return true
				}
			}
			return false
		}
	} else {
		set := make(map[uint32]struct{}, len(codes))
		for _, c := range codes {
			set[c] = struct{}{}
		}
		member = func(c uint32) bool {
			_, ok := set[c]
			return ok
		}
	}
	if nullEq {
		// Constraint dialect: NULL is an ordinary value, membership
		// decides outright.
		return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
			col := cols[idx]
			k := 0
			for _, ri := range sel {
				if member(col[ri]) != neg {
					sel[k] = ri
					k++
				}
			}
			return sel[:k], nil
		}, nil
	}
	// Strict ANSI: NULL operand is unknown (dropped); a NULL element
	// taints every non-match to unknown (dropped even under NOT IN).
	return func(_ *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		col := cols[idx]
		k := 0
		for _, ri := range sel {
			c := col[ri]
			if c == rel.NullCode {
				continue
			}
			in := member(c)
			if (in && !neg) || (!in && !hasNull && neg) {
				sel[k] = ri
				k++
			}
		}
		return sel[:k], nil
	}, nil
}

// negateVec rewrites NOT e through identities exact in Kleene 3VL, so
// negation reuses the positive kernels instead of needing complement
// sets: NOT flips true/false and keeps unknown, which is precisely what
// operator flips and De Morgan do. Ordered comparisons are NOT safe to
// flip (NOT (a < b) and a >= b disagree on NULL under the constraint
// dialect) and are left to the fallback.
func negateVec(e Expr) (Expr, bool) {
	switch x := e.(type) {
	case Unary: // NOT NOT e
		return x.X, true
	case Binary:
		switch x.Op {
		case "=":
			return Binary{Op: "<>", L: x.L, R: x.R}, true
		case "<>":
			return Binary{Op: "=", L: x.L, R: x.R}, true
		case "AND":
			return Binary{Op: "OR", L: Unary{Op: "NOT", X: x.L}, R: Unary{Op: "NOT", X: x.R}}, true
		case "OR":
			return Binary{Op: "AND", L: Unary{Op: "NOT", X: x.L}, R: Unary{Op: "NOT", X: x.R}}, true
		}
	case InList:
		x.Negate = !x.Negate
		return x, true
	case IsNull:
		x.Negate = !x.Negate
		return x, true
	}
	return nil, false
}

// fallback vectorizes a non-stable subtree through its scalar compiled
// closure. One reading a single column runs behind a per-code verdict
// memo, so each distinct dictionary code in the column is evaluated once
// per state lifetime and the morsel loop is a table lookup. One reading
// several columns copies the lane-varying ones into the state's scratch
// row per lane: all of them on a scan, only the swept one in sweep mode,
// where the others already hold the base row. The memo keys on one code
// alone, so it must never serve a subtree that also reads a stable
// column: its verdict would leak from one base row into the next.
func (vc *vecCompiler) fallback(e Expr) (vecKernel, error) {
	fn, err := vc.c.bool(e)
	if err != nil {
		return nil, err
	}
	pos := boundPositions(e)
	if len(pos) > 1 {
		if vc.sweep >= 0 {
			pos = []int{vc.sweep}
		}
		return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
			crow := st.crow
			k := 0
			for _, ri := range sel {
				for _, p := range pos {
					crow[p] = cols[p][ri]
				}
				t, err := fn(crow)
				if err != nil {
					return nil, err
				}
				if t == triTrue {
					sel[k] = ri
					k++
				}
			}
			return sel[:k], nil
		}, nil
	}
	idx := pos[0]
	slot := vc.memoSlots
	vc.memoSlots++
	return func(st *vecState, cols [][]uint32, sel []uint32) ([]uint32, error) {
		col := cols[idx]
		m := st.memos[slot]
		crow := st.crow
		k := 0
		for _, ri := range sel {
			c := col[ri]
			var v uint8
			if int(c) < len(m) {
				v = m[c]
			}
			if v == 0 {
				crow[idx] = c
				t, err := fn(crow)
				if err != nil {
					return nil, err
				}
				v = 2
				if t == triTrue {
					v = 1
				}
				if c < memoCap {
					if int(c) >= len(m) {
						m = st.growMemo(slot, c)
					}
					m[c] = v
				}
			}
			if v == 1 {
				sel[k] = ri
				k++
			}
		}
		return sel[:k], nil
	}, nil
}

// boundPositions returns the distinct bound column positions e reads,
// ascending.
func boundPositions(e Expr) []int {
	var pos []int
	visit(e, func(n Expr) {
		if b, ok := n.(boundCol); ok && !slices.Contains(pos, b.Idx) {
			pos = append(pos, b.Idx)
		}
	})
	slices.Sort(pos)
	return pos
}
