package sqlmini

import (
	"sync"

	"coherdb/internal/obs"
	"coherdb/internal/pool"
	"coherdb/internal/rel"
)

// Column-at-a-time filter execution, the one compiled path for pushed
// scan filters and post-join residues alike. A pooled selection vector
// starts as the filter's domain, each VecPred filters it in place over
// column vectors, and only the survivors are gathered into frame rows.
// Scans read the table's zero-copy column vectors and never materialize
// rejected rows; residues first gather just the columns their conjuncts
// read out of the joined frame's rows. Above the parallel threshold the
// selection is dealt in morsel batches — each batch compacts its own
// subrange in place, then the kept prefixes concatenate in batch order,
// so the parallel selection is byte-identical to the serial one.
//
// Selection vectors, column directories, gathered columns and the
// per-evaluation kernel scratch are pooled (selPool and colsPool here,
// VecPred.pool in vectorize.go), so the steady-state filter allocates
// only its output rows — see TestVectorizedFilterAllocs.

// selVec is a pooled selection-vector buffer.
type selVec struct{ s []uint32 }

var selPool = sync.Pool{New: func() any { return new(selVec) }}

// getSel checks a buffer with room for n entries out of the pool.
func getSel(n int) *selVec {
	sv := selPool.Get().(*selVec)
	if cap(sv.s) < n {
		sv.s = make([]uint32, n)
	}
	return sv
}

// colsVec is a pooled column-vector directory, indexed by column
// position, plus the storage vecFrame gathers frame columns into.
type colsVec struct {
	c    [][]uint32
	bufs [][]uint32
}

var colsPool = sync.Pool{New: func() any { return new(colsVec) }}

// getCols checks an empty directory of width ncols out of the pool.
func getCols(ncols int) *colsVec {
	cv := colsPool.Get().(*colsVec)
	if cap(cv.c) < ncols {
		cv.c = make([][]uint32, ncols)
	}
	cv.c = cv.c[:ncols]
	return cv
}

// load fills the positions vecs read with col(p); every other slot stays
// nil.
func (cv *colsVec) load(vecs []*VecPred, col func(p int) []uint32) {
	for _, vp := range vecs {
		for _, p := range vp.reads {
			if cv.c[p] == nil {
				cv.c[p] = col(p)
			}
		}
	}
}

// gather copies column p of rows into pooled buffer k.
func (cv *colsVec) gather(k int, rows [][]uint32, p int) []uint32 {
	if k == len(cv.bufs) {
		cv.bufs = append(cv.bufs, nil)
	}
	b := cv.bufs[k]
	if cap(b) < len(rows) {
		b = make([]uint32, len(rows))
		cv.bufs[k] = b
	}
	b = b[:len(rows)]
	for i, row := range rows {
		b[i] = row[p]
	}
	return b
}

// release clears the directory, so the pool never pins table storage,
// and returns it with its gather buffers.
func (cv *colsVec) release() {
	clear(cv.c)
	colsPool.Put(cv)
}

// vecUsable reports whether a filter can run column-at-a-time over a
// relation of width ncols: every conjunct lowered, and every kernel's
// column positions exist (always true for plans built against the
// current epoch; checked so a stale plan degrades to the interpreter
// instead of faulting).
func vecUsable(vecs []*VecPred, n, ncols int) bool {
	if !fullyVec(vecs, n) {
		return false
	}
	for _, p := range vecs {
		if p.Width() > ncols {
			return false
		}
	}
	return true
}

// vecScan runs the pushed filter over t's column vectors and returns the
// frame of surviving rows. matched narrows the scan domain to the index
// lookup's row numbers; nil means the whole table.
func (r *run) vecScan(t *rel.Table, alias string, matched []int, vecs []*VecPred) (*frame, error) {
	f := schemaFrame(t, alias)
	n := t.NumRows()
	if matched != nil {
		n = len(matched)
	}
	sv := getSel(n)
	defer selPool.Put(sv)
	sel := sv.s[:n]
	if matched != nil {
		for i, ri := range matched {
			sel[i] = uint32(ri)
		}
	} else {
		for i := range sel {
			sel[i] = uint32(i)
		}
	}
	cv := getCols(t.NumCols())
	defer cv.release()
	cv.load(vecs, t.ColCodes)
	rows, err := r.vecRows(cv.c, sel, t.CodeRows(), vecs)
	if err != nil {
		return nil, err
	}
	f.rows = rows
	return f, nil
}

// vecFrame runs a residue over the frame's rows: the columns the
// conjuncts read are gathered into pooled buffers, then filtered exactly
// as a scan's table columns are.
func (r *run) vecFrame(f *frame, vecs []*VecPred) ([][]uint32, error) {
	n := len(f.rows)
	sv := getSel(n)
	defer selPool.Put(sv)
	sel := sv.s[:n]
	for i := range sel {
		sel[i] = uint32(i)
	}
	cv := getCols(len(f.names))
	defer cv.release()
	k := 0
	cv.load(vecs, func(p int) []uint32 {
		k++
		return cv.gather(k-1, f.rows, p)
	})
	return r.vecRows(cv.c, sel, f.rows, vecs)
}

// vecRows filters sel — indices into both cols and rows — and returns
// the rows that survive, in order.
func (r *run) vecRows(cols [][]uint32, sel []uint32, rows [][]uint32, vecs []*VecPred) ([][]uint32, error) {
	sel, err := r.vecFilter(cols, sel, vecs)
	if err != nil {
		return nil, err
	}
	out := make([][]uint32, len(sel))
	for i, ri := range sel {
		out[i] = rows[ri]
	}
	return out, nil
}

// vecFilter cascades the compiled conjuncts over the selection, serially
// or in morsel batches, returning the surviving prefix of sel.
func (r *run) vecFilter(cols [][]uint32, sel []uint32, vecs []*VecPred) ([]uint32, error) {
	r.qs.phase(obs.PhaseFilter)
	n := len(sel)
	p, workers, morsel := r.parallel(n)
	if p == nil {
		var err error
		for _, vp := range vecs {
			sel, err = vp.EvalVec(cols, sel)
			if err != nil {
				return nil, err
			}
			if len(sel) == 0 {
				break
			}
		}
		r.qs.addVec(1, n, len(sel))
		r.azVec(1, n, len(sel))
		return sel, nil
	}
	nb := pool.Batches(n, morsel)
	lens := make([]int, nb)
	st, err := p.Each(workers, n, morsel, func(batch, lo, hi int) error {
		part := sel[lo:hi]
		var err error
		for _, vp := range vecs {
			part, err = vp.EvalVec(cols, part)
			if err != nil {
				return err
			}
			if len(part) == 0 {
				break
			}
		}
		lens[batch] = len(part)
		return nil
	})
	r.qs.addParallel(st)
	if err != nil {
		return nil, err
	}
	// Concatenate the kept prefixes in batch order: batch b's survivors
	// start at b*morsel, and the write cursor can never pass that point,
	// so the in-place compaction is safe.
	w := 0
	for b := 0; b < nb; b++ {
		lo := b * morsel
		w += copy(sel[w:], sel[lo:lo+lens[b]])
	}
	r.qs.addVec(nb, n, w)
	r.azVec(nb, n, w)
	return sel[:w], nil
}
