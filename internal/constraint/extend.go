package constraint

import (
	"sync"

	"coherdb/internal/rel"
)

// extendStats reports one extension step's work.
type extendStats struct {
	tested   uint64 // candidate (row, value) pairs decided
	memoHits uint64 // pairs decided from the projection memo
}

// extendCompiled extends every row in cur (width-1 codes each) with every
// code in domain, keeping extensions on which all fire predicates hold.
// Rows are dictionary-code rows throughout — the solver never boxes a
// rel.Value between the domain encoding and the final table. Output rows
// preserve input order: row i's surviving extensions precede row i+1's,
// in domain order — the same order the sequential loop would produce.
//
// The firing constraints only read the columns in refs (positions into the
// extended row; the new column is position width-1). Their verdict for a
// candidate therefore depends only on the row's projection onto the old
// referenced columns plus the appended domain value — so rows are grouped
// by that projection and each distinct (projection, value) pair is
// evaluated once. The readex fragment has thousands of intermediate rows
// but only dozens of distinct projections; work drops from
// O(rows x domain) evaluations to O(groups x domain).
func extendCompiled(cur [][]uint32, width int, domain []uint32, fire []compiledConstraint, refs []int, workers int) ([][]uint32, extendStats, error) {
	var st extendStats
	if len(cur) == 0 || len(domain) == 0 {
		return nil, st, nil
	}
	dlen := len(domain)
	st.tested = uint64(len(cur)) * uint64(dlen)

	if len(fire) == 0 {
		// Nothing to check: pure cross product.
		return extension{cur: cur, width: width, domain: domain}.build(workers), st, nil
	}

	// Group rows by their projection onto the referenced old columns. The
	// new column (position width-1) contributes the domain sweep instead.
	oldRefs := refs[:0:0]
	for _, p := range refs {
		if p < width-1 {
			oldRefs = append(oldRefs, p)
		}
	}
	groupOf := make([]int32, len(cur))
	var reps []int32 // representative row per group
	if len(oldRefs) == width-1 {
		// The projection keeps every old column, and cur rows are distinct
		// by construction (distinct extensions of distinct rows), so every
		// row is its own group: skip the key table.
		reps = make([]int32, len(cur))
		for i := range cur {
			groupOf[i] = int32(i)
			reps[i] = int32(i)
		}
	} else {
		keys := newGroupTable(len(cur) / 4)
		var kb []byte
		for i, row := range cur {
			kb = kb[:0]
			for _, p := range oldRefs {
				// 4 bytes per code, no separators: fixed-width and injective.
				kb = rel.AppendCodeKey(kb, row[p])
			}
			g := keys.intern(kb)
			if int(g) == len(reps) {
				reps = append(reps, int32(i))
			}
			groupOf[i] = g
		}
	}
	st.memoHits = uint64(len(cur)-len(reps)) * uint64(dlen)

	// Evaluate each distinct (projection, value) pair once, in parallel.
	verdicts := make([]bool, len(reps)*dlen)
	if err := evalGroups(cur, domain, fire, reps, verdicts, workers); err != nil {
		return nil, st, err
	}

	// Emit surviving extensions, work-stealing over row batches and
	// reassembling in batch order for determinism.
	x := extension{cur: cur, width: width, domain: domain, groupOf: groupOf, verdicts: verdicts}
	return x.build(workers), st, nil
}

// sweepSmallJob is the work volume below which a step runs inline on the
// calling goroutine: dealing single-group batches through the cursor to
// a spawned worker set costs more than the evaluations themselves. The
// Figure 3 fragment micro-solves (BenchmarkGenerateIncremental) sit
// entirely below this; see BENCH_8.json for the tuning.
const sweepSmallJob = 4096

// sweeper is one goroutine's scratch for a set of compiled constraints:
// the selection vector of lanes the cascade filters.
type sweeper struct {
	cc  []compiledConstraint
	sel []uint32
}

// cascade runs the constraints on row with their fire column swept across
// domain, each filtering the lanes the previous ones kept and stopping
// once none are left, and returns the lanes on which all of them are
// definitely true. The result aliases the sweeper's scratch.
func (s *sweeper) cascade(row, domain []uint32) ([]uint32, error) {
	if cap(s.sel) < len(domain) {
		s.sel = make([]uint32, len(domain))
	}
	sel := s.sel[:len(domain)]
	for i := range sel {
		sel[i] = uint32(i)
	}
	for _, c := range s.cc {
		var err error
		if sel, err = c.pred.EvalSweep(row, domain, sel); err != nil || len(sel) == 0 {
			return sel, err
		}
	}
	return sel, nil
}

// decide fills the verdict lanes of groups [lo, hi): each group's
// representative row is extended with the whole domain, and the lanes
// the cascade keeps are marked true; verdicts starts all false.
func (s *sweeper) decide(cur [][]uint32, domain []uint32, reps []int32, verdicts []bool, lo, hi int) error {
	dlen := len(domain)
	for g := lo; g < hi; g++ {
		sel, err := s.cascade(cur[reps[g]], domain)
		if err != nil {
			return err
		}
		for _, di := range sel {
			verdicts[g*dlen+int(di)] = true
		}
	}
	return nil
}

// evalGroups fills verdicts[g*len(domain)+di] for every group g and domain
// index di by running the fire predicates on the group's representative
// row extended with domain[di]. One EvalSweep call decides the whole
// domain for one (group, constraint) pair, evaluating sweep-stable rule
// conditions once per group and the sweep-reading leaves as tight loops
// over the domain's code vector.
func evalGroups(cur [][]uint32, domain []uint32, fire []compiledConstraint, reps []int32, verdicts []bool, workers int) error {
	if workers <= 1 || len(reps)*len(domain) < sweepSmallJob {
		// Small-step fast path: sweep inline on the calling goroutine.
		sw := sweeper{cc: fire}
		return sw.decide(cur, domain, reps, verdicts, 0, len(reps))
	}
	cursor := newBatchCursor(uint64(len(reps)), workers)
	nw := workers
	if nb := cursor.numBatches(); nw > nb {
		nw = nb
	}
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sw := sweeper{cc: fire}
			for {
				_, lo, hi, ok := cursor.grab()
				if !ok {
					return
				}
				if err := sw.decide(cur, domain, reps, verdicts, int(lo), int(hi)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// extension is one step's row extension: every row of cur extended with
// every domain code whose verdict lane passes, row i reading the lanes of
// group groupOf[i]. Nil verdicts keep every extension — the unconstrained
// cross product.
type extension struct {
	cur      [][]uint32
	width    int
	domain   []uint32
	groupOf  []int32
	verdicts []bool
}

// lanes returns row i's verdict lanes, or nil when every extension
// survives.
func (x *extension) lanes(i int) []bool {
	if x.verdicts == nil {
		return nil
	}
	base := int(x.groupOf[i]) * len(x.domain)
	return x.verdicts[base : base+len(x.domain)]
}

// rows builds the surviving extensions of cur[lo:hi] in row, then domain,
// order. Survivors are counted first so they come from one exactly-sized
// arena chunk and one output slice.
func (x *extension) rows(arena *codeArena, lo, hi int) [][]uint32 {
	cnt := (hi - lo) * len(x.domain)
	if x.verdicts != nil {
		cnt = 0
		for i := lo; i < hi; i++ {
			for _, pass := range x.lanes(i) {
				if pass {
					cnt++
				}
			}
		}
	}
	if cnt == 0 {
		return nil
	}
	arena.reserve(cnt * x.width)
	out := make([][]uint32, 0, cnt)
	for i := lo; i < hi; i++ {
		lanes := x.lanes(i)
		for di, c := range x.domain {
			if lanes != nil && !lanes[di] {
				continue
			}
			nr := arena.row(x.width)
			copy(nr, x.cur[i])
			nr[x.width-1] = c
			out = append(out, nr)
		}
	}
	return out
}

// build materializes the extension: inline on the calling goroutine when
// the step is small, otherwise over work-stealing row batches.
func (x extension) build(workers int) [][]uint32 {
	if workers <= 1 || len(x.cur)*len(x.domain) < sweepSmallJob {
		var arena codeArena
		return x.rows(&arena, 0, len(x.cur))
	}
	return x.buildBatched(workers)
}

// buildBatched deals row batches to up to workers goroutines, each
// allocating from its own arena (one chunk per ~2000 code rows instead of
// one per row); batches reassemble in index order, so output order never
// depends on the split.
func (x extension) buildBatched(workers int) [][]uint32 {
	cursor := newBatchCursor(uint64(len(x.cur)), workers)
	nb := cursor.numBatches()
	nw := workers
	if nw > nb {
		nw = nb
	}
	perBatch := make([][][]uint32, nb)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena codeArena
			for {
				idx, lo, hi, ok := cursor.grab()
				if !ok {
					return
				}
				perBatch[idx] = x.rows(&arena, int(lo), int(hi))
			}
		}()
	}
	wg.Wait()
	return flattenBatches(perBatch)
}

// flattenBatches concatenates per-batch row slices in batch order.
func flattenBatches(perBatch [][][]uint32) [][]uint32 {
	total := 0
	for _, b := range perBatch {
		total += len(b)
	}
	if total == 0 {
		return nil
	}
	out := make([][]uint32, 0, total)
	for _, b := range perBatch {
		out = append(out, b...)
	}
	return out
}
