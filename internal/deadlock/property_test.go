package deadlock

import (
	"fmt"
	"math/rand"
	"testing"
)

// randDepRows generates a small random dependency table over a handful of
// messages, roles, channels and origins.
func randDepRows(rng *rand.Rand, n int) []DepRow {
	msgs := []string{"m1", "m2", "m3"}
	roles := []string{"local", "home", "remote"}
	vcs := []string{"VC0", "VC1", "VC2"}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	out := make([]DepRow, n)
	for i := range out {
		out[i] = DepRow{
			In:     VAssign{M: pick(msgs), S: pick(roles), D: pick(roles), VC: pick(vcs)},
			Out:    VAssign{M: pick(msgs), S: pick(roles), D: pick(roles), VC: pick(vcs)},
			Origin: fmt.Sprintf("t%d", rng.Intn(3)),
		}
	}
	return out
}

// withTwins appends, for about half the rows, a twin with the same
// assignments except for a random output message and origin, so that
// composition sides collide and exact and relaxed matching differ.
func withTwins(rng *rand.Rand, rows []DepRow) []DepRow {
	out := append([]DepRow(nil), rows...)
	for _, r := range rows {
		if rng.Intn(2) == 0 {
			r.Out.M = fmt.Sprintf("m%d", 1+rng.Intn(3))
			r.Origin = fmt.Sprintf("t%d", rng.Intn(3))
			out = append(out, r)
		}
	}
	return out
}

// Property: relaxed composition finds a superset of exact composition.
func TestQuickRelaxedSupersetOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		a := withTwins(rng, randDepRows(rng, 1+rng.Intn(10)))
		b := withTwins(rng, randDepRows(rng, 1+rng.Intn(10)))
		exact := composeRows(t, a, b, false)
		relaxed := composeRows(t, a, b, true)
		// Every exact composition appears among the relaxed ones.
		have := map[[2]VAssign]bool{}
		for _, r := range relaxed {
			have[[2]VAssign{r.In, r.Out}] = true
		}
		for _, r := range exact {
			if !have[[2]VAssign{r.In, r.Out}] {
				t.Fatalf("trial %d: exact row %s lost under relaxation", trial, r)
			}
		}
	}
}

// Property: relaxed composition pairs each distinct (input, output
// endpoints and channel) half of the first table with each matching
// (input endpoints and channel, output) half of the second, once, named
// after the least-origin row behind each half. It never invents
// assignments.
func TestQuickComposeProvenance(t *testing.T) {
	type key [3]string
	type half struct {
		a VAssign
		k key
	}
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		a := withTwins(rng, randDepRows(rng, 1+rng.Intn(8)))
		b := withTwins(rng, randDepRows(rng, 1+rng.Intn(8)))
		least := func(m map[half]string, h half, origin string) {
			if o, ok := m[h]; !ok || origin < o {
				m[h] = origin
			}
		}
		lefts, rights := map[half]string{}, map[half]string{}
		for _, r := range a {
			least(lefts, half{r.In, key{r.Out.S, r.Out.D, r.Out.VC}}, r.Origin)
		}
		for _, s := range b {
			least(rights, half{s.Out, key{s.In.S, s.In.D, s.In.VC}}, s.Origin)
		}
		want := map[DepRow]int{}
		for l, lo := range lefts {
			for r, ro := range rights {
				if l.k == r.k {
					want[DepRow{In: l.a, Out: r.a, Origin: lo + "*" + ro}]++
				}
			}
		}
		for _, r := range composeRows(t, a, b, true) {
			if want[r] == 0 {
				t.Fatalf("trial %d: composed row %s not grounded in inputs", trial, r)
			}
			want[r]--
		}
		for r, n := range want {
			if n != 0 {
				t.Fatalf("trial %d: row %s composed %d times too few", trial, r, n)
			}
		}
	}
}

// Property: a placement substitutes roles and nothing else: every placed
// row is some input row with the placement applied to its roles, named
// after that row and the placement.
func TestQuickPlacementPreservesChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 100; trial++ {
		rows := randDepRows(rng, 1+rng.Intn(10))
		for _, p := range Placements() {
			want := map[DepRow]bool{}
			for _, r := range rows {
				m := r
				m.In.S, m.In.D = p.Apply(r.In.S), p.Apply(r.In.D)
				m.Out.S, m.Out.D = p.Apply(r.Out.S), p.Apply(r.Out.D)
				m.Origin += "@" + p.Name
				want[m] = true
			}
			placed := map[[2]VAssign]bool{}
			for _, m := range placeRows(t, rows, p) {
				if !want[m] {
					t.Fatalf("trial %d: placement %s produced %s from no input row", trial, p.Name, m)
				}
				placed[[2]VAssign{m.In, m.Out}] = true
			}
			for m := range want {
				if !placed[[2]VAssign{m.In, m.Out}] {
					t.Fatalf("trial %d: placement %s lost %s", trial, p.Name, m)
				}
			}
		}
	}
}

// Property: collapsing duplicates keeps one row per distinct dependency,
// in first-occurrence order, named by its least origin, and is
// idempotent.
func TestQuickDedupeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 100; trial++ {
		rows := randDepRows(rng, rng.Intn(20))
		type key struct{ In, Out VAssign }
		least := map[key]string{}
		var order []key
		for _, r := range rows {
			k := key{r.In, r.Out}
			if o, seen := least[k]; !seen {
				order = append(order, k)
				least[k] = r.Origin
			} else if r.Origin < o {
				least[k] = r.Origin
			}
		}
		d1 := collapseRows(t, rows)
		if len(d1) != len(order) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(d1), len(order))
		}
		for i, r := range d1 {
			if k := (key{r.In, r.Out}); k != order[i] || r.Origin != least[k] {
				t.Fatalf("trial %d: row %d = %s, want %v from %s", trial, i, r, order[i], least[order[i]])
			}
		}
		d2 := collapseRows(t, d1)
		if len(d1) != len(d2) {
			t.Fatalf("trial %d: collapse not idempotent", trial)
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("trial %d: collapse reordered or renamed", trial)
			}
		}
	}
}

// Property: the VCG edge set is exactly the distinct (vc1, vc2) pairs.
func TestQuickVCGEdgesMatchRows(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 50; trial++ {
		rows := randDepRows(rng, 1+rng.Intn(30))
		g := NewVCG(rows)
		want := map[Edge]bool{}
		for _, r := range rows {
			want[Edge{From: r.In.VC, To: r.Out.VC}] = true
		}
		got := g.Edges()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d edges, want %d", trial, len(got), len(want))
		}
		for _, e := range got {
			if !want[e] {
				t.Fatalf("trial %d: phantom edge %s", trial, e)
			}
			if len(g.Evidence(e)) == 0 {
				t.Fatalf("trial %d: edge %s has no evidence", trial, e)
			}
		}
	}
}
