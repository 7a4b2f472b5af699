package core

import (
	"math/rand"
	"slices"
	"testing"

	"taco/internal/ref"
)

// filledColumns returns the dependencies of filled-down formula columns, one
// per compression pattern, each rows cells long:
//
//	C: =SUM(An:An+2)   RR (sliding window)
//	D: =Dn-1           RR-Chain (D1 holds no formula)
//	E: =SUM($A$1:An)   FR (running total)
//	F: =SUM($B$1:$B$50)*... FF
//	row 5000, columns 10..: =SUM($A$4990:x4990) FR along the row axis
func filledColumns(rows int) map[ref.Ref]Dependency {
	deps := map[ref.Ref]Dependency{}
	add := func(d Dependency) { deps[d.Dep] = d }
	for r := 1; r <= rows; r++ {
		add(Dependency{Prec: ref.RangeOf(ref.Ref{Col: 1, Row: r}, ref.Ref{Col: 1, Row: r + 2}), Dep: ref.Ref{Col: 3, Row: r}})
		if r > 1 {
			add(Dependency{Prec: ref.CellRange(ref.Ref{Col: 4, Row: r - 1}), Dep: ref.Ref{Col: 4, Row: r}})
		}
		add(Dependency{Prec: ref.RangeOf(ref.Ref{Col: 1, Row: 1}, ref.Ref{Col: 1, Row: r}), Dep: ref.Ref{Col: 5, Row: r}, HeadFixed: true})
		add(Dependency{Prec: ref.RangeOf(ref.Ref{Col: 2, Row: 1}, ref.Ref{Col: 2, Row: 50}), Dep: ref.Ref{Col: 6, Row: r}, HeadFixed: true, TailFixed: true})
		add(Dependency{Prec: ref.RangeOf(ref.Ref{Col: 1, Row: 4990}, ref.Ref{Col: 9 + r, Row: 4990}), Dep: ref.Ref{Col: 9 + r, Row: 5000}, HeadFixed: true})
	}
	return deps
}

// sortedDeps is the graph's decompressed dependency list in a canonical
// order, for lossless-ness comparisons.
func sortedDeps(g *Graph) []Dependency {
	out := g.Dependencies()
	for i := range out {
		out[i].HeadFixed, out[i].TailFixed = false, false
	}
	slices.SortFunc(out, func(a, b Dependency) int {
		if c := ref.ColumnMajorCompare(a.Dep, b.Dep); c != 0 {
			return c
		}
		return ref.ColumnMajorCompare(a.Prec.Head, b.Prec.Head)
	})
	return out
}

// rewrite models an identical formula update the way the engine does it:
// clear the cell's dependencies, then add the same ones back.
func rewrite(g *Graph, d Dependency) {
	g.Clear(ref.CellRange(d.Dep))
	g.AddDependency(d)
}

// TestIdenticalRewritesKeepEdgeCount: rewriting every cell of filled-down
// RR, RR-Chain, FR and FF runs (and a row-axis FR run) with its own formula,
// in random order, leaves the compressed edge count exactly as loaded and
// the represented dependencies unchanged.
func TestIdenticalRewritesKeepEdgeCount(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		deps := filledColumns(60)
		var list []Dependency
		for _, d := range deps {
			list = append(list, d)
		}
		slices.SortFunc(list, func(a, b Dependency) int { return ref.ColumnMajorCompare(a.Dep, b.Dep) })
		g := Build(list, DefaultOptions())
		edges, want := g.NumEdges(), sortedDeps(g)
		if edges != 5 {
			t.Fatalf("loaded %d edges, want one per run (5)", edges)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, i := range rng.Perm(len(list)) {
			rewrite(g, list[i])
			if err := g.Check(); err != nil {
				t.Fatalf("seed %d, after rewriting %v: %v", seed, list[i].Dep, err)
			}
		}
		if g.NumEdges() != edges {
			t.Errorf("seed %d: %d edges after rewrites, loaded with %d", seed, g.NumEdges(), edges)
		}
		if got := sortedDeps(g); !slices.Equal(got, want) {
			t.Errorf("seed %d: rewrites changed the represented dependencies", seed)
		}
	}
}

// TestRewriteNearRunEndRejoinsSingle: rewriting the second-to-last cell of
// a running total splits off the last cell as a Single; adding the formula
// back must absorb it again instead of leaving it uncompressed for good.
func TestRewriteNearRunEndRejoinsSingle(t *testing.T) {
	var list []Dependency
	for r := 1; r <= 100; r++ {
		list = append(list, Dependency{Prec: ref.RangeOf(ref.Ref{Col: 4, Row: 1}, ref.Ref{Col: 4, Row: r}), Dep: ref.Ref{Col: 5, Row: r}, HeadFixed: true})
	}
	g := Build(list, DefaultOptions())
	rewrite(g, list[98])
	if g.NumEdges() != 1 {
		g.Edges(func(e *Edge) bool { t.Log(e); return true })
		t.Fatalf("%d edges after rewriting E99, want 1", g.NumEdges())
	}
	g.Edges(func(e *Edge) bool {
		if e.Pattern != FR || e.Dep != ref.MustRange("E1:E100") {
			t.Errorf("edge %v, want D1:D100 -> E1:E100 [FR]", e)
		}
		return true
	})
}

// TestRandomRewritesDoNotFragmentRun: interior rewrites split a run in two;
// re-adding the formula must rejoin both halves, so 50 random rewrites of a
// 2,500-row running total still leave one FR edge.
func TestRandomRewritesDoNotFragmentRun(t *testing.T) {
	var list []Dependency
	for r := 1; r <= 2500; r++ {
		list = append(list, Dependency{Prec: ref.RangeOf(ref.Ref{Col: 4, Row: 1}, ref.Ref{Col: 4, Row: r}), Dep: ref.Ref{Col: 5, Row: r}, HeadFixed: true})
	}
	g := Build(list, DefaultOptions())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		rewrite(g, list[rng.Intn(len(list))])
	}
	if g.NumEdges() != 1 {
		t.Fatalf("%d edges after 50 identical rewrites, want 1", g.NumEdges())
	}
}
