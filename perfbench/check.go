package main

import (
	"fmt"
	"slices"
	"sync"

	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
	"taco/internal/server"
	"taco/internal/workload"
)

// The output check. After the timed phase every surviving session is read
// back in full behind a ?wait=1 barrier and compared, cell by cell, with a
// serial reference engine built from the generated sheet plus the edits the
// server acknowledged. The reference evaluates with parallelism 1 over the
// uncompressed NoComp graph, so it shares neither the wavefront drain nor
// the compressed graph with the server. Sampled query answers are compared
// with nocomp.Graph on the same dependencies. The edit mixes never change a
// formula's text (EditStreamMix rewrites a formula with itself) and only
// clear value cells, so the dependency set is the generated sheet's
// throughout a run.

// reference is one session's serial reference engine and its NoComp graph.
type reference struct {
	eng   *engine.Engine
	graph *nocomp.Graph
}

// buildReference loads sh into a fresh engine; engines evaluate serially
// unless given a recalc parallelism above 1, so Load's full recalculation is
// the serial evaluator's.
func buildReference(sh *workload.Sheet) (*reference, error) {
	g := nocomp.NewGraph()
	eng, err := engine.Load(sh, engine.NoComp{G: g})
	if err != nil {
		return nil, err
	}
	return &reference{eng: eng, graph: g}, nil
}

// check reads back every live session and the sampled answers; it returns
// how many checks ran, how many failed, and the first few failures.
func (b *bench) check(p *plan, st *runState, c *client, answers []answer) (checked, failed int, errs []string) {
	fail := func(format string, a ...any) {
		failed++
		if len(errs) < 8 {
			errs = append(errs, fmt.Sprintf(format, a...))
		}
	}
	var live []int
	for i := range p.sessions {
		if st.alive[i] {
			live = append(live, i)
		}
	}
	refs := make(map[int]*reference, len(live))
	refErr := make(map[int]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r, err := buildReference(finalSheet(p.sessions[i].sheet, st.acked[i]))
				mu.Lock()
				refs[i], refErr[i] = r, err
				mu.Unlock()
			}
		}()
	}
	for _, i := range live {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, i := range live {
		checked++
		s := p.sessions[i]
		if refErr[i] != nil {
			fail("%s: reference: %v", s.name, refErr[i])
			continue
		}
		got, err := readAll(c, st.ids[i], s.bounds)
		if err != nil {
			fail("%s: read back: %v", s.name, err)
			continue
		}
		if diffs := diffCells(refs[i].eng, s.bounds, got); len(diffs) > 0 {
			fail("%s: %d cells differ from the reference, first: %s", s.name, len(diffs), diffs[0])
		}
	}
	for _, a := range answers {
		r := refs[a.sess]
		if r == nil {
			continue // closed since; its graph is the generated sheet's, but skip
		}
		checked++
		var want []ref.Range
		if a.dependents {
			want = r.graph.FindDependents(a.seed)
		} else {
			want = r.graph.FindPrecedents(a.seed)
		}
		got := make([]ref.Range, 0, len(a.ranges))
		for _, s := range a.ranges {
			rr, err := ref.ParseRangeA1(s)
			if err != nil {
				fail("%s: bad range %q in answer", p.sessions[a.sess].name, s)
				continue
			}
			got = append(got, rr)
		}
		if !sameCells(got, want) {
			fail("%s: %s of %v: server answered %d cells, NoComp %d", p.sessions[a.sess].name,
				map[bool]string{true: "dependents", false: "precedents"}[a.dependents], a.seed, a.cells, countCells(want))
		}
	}
	return checked, failed, errs
}

// readAll fetches every cell of bounds in chunks under the range-read cap,
// each behind the ?wait=1 barrier.
func readAll(c *client, id string, bounds ref.Range) ([]server.CellOut, error) {
	cols := bounds.Tail.Col - bounds.Head.Col + 1
	step := max(1, 60000/cols)
	var out []server.CellOut
	for top := bounds.Head.Row; top <= bounds.Tail.Row; top += step {
		rng := ref.Range{Head: ref.Ref{Col: bounds.Head.Col, Row: top},
			Tail: ref.Ref{Col: bounds.Tail.Col, Row: min(top+step-1, bounds.Tail.Row)}}
		var res server.CellsResult
		if err := c.do("GET", "/sessions/"+id+"/cells?wait=1&range="+rng.String(), nil, &res); err != nil {
			return nil, err
		}
		out = append(out, res.Cells...)
	}
	return out, nil
}

// diffCells compares a server read-back of rng with the reference engine and
// describes every difference: a value that differs, a cell only one side
// holds, or a cell still pending after the barrier.
func diffCells(want *engine.Engine, rng ref.Range, got []server.CellOut) []string {
	var diffs []string
	byRef := make(map[ref.Ref]server.CellOut, len(got))
	for _, c := range got {
		at, err := ref.ParseA1(c.Cell)
		if err != nil {
			diffs = append(diffs, fmt.Sprintf("unparsable cell %q", c.Cell))
			continue
		}
		byRef[at] = c
	}
	want.ScanRange(rng, func(at ref.Ref, v formula.Value, src string, clean bool) bool {
		if v.Kind == formula.KindEmpty && src == "" && clean {
			return true
		}
		c, ok := byRef[at]
		delete(byRef, at)
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s missing, want %v", ref.FormatA1(at), v))
		case c.Pending:
			diffs = append(diffs, fmt.Sprintf("%s still pending after the barrier", c.Cell))
		case !sameValue(c, v):
			diffs = append(diffs, fmt.Sprintf("%s = {%s %v %q %v %q}, want %v", c.Cell, c.Kind, c.Num, c.Str, c.Bool, c.Error, v))
		}
		return true
	})
	for at, c := range byRef {
		if c.Kind != "empty" || c.Formula != "" {
			diffs = append(diffs, fmt.Sprintf("%s present on the server only", ref.FormatA1(at)))
		}
	}
	return diffs
}

// sameValue compares exactly. Numbers compare as numbers, so -0 equals 0:
// the API's JSON omits a zero "num", which drops the sign of a negative
// zero (see README.md).
func sameValue(c server.CellOut, v formula.Value) bool {
	switch v.Kind {
	case formula.KindEmpty:
		return c.Kind == "empty"
	case formula.KindNumber:
		return c.Kind == "number" && c.Num == v.Num
	case formula.KindString:
		return c.Kind == "string" && c.Str == v.Str
	case formula.KindBool:
		return c.Kind == "bool" && c.Bool == v.Bool
	case formula.KindError:
		return c.Kind == "error" && c.Error == v.Err
	}
	return false
}

// sameCells reports whether two range lists cover the same cells, however
// they are split into rectangles.
func sameCells(a, b []ref.Range) bool {
	return slices.Equal(columnIntervals(a), columnIntervals(b))
}

// columnIntervals normalises a range list to sorted, merged row intervals
// per column, flattened as (col, lo, hi) triples.
func columnIntervals(rs []ref.Range) []int {
	var iv [][3]int
	for _, r := range rs {
		for col := r.Head.Col; col <= r.Tail.Col; col++ {
			iv = append(iv, [3]int{col, r.Head.Row, r.Tail.Row})
		}
	}
	slices.SortFunc(iv, func(x, y [3]int) int {
		if x[0] != y[0] {
			return x[0] - y[0]
		}
		return x[1] - y[1]
	})
	var out []int
	for _, v := range iv {
		n := len(out)
		if n > 0 && out[n-3] == v[0] && v[1] <= out[n-1]+1 {
			out[n-1] = max(out[n-1], v[2])
			continue
		}
		out = append(out, v[0], v[1], v[2])
	}
	return out
}

func countCells(rs []ref.Range) int {
	n := 0
	for _, r := range rs {
		n += r.Size()
	}
	return n
}
