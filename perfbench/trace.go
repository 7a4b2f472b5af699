package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"taco/internal/core"
	"taco/internal/engine"
	"taco/internal/formula"
	"taco/internal/nocomp"
	"taco/internal/ref"
	"taco/internal/server"
	"taco/internal/telemetry"
	"taco/internal/workload"
	"taco/internal/xlsx"
)

// The traced run's in-process half. It replays the op log of the HTTP run
// against the program's public Go API with a span around every call into a
// layer: server.Store, the engine calls made inside store callbacks, the
// formula parser and compiler, the xlsx reader, and the compressed graph
// (core) through a delegating engine.Graph handed to engine.Load. Spans live
// in memory and are written out when the run ends.

// span is one timed call. Calls made very often (graph maintenance, parses)
// are aggregated per parent: count calls, dur their summed duration.
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	op         int32
	count      int32
	dur        time.Duration
}

type aggKey struct {
	parent int32
	name   string
}

// tracer records spans. Spans nest by call order on one goroutine (the
// replay is serial); the mutex only guards the record against graph calls
// a drain might make from elsewhere.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int32
	op    int32
	agg   map[aggKey]int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), agg: map[aggKey]int32{}} }

func (t *tracer) top() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

func (t *tracer) begin(name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: t.top(), op: t.op, count: 1})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	s.dur = s.end - s.start
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// hot adds one call that started at s to the aggregate span name under the
// current parent.
func (t *tracer) hot(name string, s time.Time) {
	d := time.Since(s)
	t.mu.Lock()
	defer t.mu.Unlock()
	k := aggKey{t.top(), name}
	id, ok := t.agg[k]
	if !ok {
		id = int32(len(t.spans))
		t.agg[k] = id
		t.spans = append(t.spans, span{name: name, start: s.Sub(t.t0), parent: k.parent, op: t.op})
	}
	sp := &t.spans[id]
	sp.count++
	sp.dur += d
	sp.end = time.Since(t.t0)
}

// tracedGraph is the delegating engine.Graph: every call reaches the
// compressed graph through a span. It implements the engine's optional
// one-hop and run-span extensions too, so the engine drains exactly as it
// does over engine.TACO.
type tracedGraph struct {
	g                 *core.Graph
	tr                *tracer
	accesses, queries int
}

func (t *tracedGraph) Add(d core.Dependency) {
	s := time.Now()
	t.g.AddDependency(d)
	t.tr.hot("core.Add", s)
}

func (t *tracedGraph) Clear(r ref.Range) {
	s := time.Now()
	t.g.Clear(r)
	t.tr.hot("core.Clear", s)
}

func (t *tracedGraph) Dependents(r ref.Range) []ref.Range {
	s := time.Now()
	out, st := t.g.FindDependentsStats(r)
	t.tr.hot("core.Dependents", s)
	t.accesses += st.EdgeAccesses
	t.queries++
	return out
}

func (t *tracedGraph) Precedents(r ref.Range) []ref.Range {
	s := time.Now()
	out := t.g.FindPrecedents(r)
	t.tr.hot("core.Precedents", s)
	return out
}

func (t *tracedGraph) DirectPrecedents(r ref.Range, fn func(ref.Range) bool) {
	s := time.Now()
	t.g.DirectPrecedents(r, fn)
	t.tr.hot("core.DirectPrecedents", s)
}

func (t *tracedGraph) PatternRunSpans(r ref.Range, fn func(span ref.Range, p core.PatternType) bool) {
	s := time.Now()
	t.g.PatternRunSpans(r, fn)
	t.tr.hot("core.PatternRunSpans", s)
}

func (t *tracedGraph) DirectPrecedentsEach(r ref.Range, edge func(depSpan, precSpan ref.Range) bool, fn func(dep ref.Ref, prec ref.Range) bool) {
	s := time.Now()
	t.g.DirectPrecedentsEach(r, edge, fn)
	t.tr.hot("core.DirectPrecedents", s)
}

// replayResult is what the in-process replay measured beyond its spans.
type replayResult struct {
	tr             *tracer
	setupSpans     int // spans[:setupSpans] belong to the set-up phase
	opsEnd         int // spans[setupSpans:opsEnd] to the op phase; the rest to probes
	ops            int
	edits          int
	dirtyCells     int
	forksSkipped   int
	faultinMs      []float64
	drainMs        []float64
	graphs         map[int]*tracedGraph
	accesses       int
	queries        int
	tacoEdges      int
	deps           int
	tacoVertices   int
	nocompVertices int
	nocompRatio    float64
	ratioSeeds     int
	snapBytes      int
	snapCells      int
	cellsEvaluated float64
	schedBuilds    float64
}

// replay runs the op log in process. The store is non-durable (journal
// figures come from the HTTP run); background draining is off and each
// batch's drain runs right after it as chunked RecalculateN calls, so
// evaluation time is charged to the engine instead of hiding in a store
// worker.
func (b *bench) replay(p *plan, ops []op) (*replayResult, error) {
	dir := filepath.Join(b.work, p.workload+"-replay")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	opts := server.StoreOptions{RecalcWorkers: -1}
	if p.maxResident > 0 {
		opts.MaxResident, opts.SpillDir = p.maxResident, dir
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	st, err := server.NewStore(opts)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	tr := newTracer()
	rr := &replayResult{tr: tr, graphs: map[int]*tracedGraph{}}
	ids := make([]string, len(p.sessions))

	open := func(i int) error {
		s := p.sessions[i]
		var sheets []*workload.Sheet
		var err error
		tr.do("xlsx.Read", func() { sheets, err = xlsx.Read(bytes.NewReader(s.xlsx), int64(len(s.xlsx))) })
		if err != nil || len(sheets) == 0 {
			return fmt.Errorf("xlsx.Read %s: %v", s.name, err)
		}
		sh := sheets[0]
		for at, c := range sh.Cells {
			if !c.IsFormula() {
				continue
			}
			t0 := time.Now()
			ast, err := formula.ParseCached(c.Formula)
			tr.hot("formula.Parse", t0)
			if err != nil {
				return fmt.Errorf("parse %s!%v: %w", s.name, at, err)
			}
			t0 = time.Now()
			formula.CompileCached(ast, at)
			tr.hot("formula.CompileCached", t0)
		}
		var eng *engine.Engine
		tr.do("engine.Load", func() {
			if p.maxResident > 0 {
				// Spilling needs an engine.TACO graph (only TACO-backed
				// engines snapshot), so these engines load the way the
				// server's upload does and core is reached through
				// Engine.TACOGraph instead.
				eng, err = engine.LoadBulk(sh)
				return
			}
			g := &tracedGraph{g: core.NewGraph(core.DefaultOptions()), tr: tr}
			rr.graphs[i] = g
			eng, err = engine.Load(sh, g)
		})
		if err != nil {
			return fmt.Errorf("engine.Load %s: %w", s.name, err)
		}
		tr.do("store.Create", func() { ids[i] = st.Create(s.name, eng).ID })
		return nil
	}

	for i, s := range p.sessions {
		if s.opened {
			continue
		}
		tr.op = -1
		root := tr.begin("op.setup")
		err := open(i)
		tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	rr.setupSpans = len(tr.spans)
	cells0 := processCounter("taco_engine_cells_evaluated_total")
	builds0 := processCounter("taco_sched_builds_total")

	resident := func(id string) bool {
		s, err := st.Peek(id)
		return err == nil && s.Resident()
	}
	query := func(eng *engine.Engine, dependents bool, rng ref.Range) {
		if g := eng.TACOGraph(); g != nil {
			coreQuery(tr, rr, g, dependents, rng)
			return
		}
		tr.do("engine.Query", func() {
			if dependents {
				eng.Dependents(rng)
			} else {
				eng.Precedents(rng)
			}
		})
	}
	read := func(id string, rng ref.Range) error {
		scan := func(_ *server.Session, eng *engine.Engine) error {
			tr.do("engine.ScanRange", func() {
				eng.ScanRange(rng, func(ref.Ref, formula.Value, string, bool) bool { return true })
			})
			return nil
		}
		var handled bool
		var err error
		tr.do("store.View", func() { handled, err = st.TryView(id, scan) })
		if err == nil && !handled {
			tr.do("store.ReadSpilled", func() {
				handled, err = st.ReadSpilled(id, func(br *bufio.Reader, _ uint64) error {
					var serr error
					tr.do("engine.ScanSnapshot", func() {
						_, serr = engine.ScanSnapshotCellsInRange(br, rng, func(engine.SnapshotCell) bool { return true })
					})
					return serr
				})
			})
		}
		if err == nil && !handled {
			s0, wasResident := time.Now(), resident(id)
			tr.do("store.View", func() { err = st.View(id, scan) })
			if !wasResident {
				rr.faultinMs = append(rr.faultinMs, ms(time.Since(s0)))
			}
		}
		return err
	}
	drain := func(id, name string) error {
		var err error
		var evalTime time.Duration
		tr.do(name, func() {
			for pending := 1; pending > 0 && err == nil; {
				err = st.Update(id, false, func(_ *server.Session, eng *engine.Engine) error {
					t0 := time.Now()
					tr.do("engine.RecalculateN", func() { eng.RecalculateN(256) })
					evalTime += time.Since(t0)
					pending = eng.Pending()
					return nil
				})
			}
			if err == nil && name == "store.Wait" {
				err = st.Wait(id)
			}
		})
		rr.drainMs = append(rr.drainMs, ms(evalTime))
		return err
	}

	for k, x := range ops {
		tr.op = int32(k)
		root := tr.begin("op." + x.kind.String())
		id := ids[x.sess]
		var err error
		switch x.kind {
		case opDependents, opPrecedents:
			dep := x.kind == opDependents
			fn := func(_ *server.Session, eng *engine.Engine) error { query(eng, dep, x.rng); return nil }
			var handled bool
			tr.do("store.View", func() { handled, err = st.TryView(id, fn) })
			if err == nil && !handled {
				tr.do("store.ViewPinnedGraph", func() {
					handled, err = st.ViewPinnedGraph(id, func(g *core.Graph, _ uint64) error {
						coreQuery(tr, rr, g, dep, x.rng)
						return nil
					})
				})
			}
			if err == nil && !handled {
				s0, wasResident := time.Now(), resident(id)
				tr.do("store.View", func() { err = st.View(id, fn) })
				if !wasResident {
					rr.faultinMs = append(rr.faultinMs, ms(time.Since(s0)))
				}
			}
		case opRead:
			err = read(id, x.rng)
		case opEdit:
			s0, wasResident := time.Now(), resident(id)
			tr.do("store.UpdateJournaled", func() {
				err = st.UpdateJournaled(id, nil, func(_ *server.Session, eng *engine.Engine) error {
					for _, e := range x.edits {
						rr.dirtyCells += applyEdit(tr, eng, e)
					}
					return nil
				})
			})
			if !wasResident {
				rr.faultinMs = append(rr.faultinMs, ms(time.Since(s0)))
			}
			rr.edits += len(x.edits)
			if err == nil && !x.wait && x.rng.Head.Valid() {
				err = read(id, x.rng)
			}
			if err == nil {
				name := "store.drain"
				if x.wait {
					name = "store.Wait"
				}
				err = drain(id, name)
			}
		case opOpen:
			err = open(x.sess)
		case opClose:
			tr.do("store.Delete", func() { err = st.Delete(id) })
		case opFork:
			// Forks need a durable store; the replay's is not. Fork cost
			// comes from the HTTP run's taco_fork_seconds.
			rr.forksSkipped++
		}
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("replay op %d (%s): %w", k, x.kind, err)
		}
	}
	rr.ops = len(ops)
	rr.opsEnd = len(tr.spans)
	rr.cellsEvaluated = processCounter("taco_engine_cells_evaluated_total") - cells0
	rr.schedBuilds = processCounter("taco_sched_builds_total") - builds0
	b.probe(p, st, ids, ops, rr)
	return rr, nil
}

// applyEdit applies one edit inside a store callback and returns the number
// of cells it dirtied.
func applyEdit(tr *tracer, eng *engine.Engine, e workload.Edit) int {
	var dirty []ref.Range
	switch e.Kind {
	case workload.EditValue:
		tr.do("engine.SetValue", func() { dirty = eng.SetValue(e.At, formula.Num(e.Value)) })
	case workload.EditFormula:
		t0 := time.Now()
		ast, err := formula.ParseCached(e.Formula)
		tr.hot("formula.Parse", t0)
		if err != nil {
			return 0 // generated formulae always parse
		}
		tr.do("engine.SetFormula", func() { dirty = eng.SetFormulaParsed(e.At, e.Formula, ast) })
	case workload.EditClear:
		tr.do("engine.ClearCell", func() { dirty = eng.ClearCell(e.At) })
	}
	return countCells(dirty)
}

func coreQuery(tr *tracer, rr *replayResult, g *core.Graph, dependents bool, rng ref.Range) {
	s := time.Now()
	if dependents {
		_, st := g.FindDependentsStats(rng)
		tr.hot("core.Dependents", s)
		rr.accesses += st.EdgeAccesses
		rr.queries++
	} else {
		g.FindPrecedents(rng)
		tr.hot("core.Precedents", s)
	}
}

// probe measures what the op log reaches only inside the store: snapshot
// encode and restore on the resident set (tenants), the graphs' compression
// against NoComp, and NoComp's query time on the replayed seeds.
func (b *bench) probe(p *plan, st *server.Store, ids []string, ops []op, rr *replayResult) {
	tr := rr.tr
	tr.op = -2
	root := tr.begin("op.probe")
	defer tr.end(root)
	graphs := map[int]*core.Graph{}
	for i, g := range rr.graphs {
		graphs[i] = g.g
		rr.accesses += g.accesses
		rr.queries += g.queries
	}
	probed := 0
	for i, s := range p.sessions {
		if s.opened || ids[i] == "" {
			continue
		}
		if p.maxResident > 0 {
			st.Update(ids[i], false, func(_ *server.Session, eng *engine.Engine) error {
				graphs[i] = eng.TACOGraph()
				if probed >= 16 {
					return nil
				}
				probed++
				var buf bytes.Buffer
				var err error
				tr.do("engine.WriteSnapshot", func() { err = eng.WriteSnapshot(&buf) })
				if err != nil {
					return err
				}
				rr.snapBytes += buf.Len()
				rr.snapCells += eng.NumCells()
				tr.do("engine.RestoreSnapshot", func() { _, err = engine.RestoreSnapshot(bytes.NewReader(buf.Bytes())) })
				return err
			})
		}
	}
	// Seeds: the replayed queries, or the edited cells where the workload
	// issues no queries (its dependents traversals are the edits' marking).
	type seed struct {
		sess int
		dep  bool
		rng  ref.Range
	}
	var seeds []seed
	for _, x := range ops {
		switch {
		case x.kind == opDependents || x.kind == opPrecedents:
			seeds = append(seeds, seed{x.sess, x.kind == opDependents, x.rng})
		case x.kind == opEdit && len(seeds) < 200:
			seeds = append(seeds, seed{x.sess, true, ref.CellRange(x.edits[0].At)})
		}
		if len(seeds) >= 200 {
			break
		}
	}
	nc := map[int]*nocomp.Graph{}
	for i, g := range graphs {
		if p.sessions[i].opened || g == nil {
			continue
		}
		deps := p.sessions[i].sheet.MustDependencies()
		n := nocomp.Build(deps)
		nc[i] = n
		gs := g.Stats()
		rr.tacoEdges += gs.Edges
		rr.tacoVertices += gs.Vertices
		rr.deps += len(deps)
		rr.nocompVertices += n.NumVertices()
	}
	var tTaco, tNo time.Duration
	for _, sd := range seeds {
		g, n := graphs[sd.sess], nc[sd.sess]
		if g == nil || n == nil {
			continue
		}
		t0 := time.Now()
		if sd.dep {
			g.FindDependents(sd.rng)
		} else {
			g.FindPrecedents(sd.rng)
		}
		t1 := time.Now()
		if sd.dep {
			n.FindDependents(sd.rng)
		} else {
			n.FindPrecedents(sd.rng)
		}
		tTaco += t1.Sub(t0)
		tNo += time.Since(t1)
		rr.ratioSeeds++
		if tNo > 3*time.Second {
			break
		}
	}
	if tTaco > 0 {
		rr.nocompRatio = float64(tNo) / float64(tTaco)
	}
}

// processCounter reads one of this process's own telemetry counters.
func processCounter(name string) float64 {
	var sb strings.Builder
	if err := telemetry.Default.WriteText(&sb); err != nil {
		return 0
	}
	sc, err := telemetry.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		return 0
	}
	v, _ := sc.Value(name, nil)
	return v
}

// writeSpans writes the traced HTTP run's round trips and the replay's
// spans as tab-separated lines.
func writeSpans(path string, roots []rootSpan, rr *replayResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns\tcount\tdur_ns")
	for i, s := range roots {
		fmt.Fprintf(w, "h%d\t-\t%d\t%s\t%d\t%d\t1\t%d\n", i, s.op, s.name, s.start, s.end, s.end-s.start)
	}
	for i, s := range rr.tr.spans {
		fmt.Fprintf(w, "r%d\tr%d\t%d\t%s\t%d\t%d\t%d\t%d\n", i, s.parent, s.op, s.name, s.start, s.end, s.count, s.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
