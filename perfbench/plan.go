package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"taco/internal/formula"
	"taco/internal/ref"
	"taco/internal/workload"
	"taco/internal/xlsx"
)

// This file turns a workload name and a seed into everything a run needs:
// the sheets (uploaded as .xlsx), the server flags, and the operations each
// connection issues. Nothing here depends on the server's answers, so one
// seed always yields the same inputs.

type opKind uint8

const (
	opDependents opKind = iota
	opPrecedents
	opRead
	opEdit
	opOpen
	opClose
	opFork
)

var opNames = [...]string{"dependents", "precedents", "read", "edit", "open", "close", "fork"}

func (k opKind) String() string { return opNames[k] }

// op is one user-visible operation. A recalc edit without wait carries the
// viewport it reads afterwards in rng; a fork carries the child's viewport.
type op struct {
	kind  opKind
	sess  int
	rng   ref.Range
	edits []workload.Edit
	wait  bool
	due   time.Duration // open loop only: offset from the start of the timed phase
}

// session is one workbook: generated sheet, its .xlsx upload and the pools
// the op generator draws from.
type session struct {
	name   string
	sheet  *workload.Sheet
	xlsx   []byte
	client int
	bounds ref.Range
	opened bool // created by an open op during the timed phase, not at set-up

	seeds    []ref.Range
	edits    []workload.Edit
	formulas []workload.Edit
	qi, ei   int
	fi       int
}

// plan is a fully generated workload.
type plan struct {
	workload    string
	setups      int // set-ups timed for setup_s, the last one serving the timed phase
	durable     bool
	maxResident int
	sessions    []*session
	clients     int
	// Closed loop: one generator per client. Open loop: a fixed schedule.
	openLoop bool
	rate     float64
	gens     []*generator
	schedule []op
}

const (
	viewRows = 40
	viewCols = 8
	// tenantsRate is the offered rate of the tenants open loop. At this rate
	// the server plus the load generator keep about half of a 2-CPU host busy
	// (see README.md).
	tenantsRate = 250.0
)

// corpusSeed fixes the sheets. Like the paper's Enron and Github corpora,
// each workload's sheets are one fixed corpus; the run's seed draws what the
// users do with them (query seeds, viewports, edits, op mix, popularity and
// arrival order). Sheet structure varies so much between generator seeds
// (column patterns, chains, messy regions) that per-seed sheets would make
// runs of the same code disagree by far more than any useful bound.
const corpusSeed = 20230401

func corpusRand(workload string, i int) *rand.Rand {
	return rand.New(rand.NewSource(corpusSeed + int64(len(workload))*1000003 + int64(i)*7919))
}

func newPlan(name string, seed int64, seconds int) (*plan, error) {
	// setup_s is the median of several set-ups; trace's 15k-row uploads
	// take about 5 s each, the others' under 1 s.
	p := &plan{workload: name, clients: 2, setups: 5}
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(name))))
	switch name {
	case "trace":
		p.setups = 3
		// Two sheets at the Github corpus's messy fraction and two at 0.5;
		// each client owns one of each.
		for i, messy := range []float64{0.06, 0.06, 0.5, 0.5} {
			sh := workload.GenerateSheet(fmt.Sprintf("trace-%d", i), 15000, messy, corpusRand(name, i))
			p.sessions = append(p.sessions, newSession(sh, i%2, rng, 60000, 0))
		}
	case "recalc":
		for i, sc := range workload.ScenarioNames {
			cr := corpusRand(name, i)
			sh, err := workload.BuildScenario(sc, 2000+cr.Intn(1001), cr)
			if err != nil {
				return nil, err
			}
			p.sessions = append(p.sessions, newSession(sh, i%2, rng, 0, 200000))
		}
	case "tenants":
		p.durable, p.maxResident, p.openLoop, p.rate = true, 16, true, tenantsRate
		for i := 0; i < 96; i++ {
			p.sessions = append(p.sessions, tenantSession(i, rng))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want trace, recalc or tenants)", name)
	}
	if p.openLoop {
		p.buildSchedule(rng, seconds)
	} else {
		for c := 0; c < p.clients; c++ {
			var own []int
			for i, s := range p.sessions {
				if s.client == c {
					own = append(own, i)
				}
			}
			p.gens = append(p.gens, &generator{p: p, own: own, rng: rand.New(rand.NewSource(rng.Int63()))})
		}
	}
	for _, s := range p.sessions {
		var buf bytes.Buffer
		if err := xlsx.Write(&buf, []*workload.Sheet{s.sheet}, xlsx.WriteOptions{SharedFormulas: true}); err != nil {
			return nil, fmt.Errorf("write %s.xlsx: %w", s.name, err)
		}
		s.xlsx = buf.Bytes()
	}
	return p, nil
}

// tenantSession is tenant sheet i of the corpus (sessions opened during the
// run continue the numbering); rng draws its op pools.
func tenantSession(i int, rng *rand.Rand) *session {
	sc := workload.ScenarioNames[i%len(workload.ScenarioNames)]
	cr := corpusRand("tenants", i)
	sh, err := workload.BuildScenario(sc, 100+cr.Intn(301), cr)
	if err != nil {
		panic(err) // ScenarioNames are all buildable
	}
	sh.Name = fmt.Sprintf("%s-%d", sc, i)
	return newSession(sh, i%2, rng, 2000, 4000)
}

// newSession derives the op pools: nSeeds query seeds from
// workload.QueryStream, nEdits value edits (formula share 0.15 for recalc's
// mix when nSeeds is 0, pure value edits otherwise) and, for tenants, a
// formula-rewrite stream.
func newSession(sh *workload.Sheet, client int, rng *rand.Rand, nSeeds, nEdits int) *session {
	s := &session{name: sh.Name, sheet: sh, client: client, bounds: sheetBounds(sh)}
	if nSeeds > 0 {
		s.seeds = workload.QueryStream(sh, nSeeds, rand.New(rand.NewSource(rng.Int63())))
	}
	if nEdits > 0 {
		if nSeeds == 0 {
			s.edits = workload.EditStreamMix(sh, nEdits, rand.New(rand.NewSource(rng.Int63())), 0.15)
		} else {
			s.edits = workload.EditStreamMix(sh, nEdits, rand.New(rand.NewSource(rng.Int63())), 0)
			s.formulas = workload.EditStreamMix(sh, nEdits/4, rand.New(rand.NewSource(rng.Int63())), 1)
		}
		boundGrowthEdits(sh, s.edits)
	}
	return s
}

// boundGrowthEdits keeps value edits of a planning sheet's growth-rate cell
// within [0.95, 1.15). PlanningBudget compounds that rate across every
// quarter, and EditStreamMix writes 0-9999.9 into any numeric cell: a rate
// above about 1.27 over 3000 quarters overflows the budget chain to +Inf,
// which the server cannot encode (GET .../cells answers 200 with an empty
// body; see README.md, Findings). The draw is mapped linearly, so the stream
// stays deterministic in the seed.
func boundGrowthEdits(sh *workload.Sheet, edits []workload.Edit) {
	if !strings.HasPrefix(sh.Name, "planning") {
		return
	}
	for i, e := range edits {
		// Row 1 holds the quarter labels and the growth rate, its only number.
		if c, ok := sh.Cells[e.At]; e.Kind == workload.EditValue && e.At.Row == 1 && ok && !c.IsFormula() && c.Value.Kind == formula.KindNumber {
			edits[i].Value = 0.95 + 0.2*e.Value/10000
		}
	}
}

func sheetBounds(sh *workload.Sheet) ref.Range {
	b := ref.Range{Head: ref.Ref{Col: 1 << 30, Row: 1 << 30}}
	for at := range sh.Cells {
		b.Head.Col, b.Head.Row = min(b.Head.Col, at.Col), min(b.Head.Row, at.Row)
		b.Tail.Col, b.Tail.Row = max(b.Tail.Col, at.Col), max(b.Tail.Row, at.Row)
	}
	return b
}

// viewport returns a viewRows x viewCols rectangle inside the sheet's bounds
// whose top-left corner is at (or clipped towards) at.
func (s *session) viewport(at ref.Ref) ref.Range {
	col := max(s.bounds.Head.Col, min(at.Col, s.bounds.Tail.Col-viewCols+1))
	row := max(s.bounds.Head.Row, min(at.Row, s.bounds.Tail.Row-viewRows+1))
	return ref.Range{Head: ref.Ref{Col: col, Row: row}, Tail: ref.Ref{Col: col + viewCols - 1, Row: row + viewRows - 1}}
}

func (s *session) randomViewport(rng *rand.Rand) ref.Range {
	return s.viewport(ref.Ref{
		Col: s.bounds.Head.Col + rng.Intn(s.bounds.Tail.Col-s.bounds.Head.Col+1),
		Row: s.bounds.Head.Row + rng.Intn(s.bounds.Tail.Row-s.bounds.Head.Row+1),
	})
}

func (s *session) nextSeed() ref.Range {
	r := s.seeds[s.qi%len(s.seeds)]
	s.qi++
	return r
}

func (s *session) nextEdits(n int) []workload.Edit {
	out := make([]workload.Edit, n)
	for i := range out {
		out[i] = s.edits[s.ei%len(s.edits)]
		s.ei++
	}
	return out
}

func (s *session) nextFormulaEdits(n int) []workload.Edit {
	out := make([]workload.Edit, n)
	for i := range out {
		out[i] = s.formulas[s.fi%len(s.formulas)]
		s.fi++
	}
	return out
}

// columnSelection is a query seed over 1-500 rows of one populated column.
func (s *session) columnSelection(rng *rand.Rand) ref.Range {
	at := s.seeds[rng.Intn(len(s.seeds))].Head
	n := 1 + rng.Intn(500)
	top := max(s.bounds.Head.Row, min(at.Row, s.bounds.Tail.Row-n+1))
	return ref.Range{Head: ref.Ref{Col: at.Col, Row: top}, Tail: ref.Ref{Col: at.Col, Row: top + n - 1}}
}

// generator produces one client's closed-loop operations in a fixed order.
type generator struct {
	p   *plan
	own []int
	rng *rand.Rand
}

func (g *generator) next() op {
	rng := g.rng
	si := g.own[rng.Intn(len(g.own))]
	s := g.p.sessions[si]
	if g.p.workload == "trace" {
		o := op{sess: si}
		switch roll := rng.Float64(); {
		case roll < 0.35:
			o.kind = opDependents
		case roll < 0.70:
			o.kind = opPrecedents
		default:
			o.kind = opRead
			o.rng = s.randomViewport(rng)
			return o
		}
		if rng.Float64() < 0.8 {
			o.rng = s.nextSeed()
		} else {
			o.rng = s.columnSelection(rng)
		}
		return o
	}
	// recalc: an 8-edit batch; half settle with ?wait=1, half are acked and
	// followed by a read of a viewport over the first edited cell.
	o := op{kind: opEdit, sess: si, edits: s.nextEdits(8), wait: rng.Intn(2) == 0}
	if !o.wait {
		o.rng = s.viewport(ref.Ref{Col: o.edits[0].At.Col - viewCols/2, Row: o.edits[0].At.Row - viewRows/2})
	}
	return o
}

// buildSchedule lays out the tenants open loop: one arrival every 1/rate
// seconds for the whole run, sessions drawn by Zipf popularity (s=1.1), every
// op pinned to its session's connection. Which tenants are popular is part
// of the corpus (a fixed permutation); when they act is the run's.
func (p *plan) buildSchedule(rng *rand.Rand, seconds int) {
	n := int(p.rate * float64(seconds))
	base := len(p.sessions)
	perm := corpusRand(p.workload, -1).Perm(base)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(base-1))
	// Pin sessions to connections so each carries half the expected load:
	// the most popular tenant alone draws about a quarter of all ops.
	var load [2]float64
	for k, si := range perm {
		c := 0
		if load[1] < load[0] {
			c = 1
		}
		p.sessions[si].client = c
		load[c] += math.Pow(float64(k+1), -1.1)
	}
	pick := func() int { return perm[zipf.Uint64()] }
	var open []int // opened sessions not yet closed
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / p.rate * float64(time.Second))
		si := pick()
		s := p.sessions[si]
		o := op{sess: si, due: due}
		switch roll := rng.Float64(); {
		case roll < 0.45:
			o.kind, o.edits = opEdit, s.nextEdits(1+rng.Intn(8))
		case roll < 0.50:
			o.kind, o.edits = opEdit, s.nextFormulaEdits(1+rng.Intn(8))
		case roll < 0.80:
			o.kind, o.rng = opRead, s.randomViewport(rng)
		case roll < 0.90:
			o.kind, o.rng = opDependents, s.nextSeed()
			if rng.Intn(2) == 0 {
				o.kind = opPrecedents
			}
		case roll < 0.94 || (roll < 0.98 && len(open) == 0):
			ns := tenantSession(len(p.sessions), rng)
			ns.opened = true
			p.sessions = append(p.sessions, ns)
			o.kind, o.sess = opOpen, len(p.sessions)-1
			open = append(open, o.sess)
		case roll < 0.98:
			k := rng.Intn(len(open))
			o.kind, o.sess = opClose, open[k]
			open = slices.Delete(open, k, k+1)
		default:
			o.kind, o.rng = opFork, s.randomViewport(rng)
		}
		p.schedule = append(p.schedule, o)
	}
}

// finalSheet applies an acknowledged edit log to a copy of the generated
// sheet: the state a correct server must hold after its last barrier.
func finalSheet(sh *workload.Sheet, edits []workload.Edit) *workload.Sheet {
	out := workload.NewSheet(sh.Name)
	for at, c := range sh.Cells {
		out.Cells[at] = c
	}
	for _, e := range edits {
		switch e.Kind {
		case workload.EditValue:
			out.Cells[e.At] = workload.Cell{Value: formula.Num(e.Value)}
		case workload.EditFormula:
			out.Cells[e.At] = workload.Cell{Formula: e.Formula}
		case workload.EditClear:
			delete(out.Cells, e.At)
		}
	}
	return out
}
