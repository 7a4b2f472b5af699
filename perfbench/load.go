package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"taco/internal/ref"
	"taco/internal/server"
	"taco/internal/telemetry"
	"taco/internal/workload"
)

// Latency categories recorded per op, in milliseconds.
const (
	catOp      = "op"
	catQuery   = "query"
	catRead    = "read"
	catEditAck = "edit_ack"
	catSettle  = "settle"
	catOpen    = "open"
	catClose   = "close"
	catFork    = "fork"
)

// answerEvery samples one in this many query answers per client for the
// NoComp cross-check, up to maxAnswers per client.
const (
	answerEvery = 16
	maxAnswers  = 128
)

// answer is one sampled query answer.
type answer struct {
	sess       int
	dependents bool
	seed       ref.Range
	ranges     []string
	cells      int
}

// rootSpan is one HTTP round trip of the traced run.
type rootSpan struct {
	name       string
	kind       opKind
	start, end time.Duration
	op         int
	bytes      int64
}

// clientRec is what one connection records; only its goroutine writes it.
type clientRec struct {
	lat               map[string][]sample
	busy              time.Duration // time spent issuing ops, queueing excluded
	attempted, failed int
	errs              []string
	answers           []answer
	edits, batches    int
	queries           int
	log               []op
	spans             []rootSpan
	maxQueue          int
	httpOps           int64
}

// sample is one latency: when the op started (or was due), in seconds into
// the timed phase, and how long it took in ms.
type sample struct{ at, ms float64 }

func (r *clientRec) record(cat string, t0, end, runStart time.Time) {
	r.lat[cat] = append(r.lat[cat], sample{t0.Sub(runStart).Seconds(), ms(end.Sub(t0))})
}

func (r *clientRec) fail(format string, a ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, a...))
	}
}

// runState is what the server holds for this run: session IDs, liveness
// and the acknowledged edit log per session. Every session is pinned to one
// connection, so each slot is written by one goroutine only.
type runState struct {
	ids   []string
	alive []bool
	acked [][]workload.Edit
}

// httpResult is one server lifetime: set-up(s), timed phase, output check.
type httpResult struct {
	setupS          []float64
	elapsed         time.Duration
	ops             int
	recs            []*clientRec
	lateness        []float64
	before, after   *telemetry.Scrape
	peakRSSMB       []float64 // VmHWM of each server process
	serverCPU       float64
	benchCPU        float64
	host            hostCPU // machine-wide deltas over the timed phase
	workers, recPar int
	checked         int
	checkFailed     int
	checkErrs       []string
}

func (h *httpResult) samples(cat string) []sample {
	var out []sample
	for _, r := range h.recs {
		out = append(out, r.lat[cat]...)
	}
	return out
}

func (h *httpResult) lat(cat string) []float64 {
	var out []float64
	for _, x := range h.samples(cat) {
		out = append(out, x.ms)
	}
	return out
}

func (h *httpResult) sum(f func(*clientRec) int) int {
	n := 0
	for _, r := range h.recs {
		n += f(r)
	}
	return n
}

func (h *httpResult) attempted() int {
	return h.sum(func(r *clientRec) int { return r.attempted }) + h.checked
}

func (h *httpResult) failed() int {
	return h.sum(func(r *clientRec) int { return r.failed }) + h.checkFailed
}

func (h *httpResult) errors() []string {
	var out []string
	for _, r := range h.recs {
		out = append(out, r.errs...)
	}
	return append(out, h.checkErrs...)
}

// runOpts selects what one server lifetime does.
type runOpts struct {
	setups  int    // set-ups to time; all but the last are torn down at once
	seconds int    // closed loop: timed phase length when logs is nil
	logs    [][]op // closed loop: replay exactly these ops (traced run)
	traced  bool   // record a root span per HTTP round trip
	check   bool   // run the output check after the timed phase
}

func (b *bench) serverArgs(p *plan, dir string) []string {
	if !p.durable {
		return nil
	}
	return []string{"-durable", "-fsync", "interval", "-delta-snapshots=true",
		"-max-resident", fmt.Sprint(p.maxResident), "-spill-dir", filepath.Join(dir, "spill")}
}

// httpRun runs the workload against fresh tacoserve processes.
func (b *bench) httpRun(p *plan, o runOpts) (*httpResult, error) {
	res := &httpResult{}
	dir := filepath.Join(b.work, p.workload)
	for i := 0; i < o.setups; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		// Flush what earlier servers left dirty on this filesystem, so their
		// write-back does not land in this server's measurements.
		syncFS(b.work)
		t0 := time.Now()
		sp, err := startServer(b.tacoserve, dir, b.serverArgs(p, dir))
		if err != nil {
			return nil, err
		}
		clients := []*client{newClient(sp.base), newClient(sp.base)}
		recs := []*clientRec{newRec(), newRec()}
		st := &runState{
			ids:   make([]string, len(p.sessions)),
			alive: make([]bool, len(p.sessions)),
			acked: make([][]workload.Edit, len(p.sessions)),
		}
		b.setup(p, st, clients, recs)
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		b.logf("set-up %d of %d: %.2fs", i+1, o.setups, res.setupS[i])
		if i < o.setups-1 {
			if rss, err := sp.peakRSSMB(); err == nil {
				res.peakRSSMB = append(res.peakRSSMB, rss)
			}
			for _, r := range recs {
				res.keepSetupFailures(r)
			}
			for _, c := range clients {
				c.close()
			}
			sp.stop()
			continue
		}
		err = b.timed(p, o, sp, clients, recs, st, res)
		for _, c := range clients {
			c.close()
		}
		sp.stop()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// keepSetupFailures keeps the failure accounting of a discarded set-up.
func (h *httpResult) keepSetupFailures(r *clientRec) {
	h.recs = append(h.recs, &clientRec{lat: map[string][]sample{}, attempted: r.attempted, failed: r.failed, errs: r.errs})
}

func newRec() *clientRec { return &clientRec{lat: map[string][]sample{}} }

// setup uploads every base session over its own connection and waits until
// each is settled.
func (b *bench) setup(p *plan, st *runState, clients []*client, recs []*clientRec) {
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range p.sessions {
				if s.client != c || s.opened {
					continue
				}
				recs[c].attempted++
				if err := b.open(clients[c], st, i, s); err != nil {
					recs[c].fail("upload %s: %v", s.name, err)
					continue
				}
				if err := clients[c].do("POST", "/sessions/"+st.ids[i]+"/flush", nil, nil); err != nil {
					recs[c].fail("flush %s: %v", s.name, err)
				}
			}
		}()
	}
	wg.Wait()
}

func (b *bench) open(c *client, st *runState, i int, s *session) error {
	var info server.SessionInfo
	if err := c.do("POST", "/sessions/xlsx?name="+url.QueryEscape(s.name), s.xlsx, &info); err != nil {
		return err
	}
	st.ids[i], st.alive[i] = info.ID, true
	return nil
}

// timed runs the timed phase, then scrapes the server and checks outputs.
func (b *bench) timed(p *plan, o runOpts, sp *serverProc, clients []*client, recs []*clientRec, st *runState, res *httpResult) error {
	var err error
	if res.before, err = clients[0].scrape(); err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	cpu0, bcpu0, host0 := sp.cpuSeconds(), procCPUSeconds(os.Getpid()), readHostCPU()
	start := time.Now()
	if p.openLoop {
		res.lateness = b.openLoop(p, o, clients, recs, st, start)
	} else {
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.closedLoop(p, o, c, clients[c], recs[c], st, start)
			}()
		}
		wg.Wait()
	}
	res.elapsed = time.Since(start)
	res.serverCPU, res.benchCPU = sp.cpuSeconds()-cpu0, procCPUSeconds(os.Getpid())-bcpu0
	host1 := readHostCPU()
	res.host = hostCPU{busy: host1.busy - host0.busy, steal: host1.steal - host0.steal, total: host1.total - host0.total}
	if res.after, err = clients[0].scrape(); err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	rss, err := sp.peakRSSMB()
	if err != nil {
		return err
	}
	res.peakRSSMB = append(res.peakRSSMB, rss)
	res.workers, res.recPar = sp.resolvedRecalc()
	res.recs = append(res.recs, recs...)
	for _, r := range recs {
		res.ops += len(r.lat[catOp])
	}
	if o.check {
		var answers []answer
		for _, r := range recs {
			answers = append(answers, r.answers...)
		}
		b.logf("timed phase done; checking outputs")
		res.checked, res.checkFailed, res.checkErrs = b.check(p, st, clients[0], answers)
		b.logf("output check done")
	}
	return nil
}

func (b *bench) closedLoop(p *plan, o runOpts, c int, cl *client, rec *clientRec, st *runState, start time.Time) {
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	for i := 0; ; i++ {
		var next op
		if o.logs != nil {
			if i >= len(o.logs[c]) {
				return
			}
			next = o.logs[c][i]
		} else {
			if !time.Now().Before(deadline) {
				return
			}
			next = p.gens[c].next()
			rec.log = append(rec.log, next)
		}
		b.exec(p, o, cl, rec, st, &next, i, time.Now(), start)
	}
}

// openLoop issues the schedule on time from one generator goroutine; each
// connection works through its own queue in order. Returns the generator's
// lateness samples in ms.
func (b *bench) openLoop(p *plan, o runOpts, clients []*client, recs []*clientRec, st *runState, start time.Time) []float64 {
	queues := make([]chan int, len(clients))
	for c := range queues {
		queues[c] = make(chan int, len(p.schedule)) // never blocks the generator
	}
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queues[c] {
				next := p.schedule[i]
				b.exec(p, o, clients[c], recs[c], st, &next, i, start.Add(next.due), start)
			}
		}()
	}
	lateness := make([]float64, 0, len(p.schedule))
	for i := range p.schedule {
		due := start.Add(p.schedule[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lateness = append(lateness, ms(time.Since(due)))
		queues[p.sessions[p.schedule[i].sess].client] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return lateness
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// exec issues one op and records its latencies measured from t0 (the
// start, or in the open loop the due time).
func (b *bench) exec(p *plan, o runOpts, cl *client, rec *clientRec, st *runState, x *op, idx int, t0, runStart time.Time) {
	rec.attempted++
	sent := time.Now()
	defer func() { rec.busy += time.Since(sent) }()
	id := st.ids[x.sess]
	call := func(name, method, path string, body []byte, out any) error {
		s := time.Now()
		bytes0 := cl.respBytes
		err := cl.do(method, path, body, out)
		rec.httpOps++
		if o.traced {
			rec.spans = append(rec.spans, rootSpan{name: name, kind: x.kind, start: s.Sub(runStart), end: cl.done.Sub(runStart), op: idx, bytes: cl.respBytes - bytes0})
			if rec.httpOps%50 == 0 {
				var ss server.StoreStats
				if cl.do("GET", "/stats", nil, &ss) == nil {
					rec.maxQueue = max(rec.maxQueue, ss.RecalcQueue)
				}
			}
		}
		return err
	}
	var err error
	switch x.kind {
	case opDependents, opPrecedents:
		var qr server.QueryResult
		var out any = wellFormed{}
		sampled := rec.queries%answerEvery == 0 && len(rec.answers) < maxAnswers
		if sampled {
			out = &qr
		}
		err = call("http."+x.kind.String(), "GET", "/sessions/"+id+"/"+x.kind.String()+"?of="+x.rng.String(), nil, out)
		if err == nil {
			rec.record(catQuery, t0, cl.done, runStart)
			if sampled {
				rec.answers = append(rec.answers, answer{x.sess, x.kind == opDependents, x.rng, qr.Ranges, qr.Cells})
			}
			rec.queries++
		}
	case opRead:
		err = call("http.read", "GET", "/sessions/"+id+"/cells?range="+x.rng.String(), nil, wellFormed{})
		if err == nil {
			rec.record(catRead, t0, cl.done, runStart)
		}
	case opEdit:
		path := "/sessions/" + id + "/edits"
		cat := catEditAck
		if x.wait {
			path, cat = path+"?wait=1", catSettle
		}
		err = call("http.edit", "POST", path, editBody(x.edits), wellFormed{})
		if err == nil {
			rec.record(cat, t0, cl.done, runStart)
			st.acked[x.sess] = append(st.acked[x.sess], x.edits...)
			rec.edits += len(x.edits)
			rec.batches++
			if !x.wait && x.rng.Head.Valid() {
				s := time.Now()
				if p.openLoop {
					s = t0
				}
				err = call("http.read", "GET", "/sessions/"+id+"/cells?range="+x.rng.String(), nil, wellFormed{})
				if err == nil {
					rec.record(catRead, s, cl.done, runStart)
				}
			}
		}
	case opOpen:
		s := p.sessions[x.sess]
		var info server.SessionInfo
		err = call("http.open", "POST", "/sessions/xlsx?name="+url.QueryEscape(s.name), s.xlsx, &info)
		if err == nil {
			st.ids[x.sess], st.alive[x.sess] = info.ID, true
			rec.record(catOpen, t0, cl.done, runStart)
		}
	case opClose:
		err = call("http.close", "DELETE", "/sessions/"+id, nil, nil)
		if err == nil {
			st.alive[x.sess] = false
			rec.record(catClose, t0, cl.done, runStart)
		}
	case opFork:
		var child server.SessionInfo
		err = call("http.fork", "POST", "/sessions/"+id+"/fork", []byte("{}"), &child)
		if err == nil {
			err = call("http.read", "GET", "/sessions/"+child.ID+"/cells?range="+x.rng.String(), nil, wellFormed{})
			if derr := call("http.close", "DELETE", "/sessions/"+child.ID, nil, nil); err == nil {
				err = derr
			}
		}
		if err == nil {
			rec.record(catFork, t0, cl.done, runStart)
		}
	}
	if err != nil {
		rec.fail("%s %s: %v", x.kind, p.sessions[x.sess].name, err)
		return
	}
	rec.record(catOp, t0, cl.done, runStart)
	rec.record("kind:"+x.kind.String(), t0, cl.done, runStart)
}

// editBody renders a batch in the POST /sessions/{id}/edits format.
func editBody(edits []workload.Edit) []byte {
	batch := server.EditBatch{Edits: make([]server.EditOp, len(edits))}
	for i, e := range edits {
		eo := server.EditOp{Cell: ref.FormatA1(e.At)}
		switch e.Kind {
		case workload.EditValue:
			v := e.Value
			eo.Value = &v
		case workload.EditFormula:
			f := e.Formula
			eo.Formula = &f
		case workload.EditClear:
			eo.Clear = true
		}
		batch.Edits[i] = eo
	}
	b, err := json.Marshal(batch)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return b
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
