package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"taco/internal/telemetry"
)

// gatedMetrics are the end-to-end metrics of the -trace 0 JSON line
// (BENCHMARK.json's end_to_end list): every workload issues the ops behind
// them, and they repeat across seeds within their bounds. The op-specific
// metrics, op_p50_ms and the tails are printed in the report (see README.md).
var gatedMetrics = []string{"setup_s", "ops_per_s", "server_cpu_ms_per_op", "read_p50_ms", "server_peak_rss_mb"}

// minP99Samples is the sample count a _p99 metric needs in one run.
const minP99Samples = 1000

type e2eMetric struct {
	value   float64
	unit    string
	samples int    // 0 when not a sampled latency
	note    string // base of a ratio, or why the value is absent
	absent  bool
}

// endToEnd derives the end-to-end metrics of one HTTP run.
func endToEnd(p *plan, res *httpResult) map[string]e2eMetric {
	m := map[string]e2eMetric{}
	m["setup_s"] = e2eMetric{value: percentile(res.setupS, 0.5), unit: "s",
		note: fmt.Sprintf("median of %d set-ups %s", len(res.setupS), fmtList(res.setupS, "%.3f"))}
	rate := float64(res.ops) / res.elapsed.Seconds()
	opsNote := fmt.Sprintf("%d ops in %.2fs, closed loop, %d connections", res.ops, res.elapsed.Seconds(), p.clients)
	if p.openLoop {
		opsNote = fmt.Sprintf("%d ops in %.2fs against an offered %.0f/s (%.1f%% achieved)", res.ops, res.elapsed.Seconds(),
			p.rate, 100*rate/p.rate)
	}
	m["ops_per_s"] = e2eMetric{value: rate, unit: "1/s", note: opsNote}
	// What each op costs the server in CPU, whoever waits for it: on the
	// open-loop tenants, where ops_per_s is the offered rate, the figure
	// that shows the server doing more or less work.
	m["server_cpu_ms_per_op"] = e2eMetric{value: 1000 * res.serverCPU / float64(max(res.ops, 1)), unit: "ms",
		note: fmt.Sprintf("%.2f s of server CPU over %d ops", res.serverCPU, res.ops)}
	for _, c := range []struct{ cat, name string }{
		{catOp, "op"}, {catQuery, "query"}, {catRead, "read"}, {catEditAck, "edit_ack"}, {catSettle, "settle"}, {catOpen, "open"},
	} {
		xs := res.lat(c.cat)
		if len(xs) == 0 {
			continue
		}
		m[c.name+"_p50_ms"] = e2eMetric{value: percentile(xs, 0.5), unit: "ms", samples: len(xs)}
		if c.cat == catOpen {
			continue
		}
		p99 := e2eMetric{value: percentile(xs, 0.99), unit: "ms", samples: len(xs)}
		if len(xs) < minP99Samples {
			p99.absent, p99.note = true, fmt.Sprintf("needs %d samples", minP99Samples)
		}
		m[c.name+"_p99_ms"] = p99
	}
	edits := res.sum(func(r *clientRec) int { return r.edits })
	if edits > 0 {
		jb := delta(res.before, res.after, "taco_journal_append_bytes_total")
		sb := delta(res.before, res.after, "taco_store_spill_bytes_total")
		m["write_bytes_per_edit"] = e2eMetric{value: (jb + sb) / float64(edits), unit: "B/edit",
			note: fmt.Sprintf("%.0f journal + %.0f spill bytes over %d edits", jb, sb, edits)}
	}
	att, failed := res.attempted(), res.failed()
	m["error_rate"] = e2eMetric{value: float64(failed) / float64(max(att, 1)), unit: "ratio",
		note: fmt.Sprintf("%d of %d ops, set-up and output check included", failed, att)}
	// The gated peak is the median over every server process of the run,
	// which with several set-ups is a set-up's (load) peak: the last process,
	// the one that also served the timed phase, peaks higher by however much
	// garbage its queries and edits left when the GC ran, which moves with the
	// seed and the host by up to a fifth between runs. It is printed apart.
	m["server_peak_rss_mb"] = e2eMetric{value: percentile(res.peakRSSMB, 0.5), unit: "MB",
		note: fmt.Sprintf("median VmHWM of %d server processes %s", len(res.peakRSSMB), fmtList(res.peakRSSMB, "%.0f"))}
	m["timed_peak_rss_mb"] = e2eMetric{value: res.peakRSSMB[len(res.peakRSSMB)-1], unit: "MB",
		note: "VmHWM of the server process that ran the timed phase"}
	if len(res.lateness) > 0 {
		m["generator_lateness_p50_ms"] = e2eMetric{value: percentile(res.lateness, 0.5), unit: "ms", samples: len(res.lateness)}
		m["generator_lateness_p99_ms"] = e2eMetric{value: percentile(res.lateness, 0.99), unit: "ms", samples: len(res.lateness)}
		m["generator_lateness_max_ms"] = e2eMetric{value: slices.Max(res.lateness), unit: "ms", samples: len(res.lateness)}
	}
	return m
}

var e2eOrder = []string{"setup_s", "ops_per_s", "server_cpu_ms_per_op", "op_p50_ms", "op_p99_ms", "query_p50_ms", "query_p99_ms",
	"read_p50_ms", "read_p99_ms", "edit_ack_p50_ms", "edit_ack_p99_ms", "settle_p50_ms", "settle_p99_ms",
	"open_p50_ms", "write_bytes_per_edit", "error_rate", "server_peak_rss_mb", "timed_peak_rss_mb",
	"generator_lateness_p50_ms", "generator_lateness_p99_ms", "generator_lateness_max_ms"}

// printBreakdown prints latency by op kind and the op p99 per fifth of the
// timed phase, so a slow run shows which ops and which stretch were slow.
func printBreakdown(res *httpResult) {
	line := "  by op kind:"
	for k := range opNames {
		xs := res.lat("kind:" + opNames[k])
		if len(xs) > 0 {
			line += fmt.Sprintf(" %s p50 %.3f p99 %.3f ms n=%d;", opNames[k], percentile(xs, 0.5), percentile(xs, 0.99), len(xs))
		}
	}
	fmt.Println(line)
	const windows = 5
	win := make([][]float64, windows)
	span := res.elapsed.Seconds()
	for _, x := range res.samples(catOp) {
		w := min(windows-1, int(x.at/span*windows))
		win[w] = append(win[w], x.ms)
	}
	line = "  op p99 per fifth of the run:"
	for _, xs := range win {
		line += fmt.Sprintf(" %.3f", percentile(xs, 0.99))
	}
	fmt.Println(line + " ms")
	line = "  connection busy (ops in flight):"
	for _, r := range res.recs[len(res.recs)-2:] {
		line += fmt.Sprintf(" %.0f%%", 100*r.busy.Seconds()/span)
	}
	fmt.Println(line)
}

// printEndToEnd prints every end-to-end metric the workload issues, with its
// unit and sample count; with a traced run, the tracing overhead too.
func printEndToEnd(m, traced map[string]e2eMetric) {
	fmt.Println("end-to-end metrics (untraced run):")
	for _, name := range e2eOrder {
		e, ok := m[name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-26s %12.4f %-6s", name, e.value, e.unit)
		if e.absent {
			line = fmt.Sprintf("  %-26s %12s %-6s", name, "-", e.unit)
		}
		if e.samples > 0 {
			line += fmt.Sprintf(" n=%d", e.samples)
		}
		if traced != nil {
			if t, ok := traced[name]; ok && !e.absent && !t.absent {
				line += fmt.Sprintf("  tracing overhead %+.4f", t.value-e.value)
			}
		}
		if e.note != "" {
			line += "  (" + e.note + ")"
		}
		fmt.Println(line)
	}
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func delta(before, after *telemetry.Scrape, name string) float64 {
	a, _ := after.Value(name, nil)
	b, _ := before.Value(name, nil)
	return a - b
}

// histDelta returns the histogram's buckets over the interval, and its sum
// and count.
func histDelta(before, after *telemetry.Scrape, name string) (bounds []float64, counts []uint64, sum float64, n uint64) {
	bounds, ca, sa, na, ok := after.Histogram(name)
	if !ok {
		return nil, nil, 0, 0
	}
	_, cb, sb, nb, okb := before.Histogram(name)
	counts = slices.Clone(ca)
	if okb && len(cb) == len(ca) {
		for i := range counts {
			counts[i] -= cb[i]
		}
		sa, na = sa-sb, na-nb
	}
	return bounds, counts, sa, na
}

// layerMetric is one per-layer figure.
type layerMetric struct {
	name, unit string
	value      float64
	note       string // base of a ratio, or where the figure comes from
}

type layerReport struct {
	metrics []layerMetric
	self    map[string]time.Duration // op-phase self time per layer
	setup   map[string]time.Duration // set-up self time per layer
	calls   map[string]int
}

// spanTotals sums span counts and durations by name over spans[lo:hi], and
// self time (duration minus the children's) by layer, the name's prefix.
func spanTotals(spans []span, lo, hi int) (count map[string]int, dur map[string]time.Duration, self map[string]time.Duration) {
	count, dur, self = map[string]int{}, map[string]time.Duration{}, map[string]time.Duration{}
	child := make([]time.Duration, hi)
	for i := lo; i < hi; i++ {
		if pa := spans[i].parent; pa >= int32(lo) {
			child[pa] += spans[i].dur
		}
	}
	for i := lo; i < hi; i++ {
		s := spans[i]
		count[s.name] += int(s.count)
		dur[s.name] += s.dur
		self[layerOf(s.name)] += s.dur - child[i]
	}
	return count, dur, self
}

func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// layers whose self time the replay measures, plus HTTP from the traced
// round trips.
var timedLayers = []string{"core", "formula", "engine", "store", "xlsx", "http"}

// perLayer computes the per-layer metrics of a traced run.
func perLayer(p *plan, tr *httpResult, rr *replayResult, roots []rootSpan) *layerReport {
	spans := rr.tr.spans
	cnt, dur, self := spanTotals(spans, rr.setupSpans, rr.opsEnd)
	scnt, sdur, sself := spanTotals(spans, 0, rr.setupSpans)
	pcnt, pdur, _ := spanTotals(spans, rr.opsEnd, len(spans))
	rep := &layerReport{self: self, setup: sself, calls: cnt}
	add := func(name, unit string, v float64, note string) {
		rep.metrics = append(rep.metrics, layerMetric{name: name, unit: unit, value: v, note: note})
	}
	mean := func(c map[string]int, d map[string]time.Duration, names ...string) (float64, int) {
		n, t := 0, time.Duration(0)
		for _, nm := range names {
			n += c[nm]
			t += d[nm]
		}
		if n == 0 {
			return 0, 0
		}
		return float64(t) / float64(n), n
	}
	us := func(c map[string]int, d map[string]time.Duration, unit string, names ...string) (float64, string) {
		v, n := mean(c, d, names...)
		scale := map[string]float64{"us": 1e3, "ms": 1e6, "ns": 1}[unit]
		if n == 0 {
			return 0, "no calls in this workload"
		}
		return v / scale, fmt.Sprintf("mean of %d calls", n)
	}
	ratio := func(num, den float64, what string) (float64, string) {
		if den == 0 {
			return 0, "no base: " + what + " is 0"
		}
		return num / den, fmt.Sprintf("%.0f / %.0f %s", num, den, what)
	}
	b, a := tr.before, tr.after
	d := func(name string) float64 { return delta(b, a, name) }
	edits := float64(tr.sum(func(r *clientRec) int { return r.edits }))
	batches := float64(tr.sum(func(r *clientRec) int { return r.batches }))
	ops := float64(tr.ops)
	graphLoads := len(rr.graphs)

	// core
	var v float64
	var note string
	if graphLoads > 0 {
		v, note = float64(sdur["core.Add"])/1e6/float64(graphLoads), fmt.Sprintf("%d core.Add calls over %d loads", scnt["core.Add"], graphLoads)
	} else {
		v, note = 0, "counters only: engines here are built by engine.LoadBulk (spilling needs engine.TACO), core build not reached"
	}
	add("core.build_ms", "ms", v, note)
	v, note = ratio(float64(rr.tacoEdges), float64(rr.deps), "compressed edges / dependencies")
	add("core.edge_ratio", "ratio", v, note)
	v, note = ratio(float64(rr.tacoVertices), float64(rr.nocompVertices), "TACO / NoComp vertices")
	add("core.vertex_ratio", "ratio", v, note)
	v, note = us(cnt, dur, "us", "core.Dependents")
	add("core.dependents_us", "us", v, note+" (queries and edit marking)")
	v, note = us(cnt, dur, "us", "core.Precedents")
	add("core.precedents_us", "us", v, note)
	v, note = ratio(float64(rr.accesses), float64(rr.queries), "edge accesses / dependents traversals")
	add("core.edge_accesses_per_query", "count", v, note)
	maint, rewrites := time.Duration(0), 0
	for i := rr.setupSpans; i < rr.opsEnd; i++ {
		s := spans[i]
		if s.parent >= 0 && spans[s.parent].name == "engine.SetFormula" && (s.name == "core.Clear" || s.name == "core.Add") {
			maint += s.dur
		}
		if s.name == "engine.SetFormula" {
			rewrites++
		}
	}
	if graphLoads == 0 {
		add("core.maintain_us", "us", 0, "counters only: formula rewrites reach core inside engine.TACO")
	} else if rewrites == 0 {
		add("core.maintain_us", "us", 0, "no formula rewrites in this workload")
	} else {
		add("core.maintain_us", "us", float64(maint)/1e3/float64(rewrites), fmt.Sprintf("Clear+Add per rewrite, %d rewrites", rewrites))
	}
	v, note = us(cnt, dur, "us", "core.DirectPrecedents")
	if graphLoads == 0 {
		note = "counters only: drains reach core inside engine.TACO"
	}
	add("core.direct_precedents_us", "us", v, note)
	add("core.nocomp_query_ratio", "ratio", rr.nocompRatio, fmt.Sprintf("NoComp / TACO query time on %d replayed seeds", rr.ratioSeeds))

	// formula
	fc, fd := mergeCounts(scnt, cnt, pcnt), mergeDur(sdur, dur, pdur)
	v, note = us(fc, fd, "us", "formula.Parse")
	add("formula.parse_us", "us", v, note+" of ParseCached")
	v, note = us(fc, fd, "us", "formula.CompileCached")
	add("formula.compile_us", "us", v, note)
	h, _ := a.Value("taco_parse_cache_hits_total", nil)
	mi, _ := a.Value("taco_parse_cache_misses_total", nil)
	v, note = ratio(h, h+mi, "parse-cache hits / lookups over the server's life")
	add("formula.parse_cache_hit_rate", "ratio", v, note)
	h, _ = a.Value("taco_compile_cache_hits_total", nil)
	mi, _ = a.Value("taco_compile_cache_misses_total", nil)
	v, note = ratio(h, h+mi, "compile-cache hits / lookups over the server's life")
	add("formula.compile_cache_hit_rate", "ratio", v, note)

	// engine
	v, note = us(fc, fd, "ms", "engine.Load")
	add("engine.load_ms", "ms", v, note)
	v, note = us(cnt, dur, "us", "engine.SetValue", "engine.SetFormula", "engine.ClearCell")
	add("engine.mark_us", "us", v, note)
	v, note = ratio(float64(rr.dirtyCells), float64(rr.edits), "dirty cells / edits (replay)")
	add("engine.dirty_cells_per_edit", "count", v, note)
	if len(rr.drainMs) > 0 {
		add("engine.drain_ms", "ms", meanOf(rr.drainMs), fmt.Sprintf("RecalculateN time per drain, %d drains", len(rr.drainMs)))
	} else {
		add("engine.drain_ms", "ms", 0, "no drains in this workload")
	}
	cells := d("taco_engine_cells_evaluated_total")
	v, note = ratio(cells, edits, "cells evaluated / edits (HTTP run)")
	add("engine.cells_evaluated_per_edit", "count", v, note)
	v, note = ratio(float64(dur["engine.RecalculateN"]), rr.cellsEvaluated, "ns in RecalculateN / cells evaluated (replay)")
	add("engine.eval_ns_per_cell", "ns", v, note)
	v, note = ratio(d("taco_sched_pattern_run_cells_total"), cells, "pattern-run cells / cells evaluated (HTTP run)")
	add("engine.pattern_run_cell_share", "ratio", v, note)
	v, note = ratio(rr.schedBuilds, float64(len(rr.drainMs)), "schedule builds / drains (replay)")
	add("engine.schedule_builds_per_drain", "ratio", v, note)
	wr := d("taco_sched_warm_reuses_total")
	v, note = ratio(wr, wr+d("taco_sched_builds_total"), "warm reuses / (reuses + builds) (HTTP run)")
	add("engine.warm_reuse_rate", "ratio", v, note)
	v, note = us(cnt, dur, "us", "engine.ScanRange")
	add("engine.scan_us", "us", v, note)
	v, note = us(pcnt, pdur, "ms", "engine.WriteSnapshot")
	if p.maxResident == 0 {
		note = "not exercised: every session stays resident"
	} else {
		note += " on the resident set after the replay"
	}
	add("engine.snapshot_encode_ms", "ms", v, note)
	v, note = ratio(float64(rr.snapBytes), float64(rr.snapCells), "snapshot bytes / cells")
	add("engine.snapshot_bytes_per_cell", "B/cell", v, note)
	v, note = us(pcnt, pdur, "ms", "engine.RestoreSnapshot")
	add("engine.restore_ms", "ms", v, note)

	// store
	v, note = us(cnt, dur, "us", "store.UpdateJournaled")
	add("store.update_us", "us", v, note)
	v, note = us(cnt, dur, "us", "store.View")
	add("store.view_us", "us", v, note)
	v, note = us(cnt, dur, "ms", "store.Wait")
	add("store.wait_ms", "ms", v, note+" (barrier including its drain)")
	if len(rr.faultinMs) > 0 {
		add("store.faultin_ms", "ms", meanOf(rr.faultinMs), fmt.Sprintf("store calls on spilled sessions, %d", len(rr.faultinMs)))
	} else {
		add("store.faultin_ms", "ms", 0, "no fault-ins: every session stays resident")
	}
	_, _, fs, fn := histDelta(b, a, "taco_fork_seconds")
	v, note = ratio(fs*1e3, float64(fn), "ms over forks (HTTP run, counters only: the replay store is non-durable)")
	add("store.fork_ms", "ms", v, note)
	hits := d("taco_store_lookup_hits_total")
	v, note = ratio(hits-d("taco_store_restores_total"), hits, "lookups without a restore / lookups (HTTP run)")
	add("store.resident_hit_rate", "ratio", v, note)
	ev := d("taco_store_evictions_total")
	v, note = ratio(ev, ops, "evictions / ops (HTTP run)")
	add("store.evictions_per_op", "ratio", v, note)
	v, note = ratio(d("taco_store_snapshot_skips_total"), ev, "snapshot skips / evictions")
	add("store.snapshot_skip_rate", "ratio", v, note)
	v, note = ratio(d("taco_snap_delta_writes_total"), ev, "delta writes / evictions")
	add("store.delta_write_share", "ratio", v, note)
	v, note = ratio(d("taco_store_spill_bytes_total"), edits, "spill bytes / edits")
	add("store.spill_bytes_per_edit", "B/edit", v, note)
	hb, hc, _, hn := histDelta(b, a, "taco_store_drain_hold_seconds")
	add("store.drain_hold_p99_ms", "ms", telemetry.Quantile(hb, hc, 0.99)*1e3, fmt.Sprintf("%d drain holds (HTTP run, bucketed)", hn))
	maxQ := 0
	for _, r := range tr.recs {
		maxQ = max(maxQ, r.maxQueue)
	}
	add("store.recalc_queue_depth_max", "count", float64(maxQ), "GET /stats sampled every 50 requests per connection")
	add("store.errors", "count", d("taco_store_spill_errors_total")+d("taco_store_durability_errors_total"), "spill + durability errors (HTTP run)")

	// journal
	v, note = ratio(d("taco_journal_appends_total"), batches, "journal appends / edit batches")
	add("journal.appends_per_batch", "ratio", v, note)
	v, note = ratio(d("taco_journal_append_bytes_total"), edits, "journal bytes / edits")
	add("journal.bytes_per_edit", "B/edit", v, note)
	add("journal.fsyncs_per_s", "1/s", d("taco_journal_fsyncs_total")/tr.elapsed.Seconds(),
		fmt.Sprintf("%.0f fsyncs in %.2fs", d("taco_journal_fsyncs_total"), tr.elapsed.Seconds()))

	// http: round trip minus the replay's in-process time for the same kind
	// of op. Forks are not replayed, and store.drain stands in for the
	// server's background drain, which no round trip waits for.
	rtt, inproc, nOps := map[opKind]time.Duration{}, map[opKind]time.Duration{}, map[opKind]int{}
	var bytes int64
	for _, s := range roots {
		rtt[s.kind] += s.end - s.start
		bytes += s.bytes
	}
	for _, r := range tr.recs {
		for k := range opNames {
			nOps[opKind(k)] += len(r.lat["kind:"+opNames[k]])
		}
	}
	child := make([]time.Duration, len(spans))
	for i := rr.setupSpans; i < rr.opsEnd; i++ {
		if pa := spans[i].parent; pa >= 0 && spans[i].name != "store.drain" {
			child[pa] += spans[i].dur
		}
	}
	for i := rr.setupSpans; i < rr.opsEnd; i++ {
		if k, ok := strings.CutPrefix(spans[i].name, "op."); ok {
			inproc[opKind(slices.Index(opNames[:], k))] += child[i]
		}
	}
	var totRTT, totIn time.Duration
	n := 0
	for k := range opNames {
		if opKind(k) == opFork {
			continue
		}
		totRTT += rtt[opKind(k)]
		totIn += inproc[opKind(k)]
		n += nOps[opKind(k)]
	}
	httpOver := time.Duration(0)
	if n > 0 && rr.ops > 0 {
		// Scale the replay's time to the HTTP run's op count (a closed loop
		// may complete a different number of ops than were replayed).
		perOp := (float64(totRTT) - float64(totIn)*float64(n)/float64(rr.ops-rr.forksSkipped)) / float64(n)
		httpOver = time.Duration(perOp * float64(rr.ops-rr.forksSkipped))
		add("http.overhead_us", "us", perOp/1e3, fmt.Sprintf("%.1fus round trip - %.1fus in-process per op, %d ops without forks",
			float64(totRTT)/float64(n)/1e3, float64(totIn)/float64(rr.ops-rr.forksSkipped)/1e3, n))
	} else {
		add("http.overhead_us", "us", 0, "no ops")
	}
	rep.self["http"] = httpOver
	v, note = ratio(float64(bytes), ops, "response bytes / ops")
	add("http.response_bytes_per_op", "B/op", v, note)

	// xlsx
	v, note = us(fc, fd, "ms", "xlsx.Read")
	add("xlsx.read_ms", "ms", v, note+" (set-up and opens)")

	// runtime (server process, HTTP run)
	v, note = ratio(d("go_memstats_alloc_bytes_total"), ops, "server bytes allocated / ops")
	add("runtime.alloc_bytes_per_op", "B/op", v, note)
	v, note = ratio(1000*d("go_gc_cycles_total"), ops, "GC cycles x 1000 / ops")
	add("runtime.gc_cycles_per_kop", "count", v, note)
	add("runtime.gc_pause_ms", "ms", 1e3*d("go_gc_pause_seconds_total"), "total stop-the-world pause in the timed phase")

	var total time.Duration
	for _, l := range timedLayers {
		total += max(rep.self[l], 0)
	}
	for _, l := range timedLayers {
		add("share."+l, "%", pct(rep.self[l], total), fmt.Sprintf("%.1f of %.1f ms server-side self time in the op phase",
			float64(max(rep.self[l], 0))/1e6, float64(total)/1e6))
	}
	return rep
}

func mergeCounts(ms ...map[string]int) map[string]int {
	out := map[string]int{}
	for _, m := range ms {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

func mergeDur(ms ...map[string]time.Duration) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, m := range ms {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailShares returns, for the slowest 1% of replayed queries, the share of
// their in-process time each layer's self time takes: the check of whether
// core traversal dominates the query tail.
func tailShares(rr *replayResult) (map[string]float64, int) {
	spans := rr.tr.spans
	root := make([]int32, len(spans))
	var queries []int
	for i := rr.setupSpans; i < rr.opsEnd; i++ {
		pa := spans[i].parent
		switch {
		case pa < 0:
			root[i] = int32(i)
			if spans[i].name == "op.dependents" || spans[i].name == "op.precedents" {
				queries = append(queries, i)
			}
		default:
			root[i] = root[pa]
		}
	}
	if len(queries) == 0 {
		return nil, 0
	}
	slices.SortFunc(queries, func(a, b int) int { return int(spans[b].dur - spans[a].dur) })
	tail := map[int32]bool{}
	for _, q := range queries[:max(1, len(queries)/100)] {
		tail[int32(q)] = true
	}
	child := make([]time.Duration, len(spans))
	for i := rr.setupSpans; i < rr.opsEnd; i++ {
		if pa := spans[i].parent; pa >= 0 {
			child[pa] += spans[i].dur
		}
	}
	self := map[string]time.Duration{}
	var total time.Duration
	for i := rr.setupSpans; i < rr.opsEnd; i++ {
		if tail[root[i]] && spans[i].parent >= 0 {
			d := spans[i].dur - child[i]
			self[layerOf(spans[i].name)] += d
			total += d
		}
	}
	out := map[string]float64{}
	for l, d := range self {
		out[l] = pct(d, total)
	}
	return out, len(tail)
}

// printLayers prints the per-layer table and every per-layer metric.
func printLayers(rep *layerReport, rr *replayResult, spanPath string) {
	fmt.Printf("per-layer self time (replay of %d ops; http from the traced round trips; spans in %s):\n", rr.ops, spanPath)
	var opTotal, setupTotal time.Duration
	for _, l := range timedLayers {
		opTotal += max(rep.self[l], 0)
		setupTotal += max(rep.setup[l], 0)
	}
	fmt.Printf("  %-8s %12s %7s %12s %7s\n", "layer", "op-phase ms", "share", "set-up ms", "share")
	for _, l := range timedLayers {
		fmt.Printf("  %-8s %12.2f %6.1f%% %12.2f %6.1f%%\n", l, float64(rep.self[l])/1e6, pct(rep.self[l], opTotal),
			float64(rep.setup[l])/1e6, pct(rep.setup[l], setupTotal))
	}
	fmt.Println("  journal  counters only (append and fsync counts from /metrics; the replay store is non-durable)")
	fmt.Println("  runtime  counters only (allocation and GC from the server's /metrics)")
	names := make([]string, 0, len(rep.calls))
	for n := range rep.calls {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  op-phase calls:")
	for _, n := range names {
		fmt.Printf(" %s=%d", n, rep.calls[n])
	}
	fmt.Println()
	if shares, n := tailShares(rr); n > 0 {
		fmt.Printf("  slowest 1%% of replayed queries (%d): in-process self time core %.1f%%, engine %.1f%%, store %.1f%%\n",
			n, shares["core"], shares["engine"], shares["store"])
	}
	if rr.forksSkipped > 0 {
		fmt.Printf("  %d forks not replayed (the replay store is non-durable; fork cost is from the HTTP run)\n", rr.forksSkipped)
	}
	fmt.Println("per-layer metrics:")
	for _, m := range rep.metrics {
		fmt.Printf("  %-32s %14.4f %-7s (%s)\n", m.name, m.value, m.unit, m.note)
	}
}

func pct(x, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(max(x, 0)) / float64(total)
}
