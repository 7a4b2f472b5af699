// Command perfbench is taco's serving benchmark. It builds nothing itself:
// run.sh builds tacoserve and perfbench from the checkout, then runs
//
//	perfbench -workload trace|recalc|tenants -seed N -seconds S -trace 0|1
//
// which generates the workload's sheets and operations from the seed,
// drives a tacoserve process over at most two keep-alive connections,
// checks every output against a serial reference engine, and prints a
// report followed by one JSON line: the end-to-end metrics with -trace 0,
// or with -trace 1 the per-layer metrics of a traced run (an HTTP run with
// a span per round trip plus an in-process replay of the same op log with a
// span around every call into a layer). README.md lists every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

type bench struct {
	root, tacoserve, work string
	seed                  int64
	seconds               int
	start                 time.Time
}

// logf reports progress on standard error, stamped with the time since the
// benchmark started.
func (b *bench) logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "[%6.1fs] %s\n", time.Since(b.start).Seconds(), fmt.Sprintf(format, a...))
}

func main() {
	workload := flag.String("workload", "", "workload: trace, recalc or tenants")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	traceRun := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	root := flag.String("root", ".", "checkout root (for the source fingerprint)")
	tacoserve := flag.String("tacoserve", "", "tacoserve binary built from the checkout")
	work := flag.String("work", "", "directory for spill files, logs and span dumps")
	flag.Parse()
	if *tacoserve == "" || *work == "" || *seconds < 1 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -tacoserve, -work, -seconds >= 1 and -trace 0|1 (use run.sh)")
		os.Exit(2)
	}
	b := &bench{root: *root, tacoserve: *tacoserve, work: *work, seed: *seed, seconds: *seconds, start: time.Now()}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := b.run(*workload, *traceRun == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) run(workload string, traced bool) (*result, error) {
	p, err := newPlan(workload, b.seed, b.seconds)
	if err != nil {
		return nil, err
	}
	b.logf("generated %d sessions", len(p.sessions))
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%t\n", workload, b.seed, b.seconds, traced)
	if !traced {
		res, err := b.httpRun(p, runOpts{setups: p.setups, seconds: b.seconds, check: true})
		if err != nil {
			return nil, err
		}
		b.printConfig(p, res)
		e2e := endToEnd(p, res)
		printEndToEnd(e2e, nil)
		printBreakdown(res)
		out := &result{Attempted: res.attempted(), Failed: res.failed(), Metrics: map[string]metric{}}
		for _, name := range gatedMetrics {
			out.Metrics[name] = metric{e2e[name].value, e2e[name].unit}
		}
		return b.finish(out, res)
	}
	base, err := b.httpRun(p, runOpts{setups: 1, seconds: b.seconds, check: true})
	if err != nil {
		return nil, err
	}
	var logs [][]op
	for _, r := range base.recs {
		logs = append(logs, r.log)
	}
	tracedOpts := runOpts{setups: 1, logs: logs, traced: true, check: true}
	if p.openLoop {
		tracedOpts.logs = nil
	}
	tr, err := b.httpRun(p, tracedOpts)
	if err != nil {
		return nil, err
	}
	b.logf("replaying in process")
	rr, err := b.replay(p, replayOrder(p, logs))
	if err != nil {
		return nil, err
	}
	b.logf("replay done")
	var roots []rootSpan
	for _, r := range tr.recs {
		roots = append(roots, r.spans...)
	}
	spanPath := filepath.Join(b.work, fmt.Sprintf("spans-%s-seed%d.tsv", workload, b.seed))
	if err := writeSpans(spanPath, roots, rr); err != nil {
		return nil, err
	}
	b.printConfig(p, base)
	e2eBase, e2eTraced := endToEnd(p, base), endToEnd(p, tr)
	printEndToEnd(e2eBase, e2eTraced)
	printBreakdown(base)
	layers := perLayer(p, tr, rr, roots)
	printLayers(layers, rr, spanPath)
	out := &result{Attempted: base.attempted() + tr.attempted(), Failed: base.failed() + tr.failed(), Metrics: map[string]metric{}}
	for _, lm := range layers.metrics {
		out.Metrics[lm.name] = metric{lm.value, lm.unit}
	}
	if errs := tr.errors(); len(errs) > 0 {
		fmt.Println("traced run errors:", strings.Join(errs, "; "))
	}
	return b.finish(out, base)
}

// finish prints failures and validity problems and settles correctness.
func (b *bench) finish(out *result, res *httpResult) (*result, error) {
	out.Correct = out.Failed == 0
	for _, e := range res.errors() {
		fmt.Println("error:", e)
	}
	if len(res.lateness) > 0 && percentile(res.lateness, 0.99) > maxLatenessMs {
		// The generator fell behind its schedule: the measured latencies
		// would describe the load generator, not the server.
		return nil, fmt.Errorf("invalid run: open-loop generator p99 lateness %.2fms exceeds %.0fms",
			percentile(res.lateness, 0.99), maxLatenessMs)
	}
	fmt.Printf("output check: %d checks, %d failed; error_rate %.6f (%d of %d ops failed)\n",
		res.checked, res.checkFailed, float64(out.Failed)/float64(max(out.Attempted, 1)), out.Failed, out.Attempted)
	return out, nil
}

// maxLatenessMs is the generator lateness p99 beyond which an open-loop run
// is invalid.
const maxLatenessMs = 20.0

// replayOrder serialises the closed-loop logs round-robin (each session's
// own order is kept, since each session has one client), or returns the
// open-loop schedule.
func replayOrder(p *plan, logs [][]op) []op {
	if p.openLoop {
		return p.schedule
	}
	var out []op
	for i := 0; ; i++ {
		more := false
		for _, l := range logs {
			if i < len(l) {
				out = append(out, l[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// printConfig echoes the host fingerprint and the run's configuration.
func (b *bench) printConfig(p *plan, res *httpResult) {
	rows, cells, formulas := 0, 0, 0
	base := 0
	for _, s := range p.sessions {
		if s.opened {
			continue
		}
		base++
		rows += s.bounds.Tail.Row - s.bounds.Head.Row + 1
		cells += len(s.sheet.Cells)
		formulas += s.sheet.NumFormulas()
	}
	cfg := map[string]any{
		"cpus":               runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"goos_goarch":        runtime.GOOS + "/" + runtime.GOARCH,
		"commit":             b.commit(),
		"source_sha256":      b.sourceHash(),
		"spill_fs":           fsType(b.work),
		"seed":               b.seed,
		"workload":           p.workload,
		"sessions":           base,
		"opened_in_run":      len(p.sessions) - base,
		"rows":               rows,
		"cells":              cells,
		"formulas":           formulas,
		"connections":        p.clients,
		"server_args":        strings.Join(b.serverArgs(p, "<spill>"), " "),
		"recalc_workers":     res.workers,
		"recalc_parallelism": res.recPar,
	}
	if p.durable {
		cfg["fsync"] = "interval"
	} else {
		cfg["fsync"] = "none (non-durable)"
	}
	if p.openLoop {
		cfg["offered_rate_per_s"] = p.rate
		cfg["scheduled_ops"] = len(p.schedule)
		cfg["max_resident"] = p.maxResident
	}
	j, _ := json.Marshal(cfg)
	fmt.Println("config", string(j))
	host := float64(runtime.NumCPU()) * res.elapsed.Seconds()
	fmt.Printf("host busy during the timed phase: server %.0f%%, load generator %.0f%% of %d CPUs",
		100*res.serverCPU/host, 100*res.benchCPU/host, runtime.NumCPU())
	if res.host.total > 0 {
		// Foreign load inside the machine, and time the hypervisor gave to
		// other machines: either slows the run without any change to the
		// program.
		other := max(0, res.host.busy-res.serverCPU-res.benchCPU)
		fmt.Printf("; other processes %.0f%%, stolen %.1f%%", 100*other/res.host.total, 100*res.host.steal/res.host.total)
	}
	fmt.Println()
}

func (b *bench) commit() string {
	out, err := exec.Command("git", "-C", b.root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash fingerprints the program's Go sources and go.mod, so results
// from checkouts without git history still name the code they measured.
func (b *bench) sourceHash() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(b.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(b.root, path)
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && rel != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || rel == "go.mod") {
			files = append(files, rel)
		}
		return nil
	})
	slices.Sort(files)
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(b.root, f))
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
