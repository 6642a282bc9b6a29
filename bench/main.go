// Command bench is the repository's performance ledger. For one named
// workload it builds cmd/qoeproxy from the checkout, generates the
// workload from -seed, drives the real daemon binary with tracing off
// and reports the end-to-end metrics, checking the daemon's output
// against an offline oracle; with -trace 1 it additionally replays the
// workload in-process through each layer's public functions with a span
// around every call and reports the per-layer metrics. README.md in
// this directory defines every workload and metric.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -workload squid_backlog [-seed 1] [-seconds 15] [-trace 0|1]
//	                  [-scale 1] [-repeats 1] [-out bench/out]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything above it is the
// human-readable table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"droppackets/internal/stats"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"records_per_s", "1/s", "higher"},
	{"cpu_us_per_record", "us", "lower"},
	{"rss_mean_mb", "MB", "lower"},
	{"verdict_latency_p50_ms", "ms", "lower"},
	{"verdict_latency_p99_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"squidlog.parse_ns_per_line", "ns", "lower"},
	{"squidlog.lines", "count", "higher"},
	{"squidlog.malformed", "count", "lower"},
	{"intern.lookup_ns", "ns", "lower"},
	{"intern.miss_ratio", "ratio", "lower"},
	{"ingest.squid.self_ns_per_record", "ns", "lower"},
	{"ingest.squid.batch_mean", "count", "higher"},
	{"ingest.replay.self_ns_per_record", "ns", "lower"},
	{"ingest.replay.load_s", "s", "lower"},
	{"sessionid.push_ns_per_txn", "ns", "lower"},
	{"sessionid.boundaries", "count", "lower"},
	{"features.accumulator.observe_ns_per_txn", "ns", "lower"},
	{"features.accumulator.row_ns", "ns", "lower"},
	{"features.scratch.row_ns_per_txn", "ns", "lower"},
	{"core.tracked_row_ns_per_client", "ns", "lower"},
	{"core.classify_block_ns_per_row", "ns", "lower"},
	{"core.rows_classified", "count", "lower"},
	{"core.load_estimator_ms", "ms", "lower"},
	{"compiled.forest_batch_ns_per_row", "ns", "lower"},
	{"metrics.scrape_ms_p50", "ms", "lower"},
	{"qoeproxy.classify_pass_ms_p50", "ms", "lower"},
	{"qoeproxy.classify_pass_ms_p99", "ms", "lower"},
	{"qoeproxy.feature_extraction_s", "s", "lower"},
	{"qoeproxy.inference_s", "s", "lower"},
	{"qoeproxy.ingest_contention_total", "count", "lower"},
	{"qoeproxy.gc_pause_s", "s", "lower"},
	{"qoeproxy.heap_alloc_bytes_per_record", "B", "lower"},
	{"qoeproxy.log_lines_per_record", "ratio", "lower"},
	{"qoeproxy.sink_bytes_per_record", "B", "lower"},
	{"qoeproxy.cpu_sys_share", "ratio", "lower"},
	{"qoeproxy.startup_s", "s", "lower"},
	{"qoeproxy.shutdown_s", "s", "lower"},
	{"qoeproxy.rss_peak_mb", "MB", "lower"},
	{"qoeproxy.rss_kb_per_client", "kB", "lower"},
	{"qoeproxy.layers_us_per_record", "us", "lower"},
	{"qoeproxy.glue_us_per_record", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"generator.late_p50_ms", "ms", "lower"},
	{"generator.late_p99_ms", "ms", "lower"},
	{"oracle.class_agreement", "ratio", "higher"},
	{"oracle.boundary_mismatch_share", "ratio", "lower"},
}

// setupRepeats is how many times an untraced run sets up, so setup_s is
// a median and one slow build or page-cache miss does not move it.
const setupRepeats = 3

// maxGeneratorLateMs is the generator lateness (p99) beyond which the
// paced run says more about the harness than about the daemon.
const maxGeneratorLateMs = 50

// tailPoll is the Squid source's default poll interval.
const tailPoll = 200 * time.Millisecond

// latencyTail is how long before the log's end a paced client must
// have appeared for its first verdict to be expected before shutdown:
// reorder horizon (0.83 s) + tail poll (0.2 s) + two ticks (1 s), and
// slack.
const latencyTail = 3 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	repeats  int
	out      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.StringVar(&o.workload, "workloads", "", "alias of -workload")
	flag.Int64Var(&o.seed, "seed", 1, "the only source of randomness: pool, model and workload derive from it")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the timed region the workload is sized for, at the seed commit on the reference host")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and per-layer metrics")
	flag.Float64Var(&o.scale, "scale", 1, "multiplies client counts and the paced rate (tests use 0.005)")
	flag.IntVar(&o.repeats, "repeats", 1, "daemon runs per workload; metrics are medians over them and their verdict digests must agree")
	flag.StringVar(&o.out, "out", "", "directory for span files and scratch (default bench/out in the checkout)")
	flag.Parse()
	o.trace = trace != 0
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// findRoot locates the checkout: the directory holding cmd/qoeproxy,
// either the working directory or its parent (go run -C bench).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "qoeproxy")); err == nil && st.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/qoeproxy not found: run from the root of a checkout")
}

func run(o options) error {
	if o.seconds < 1 || o.scale <= 0 || o.repeats < 1 {
		return fmt.Errorf("-seconds, -scale and -repeats must be positive")
	}
	var todo []*workload
	if o.workload == "all" {
		todo = workloads
	} else if w := workloadByName(o.workload); w != nil {
		todo = []*workload{w}
	} else {
		return fmt.Errorf("-workload %q: want one of %s, or all", o.workload, strings.Join(workloadNames(), ", "))
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	if o.out == "" {
		o.out = filepath.Join(root, "bench", "out")
	}
	if o.out, err = filepath.Abs(o.out); err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	for _, w := range todo {
		if err := benchWorkload(w, o, root); err != nil {
			return err
		}
	}
	return nil
}

// benchWorkload measures one workload and prints its table and result
// line. Scratch files live in a per-process directory that is removed
// whatever happens.
func benchWorkload(w *workload, o options, root string) error {
	dir, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set-up, repeated on untraced runs so that setup_s is a median.
	n := setupRepeats
	if o.trace {
		n = 1
	}
	var pr *prepared
	var setups []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if pr, err = setup(w, o.seed, o.seconds, o.scale, root, dir); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	runs := make([]map[string]float64, 0, o.repeats)
	var v *verification
	var ob *observed
	var notes []string
	overloaded := false
	for i := 0; i < o.repeats; i++ {
		t0 := time.Now()
		if ob, err = runDaemon(pr, dir); err != nil {
			fmt.Printf("%s: attempted %d, succeeded 0, failed %d — not reported\n", w.name, len(pr.clients), len(pr.clients))
			return fmt.Errorf("%s: %w", w.name, err)
		}
		ran := time.Since(t0)
		digest := ""
		if v != nil {
			digest = v.digest
		}
		t0 = time.Now()
		if v, err = verify(pr, ob); err != nil {
			if v != nil {
				fmt.Printf("%s: attempted %d, succeeded %d, failed %d — not reported\n",
					w.name, v.clients, v.clients-v.failed, v.failed)
			}
			return err
		}
		if digest != "" && digest != v.digest {
			return fmt.Errorf("%s: verdict digest %s differs from the previous repeat's %s", w.name, v.digest, digest)
		}
		m, ns, over := measure(pr, ob, v)
		overloaded = overloaded || over
		m["setup_s"] = stats.Median(setups)
		runs = append(runs, m)
		notes = append(ns, fmt.Sprintf("timed region %.1f s of a %.1f s daemon run; oracle %.1f s; set-up x%d",
			ob.complete.Sub(regionStart(pr, ob)).Seconds(), ran.Seconds(), time.Since(t0).Seconds(), len(setups)))
	}
	metrics := map[string]float64{}
	for name := range runs[0] {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r[name])
		}
		metrics[name] = stats.Median(xs)
	}

	if o.trace {
		rep, err := tracedRun(pr, dir, filepath.Join(o.out, "trace-"+w.name+".json"))
		if err != nil {
			return fmt.Errorf("%s: traced run: %w", w.name, err)
		}
		layerMetrics(metrics, rep)
		notes = append(notes, fmt.Sprintf("traced %d records in-process (%d spans over %d batches and %d ticks); spans in %s",
			rep.pl.records, rep.spans, rep.pl.batches, rep.pl.ticks, filepath.Join(o.out, "trace-"+w.name+".json")))
	}

	failed := v.failed
	if overloaded {
		// An overloaded open-loop run has no meaningful latency: every
		// sample counts as failed.
		failed = v.clients
	}
	printTable(w, o, pr, ob, v, metrics, notes, overloaded)

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		x := metrics[d.name]
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return fmt.Errorf("%s: metric %s is %v", w.name, d.name, x)
		}
		out[d.name] = value{x, d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": v.clients, "failed": failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure derives every metric observable from outside the daemon for
// one run. It fills end-to-end and daemon-side per-layer names alike;
// the caller prints the set the mode asks for. overloaded marks a paced
// run whose generator ran late or whose backlog was still growing.
func measure(pr *prepared, ob *observed, v *verification) (m map[string]float64, notes []string, overloaded bool) {
	// A layer metric that does not apply to the workload (the parser on
	// a replay CSV, the generator on a backlog) reads 0.
	m = map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	records := float64(pr.records)

	done := records
	if pr.w.paced {
		done = float64(ob.ingestedAtEnd)
	}
	m["records_per_s"] = done / ob.complete.Sub(regionStart(pr, ob)).Seconds()
	cpu := ob.cpuUser + ob.cpuSys
	m["cpu_us_per_record"] = float64(cpu.Microseconds()) / records
	// Mean, not peak: VmHWM is set by where in a GC cycle the run
	// happens to end and spreads wider between runs. The mean also sees
	// a rise anywhere in the run, which a median or a final reading
	// would not.
	m["rss_mean_mb"] = stats.Mean(ob.rssKB) / 1024
	series := make([]string, len(ob.rssKB))
	for i, kb := range ob.rssKB {
		series[i] = strconv.Itoa(int(kb / 1024))
	}
	notes = append(notes, "VmRSS in MB at every sampler tick: "+strings.Join(series, " "))
	m["qoeproxy.rss_peak_mb"] = float64(ob.rssPeakKB) / 1024

	// Time to first verdict, from when the client's first record became
	// available to the daemon: the start of ingest for a complete file,
	// the due time of its first line for the paced log.
	var lat []float64
	lastDue := time.Duration(0)
	if pr.sched != nil {
		lastDue = pr.sched.due[len(pr.sched.due)-1]
	}
	for i, first := range ob.firstVerdict {
		available := ob.ingesting.Sub(ob.started)
		if pr.w.paced {
			if pr.firstDue[i] > lastDue-latencyTail {
				continue
			}
			available = ob.paceStart.Sub(ob.started) + pr.firstDue[i]
		} else if first == 0 {
			// Never named in the log: its verdict is the shutdown summary.
			first = ob.exited
		}
		if first == 0 {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, float64(first-int64(available))/1e6)
	}
	sort.Float64s(lat)
	p99 := supportedPercentile(len(lat))
	m["verdict_latency_p50_ms"] = percentile(lat, 0.50)
	m["verdict_latency_p99_ms"] = percentile(lat, p99)
	notes = append(notes, fmt.Sprintf("verdict latency over %d clients", len(lat)))
	if p99 != 0.99 {
		notes = append(notes, fmt.Sprintf("too few samples for p99: verdict_latency_p99_ms is p%g", p99*100))
	}

	// Daemon-side layer numbers, scraped before SIGTERM.
	gauge := func(name string) float64 { x, _ := ob.final.value(name); return x }
	if h := ob.final.hists["qoeproxy_shard_classify_seconds"]; h != nil {
		p50, _ := h.quantile(0.50)
		p99, _ := h.quantile(0.99)
		m["qoeproxy.classify_pass_ms_p50"], m["qoeproxy.classify_pass_ms_p99"] = p50*1e3, p99*1e3
	}
	m["qoeproxy.feature_extraction_s"] = gauge("qoeproxy_feature_extraction_seconds_sum")
	m["qoeproxy.inference_s"] = gauge("qoeproxy_inference_seconds_sum")
	m["qoeproxy.ingest_contention_total"] = gauge("qoeproxy_ingest_contention_total")
	m["qoeproxy.gc_pause_s"] = gauge("qoeproxy_gc_pause_seconds_total")
	m["qoeproxy.heap_alloc_bytes_per_record"] = gauge("qoeproxy_heap_alloc_bytes_total") / records
	m["qoeproxy.log_lines_per_record"] = float64(ob.stderrLines) / records
	m["qoeproxy.sink_bytes_per_record"] = float64(v.sinkBytes) / records
	m["qoeproxy.cpu_sys_share"] = float64(ob.cpuSys) / float64(cpu)
	m["qoeproxy.startup_s"] = ob.startupS
	m["qoeproxy.shutdown_s"] = ob.shutdownS
	m["qoeproxy.rss_kb_per_client"] = float64(ob.rssPeakKB) / float64(len(pr.clients))
	m["metrics.scrape_ms_p50"] = stats.Median(ob.scrapeMs)
	m["oracle.class_agreement"] = v.classAgreement()
	m["oracle.boundary_mismatch_share"] = v.boundaryMismatchShare()

	if pr.w.paced {
		late := make([]float64, len(ob.late))
		for i, d := range ob.late {
			late[i] = float64(d) / 1e6
		}
		sort.Float64s(late)
		m["generator.late_p50_ms"] = percentile(late, 0.50)
		m["generator.late_p99_ms"] = percentile(late, supportedPercentile(len(late)))
		growth, limit := backlogGrowth(ob, lastDue)
		notes = append(notes, fmt.Sprintf("backlog grew %.0f records over the last quarter of the run (limit %.0f); %d samples",
			growth, limit, len(ob.samples)))
		overloaded = m["generator.late_p99_ms"] > maxGeneratorLateMs || growth > limit
	}
	return m, notes, overloaded
}

// regionStart is when the timed region begins: the first scheduled
// line on the paced workload, the daemon's "ingesting" line otherwise.
func regionStart(pr *prepared, ob *observed) time.Time {
	if pr.w.paced {
		return ob.paceStart
	}
	return ob.ingesting
}

// backlogGrowth compares the paced run's mean backlog (lines appended
// minus records the daemon has counted) in the last quarter of the run
// with the quarter before it. A daemon that keeps up holds a constant
// backlog — what the reorder horizon and one tail poll retain; one that
// does not keep up falls further behind every second. limit is 2% of
// what the generator offers in a quarter, plus half of what arrives
// between two tail polls: the backlog saw-tooths by that much and the
// sampler reads it at arbitrary phases.
func backlogGrowth(ob *observed, length time.Duration) (growth, limit float64) {
	var q3, q4 []float64
	for _, s := range ob.samples {
		at := s.at.Sub(ob.paceStart)
		backlog := float64(s.appended - s.ingested)
		switch {
		case at >= length/2 && at < length*3/4:
			q3 = append(q3, backlog)
		case at >= length*3/4 && at <= length:
			q4 = append(q4, backlog)
		}
	}
	if len(q3) == 0 || len(q4) == 0 {
		return 0, 0
	}
	offered := float64(len(ob.late))
	return stats.Mean(q4) - stats.Mean(q3), 0.02*offered/4 + offered/length.Seconds()*tailPoll.Seconds()/2
}

// layerMetrics adds the traced run's per-layer numbers.
func layerMetrics(m map[string]float64, rep *layerReport) {
	pl := rep.pl
	per := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	t := rep.times
	source := "ingest.squid"
	if pl.w.source == "replay" {
		source = "ingest.replay"
	}
	m[source+".self_ns_per_record"] = per(t["ingest.run"].self, pl.records)
	if pl.w.source == "squid" && pl.batches > 0 {
		m["ingest.squid.batch_mean"] = float64(pl.records) / float64(pl.batches)
	}
	m["ingest.replay.load_s"] = rep.replayLoad.Seconds()
	m["squidlog.parse_ns_per_line"] = per(t["isolated.squidlog.parse"].total, rep.lines)
	m["squidlog.lines"] = float64(rep.lines)
	m["squidlog.malformed"] = float64(rep.malformed)
	m["intern.lookup_ns"] = per(t["isolated.intern.lookup"].total, rep.lookups)
	if rep.lookups > 0 {
		m["intern.miss_ratio"] = float64(rep.misses) / float64(rep.lookups)
	}
	m["sessionid.push_ns_per_txn"] = per(t["sessionid.push"].total, pl.records)
	m["sessionid.boundaries"] = float64(pl.boundaries)
	m["features.accumulator.observe_ns_per_txn"] = per(t["core.tracked_observe"].total, pl.observed)
	m["features.accumulator.row_ns"] = per(t["isolated.features.accumulator.vector"].total, rep.accSessions)
	if pl.w.windowed {
		m["features.scratch.row_ns_per_txn"] = per(t["core.row"].total, pl.rowTxns)
	} else {
		m["core.tracked_row_ns_per_client"] = per(t["core.row"].total, pl.rows)
	}
	m["core.classify_block_ns_per_row"] = per(t["core.classify_block"].total, pl.rows)
	m["core.rows_classified"] = float64(pl.rows)
	m["core.load_estimator_ms"] = float64(rep.loadModel) / 1e6
	m["compiled.forest_batch_ns_per_row"] = per(t["isolated.compiled.forest_batch"].total, rep.forestRows)
	m["trace.overhead_ratio"] = float64(rep.tracedWall) / float64(rep.plainWall)

	// The layers' share of the daemon's cost per record, and the rest.
	layers := t["ingest.run"].self + t["sessionid.push"].total + t["core.tracked_observe"].total +
		t["core.row"].total + t["core.classify_block"].total
	m["qoeproxy.layers_us_per_record"] = per(layers, pl.records) / 1e3
	m["qoeproxy.glue_us_per_record"] = m["cpu_us_per_record"] - m["qoeproxy.layers_us_per_record"]
}

// printTable writes the human-readable report: validity guards first,
// then every metric of the mode with its unit and direction.
func printTable(w *workload, o options, pr *prepared, ob *observed, v *verification, m map[string]float64, notes []string, overloaded bool) {
	fmt.Printf("== %s  seed %d  seconds %d  scale %g  repeats %d  trace %v\n", w.name, o.seed, o.seconds, o.scale, o.repeats, o.trace)
	fmt.Printf("   %s\n", w.why)
	fmt.Printf("   host: %d cpus, GOMAXPROCS %d, %s, scratch on %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), filesystemOf(o.out))
	fmt.Printf("   input: %d records, %d clients; daemon flags: -source %s %s\n",
		pr.records, len(pr.clients), w.source, strings.Join(w.flags, " "))
	fmt.Printf("   operations (one per client's final verdict): attempted %d, succeeded %d, failed %d\n",
		v.clients, v.clients-v.failed, v.failed)
	fmt.Printf("   oracle: class agreement %.4f, boundary mismatch share %.4f (reported, not gated), verdict_digest %s\n",
		v.classAgreement(), v.boundaryMismatchShare(), v.digest)
	fmt.Printf("   guards: stderr lines read %d, daemon error lines %d, overloaded %v", ob.stderrLines, ob.errorLines, overloaded)
	if w.paced {
		fmt.Printf(", generator_late_p50_ms %.3f, generator_late_p99_ms %.3f", m["generator.late_p50_ms"], m["generator.late_p99_ms"])
	}
	fmt.Println()
	for _, n := range notes {
		fmt.Printf("   note: %s\n", n)
	}
	defs := endToEnd
	if o.trace {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, d := range defs {
		fmt.Printf("   %-42s %16.4f %-6s (%s is better)\n", d.name, m[d.name], d.unit, d.better)
	}
}

// filesystemOf names the filesystem type holding path, so a reader can
// tell a tmpfs run from a disk run.
func filesystemOf(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown filesystem"
	}
	best, kind := "", "unknown filesystem"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if (path == f[1] || strings.HasPrefix(path, strings.TrimSuffix(f[1], "/")+"/")) && len(f[1]) > len(best) {
			best, kind = f[1], f[2]
		}
	}
	return kind
}
