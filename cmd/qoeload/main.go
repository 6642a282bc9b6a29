// Command qoeload is the replay load harness for cmd/qoeproxy: it
// generates tracegen-derived workloads (per-service-profile session
// mixes dealt to tens of thousands of simulated clients, steady or
// bursty arrivals), drives them through the daemon's real ingest and
// classify path, and measures what the service sustains — transaction
// throughput, classify-tick latency percentiles, ingest contention,
// allocation and GC pressure — writing a machine-readable
// BENCH_load.json.
//
// Usage:
//
//	qoeload [-clients 10000] [-pool 120] [-seed 7]
//	        [-shapes steady,bursty] [-speed 0] [-ramp 60s]
//	        [-transport replay|sockets|squid] [-slow-sink]
//	        [-classify-every 500ms] [-window 0] [-shards N]
//	        [-classify-workers N]
//	        [-replay-workers 4] [-socket-workers 32]
//	        [-instances N] [-settle 60s] [-out BENCH_load.json] [-bin path]
//
// Transport "replay" (the default) ships the workload to the daemon as
// a CSV and lets qoeproxy -source replay deliver it through the
// record-replay seam at -speed times recorded time (0 = as fast as
// possible) on -replay-workers delivery goroutines — no socket is
// opened, which is how five-digit client counts fit on one box. Transport
// "sockets" opens real TLS-shaped connections through the proxy
// listener against a synthetic origin, bounded by -socket-workers
// concurrent fetches; it exercises the full network path at smaller
// scale. Transport "squid" renders the workload as a Squid access log
// and has the daemon ingest it via -source=squid, measuring the
// log-parse-and-reorder path end to end. -slow-sink routes the
// daemon's -out CSV through a deliberately slow FIFO reader,
// exercising sink backpressure during load.
//
// -instances N adds a fleet section to the report: N daemons behind
// one consistent-hash ring (plus a 1-instance baseline), each fed the
// identical workload with its ring filter skipping non-owned clients,
// checked for exactly-once coverage and clean SIGTERM-with-snapshot;
// see fleet.go. -shapes "" skips the per-shape runs so a fleet smoke
// can run alone.
//
// The harness fails (exit 1) if the daemon drops records
// (transactions_total != records replayed), reports classification
// errors or sink write failures, serves an unhealthy /healthz, or
// exits uncleanly. The run still writes BENCH_load.json so a failing
// run can be diagnosed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

type loadOptions struct {
	clients int
	pool    int
	seed    int64
	shapes  string
	speed   float64
	ramp    time.Duration

	transport string
	slowSink  bool

	classifyEvery   time.Duration
	window          time.Duration
	shards          int
	classifyWorkers int
	ingestWorkers   int
	socketWorkers   int

	instances int

	settle time.Duration
	out    string
	bin    string
}

func main() {
	var o loadOptions
	flag.IntVar(&o.clients, "clients", 10000, "simulated clients per workload shape")
	flag.IntVar(&o.pool, "pool", 120, "sessions generated per service profile for the replay pool")
	flag.Int64Var(&o.seed, "seed", 7, "workload generation seed")
	flag.StringVar(&o.shapes, "shapes", "steady,bursty", "comma-separated workload shapes to run (steady, bursty)")
	flag.Float64Var(&o.speed, "speed", 0, "replay time-compression factor (1 = recorded speed, 0 = as fast as possible)")
	flag.DurationVar(&o.ramp, "ramp", 60*time.Second, "simulated client-arrival spread")
	flag.StringVar(&o.transport, "transport", "replay", "how records reach the daemon: replay (record-replay seam), sockets (real connections), or squid (access-log ingest)")
	flag.BoolVar(&o.slowSink, "slow-sink", false, "route the daemon's -out CSV through a slow FIFO reader to exercise sink backpressure")
	flag.DurationVar(&o.classifyEvery, "classify-every", 500*time.Millisecond, "daemon classification interval")
	flag.DurationVar(&o.window, "window", 0, "daemon classification window (0 = whole current session)")
	flag.IntVar(&o.shards, "shards", 0, "daemon lock shards (0 = daemon default)")
	flag.IntVar(&o.classifyWorkers, "classify-workers", 0, "daemon classify workers (0 = daemon default)")
	flag.IntVar(&o.ingestWorkers, "replay-workers", 4, "daemon -ingest-workers: replay delivery goroutines (replay transport)")
	flag.IntVar(&o.socketWorkers, "socket-workers", 32, "concurrent fetches (sockets transport)")
	flag.IntVar(&o.instances, "instances", 0, "also bench a consistent-hash partitioned fleet of N daemons against the shared workload (0 = skip the fleet section)")
	flag.DurationVar(&o.settle, "settle", 60*time.Second, "how long to wait after replay for classification passes to accumulate")
	flag.StringVar(&o.out, "out", "BENCH_load.json", "write the load report here")
	flag.StringVar(&o.bin, "bin", "", "prebuilt qoeproxy binary (empty: go build one into a temp dir)")
	flag.Parse()

	if err := runLoad(o); err != nil {
		fmt.Fprintln(os.Stderr, "qoeload:", err)
		os.Exit(1)
	}
}

// runLoad executes every requested shape and writes the report,
// returning an error if any shape failed a correctness check.
func runLoad(o loadOptions) error {
	var shapes []string
	if o.shapes != "" {
		shapes = strings.Split(o.shapes, ",")
		for i := range shapes {
			shapes[i] = strings.TrimSpace(shapes[i])
		}
	}
	if o.instances > 0 && o.transport != "replay" {
		return fmt.Errorf("-instances requires the replay transport")
	}
	dir, err := os.MkdirTemp("", "qoeload")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(os.Stderr, "qoeload: building session pool (%d/profile, seed %d)\n", o.pool, o.seed)
	p, err := buildPool(o.seed, o.pool)
	if err != nil {
		return err
	}
	modelPath := filepath.Join(dir, "model.json")
	if err := trainModel(p, o.seed, modelPath); err != nil {
		return err
	}
	bin := o.bin
	if bin == "" {
		bin = filepath.Join(dir, "qoeproxy")
		fmt.Fprintf(os.Stderr, "qoeload: building %s\n", bin)
		cmd := exec.Command("go", "build", "-o", bin, "droppackets/cmd/qoeproxy")
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("building qoeproxy: %w", err)
		}
	}

	report := &benchReport{
		Date: time.Now().UTC().Format(time.RFC3339),
		Host: map[string]any{
			"go":          runtime.Version(),
			"os":          runtime.GOOS,
			"arch":        runtime.GOARCH,
			"cpus_online": runtime.NumCPU(),
		},
		Config: map[string]any{
			"clients":          o.clients,
			"pool":             o.pool,
			"seed":             o.seed,
			"speed":            o.speed,
			"ramp_seconds":     o.ramp.Seconds(),
			"transport":        o.transport,
			"slow_sink":        o.slowSink,
			"classify_every":   o.classifyEvery.String(),
			"window":           o.window.String(),
			"shards":           o.shards,
			"classify_workers": o.classifyWorkers,
			"replay_workers":   o.ingestWorkers,
			"socket_workers":   o.socketWorkers,
			"instances":        o.instances,
		},
		Shapes: map[string]*shapeResult{},
	}

	var failed []string
	for _, shape := range shapes {
		fmt.Fprintf(os.Stderr, "qoeload: generating %s workload (%d clients)\n", shape, o.clients)
		w, err := p.generate(genConfig{clients: o.clients, seed: o.seed, ramp: o.ramp.Seconds(), shape: shape})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "qoeload: %s: %d records, %.0fs simulated, peak %d concurrent sessions\n",
			shape, len(w.records), w.simSeconds, w.peakConcurrent)
		res, err := runShape(o, bin, modelPath, dir, w)
		if err != nil {
			return fmt.Errorf("shape %s: %w", shape, err)
		}
		report.Shapes[shape] = res
		for _, f := range res.Failures {
			failed = append(failed, shape+": "+f)
		}
	}

	// Fleet section: 1 instance as the scale-out baseline, then the
	// requested count — same workload, same ring math, so the two rows
	// are directly comparable.
	if o.instances > 0 {
		report.Fleet = map[string]*fleetResult{}
		counts := []int{1}
		if o.instances > 1 {
			counts = append(counts, o.instances)
		}
		w, err := p.generate(genConfig{clients: o.clients, seed: o.seed, ramp: o.ramp.Seconds(), shape: "steady"})
		if err != nil {
			return err
		}
		for _, n := range counts {
			fmt.Fprintf(os.Stderr, "qoeload: fleet bench: %d instance(s), %d records, %d clients\n",
				n, len(w.records), w.clients)
			fres, err := runFleet(o, bin, modelPath, dir, w, n)
			if err != nil {
				return fmt.Errorf("fleet %d: %w", n, err)
			}
			report.Fleet[fmt.Sprint(n)] = fres
			for _, f := range fres.Failures {
				failed = append(failed, fmt.Sprintf("fleet %d: %s", n, f))
			}
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "qoeload: wrote %s\n", o.out)
	if len(failed) > 0 {
		return fmt.Errorf("checks failed:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

// trainModel trains a small estimator on the whole pool and saves it
// for the daemon.
func trainModel(p *pool, seed int64, path string) error {
	var training []core.TrainingSession
	for _, c := range p.corpora {
		for _, r := range c.Records {
			training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
		}
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 8, Seed: seed}})
	if err := est.Train(training); err != nil {
		return fmt.Errorf("training model: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := est.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// daemonEvents carries what the stderr parser extracts from the
// daemon's JSON logs.
type daemonEvents struct {
	listenAddr  chan string // proxy listener address
	metricsAddr chan string
	replayDone  chan replayOutcome
	classErrors atomic.Int64 // "classification failed" log lines
}

type replayOutcome struct {
	records     int64
	wallSeconds float64
}

// watchStderr parses the daemon's JSON log lines, extracting the
// addresses and the replay-completion event. Lines are pre-filtered by
// substring so the 10k-client classification log volume doesn't cost a
// JSON decode each.
func watchStderr(r io.Reader, ev *daemonEvents) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 256*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.Contains(line, `"msg":"metrics listening"`):
			var e struct {
				Addr string `json:"addr"`
			}
			if json.Unmarshal([]byte(line), &e) == nil {
				select {
				case ev.metricsAddr <- e.Addr:
				default:
				}
			}
		case strings.Contains(line, `"msg":"listening"`):
			var e struct {
				Addr string `json:"addr"`
			}
			if json.Unmarshal([]byte(line), &e) == nil {
				select {
				case ev.listenAddr <- e.Addr:
				default:
				}
			}
		case strings.Contains(line, `"msg":"ingest complete"`):
			var e struct {
				Records     int64   `json:"records"`
				WallSeconds float64 `json:"wall_seconds"`
			}
			if json.Unmarshal([]byte(line), &e) == nil {
				select {
				case ev.replayDone <- replayOutcome{e.Records, e.WallSeconds}:
				default:
				}
			}
		case strings.Contains(line, `"msg":"classification failed"`):
			ev.classErrors.Add(1)
		}
	}
}

// slowFIFO creates a named pipe at path and drains it slowly (4KB per
// 10ms, ~400KB/s), so the daemon's sink writer sees sustained
// backpressure. The drain stops when the writer closes.
func slowFIFO(path string) error {
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		return fmt.Errorf("mkfifo: %w", err)
	}
	go func() {
		f, err := os.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			return
		}
		defer f.Close()
		buf := make([]byte, 4096)
		for {
			if _, err := f.Read(buf); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	return nil
}

// runShape boots one daemon, pushes one workload through it, and
// collects the measurements and correctness checks.
func runShape(o loadOptions, bin, modelPath, dir string, w *workload) (*shapeResult, error) {
	res := &shapeResult{
		Records:           len(w.records),
		Clients:           w.clients,
		SimSeconds:        w.simSeconds,
		SimPeakConcurrent: w.peakConcurrent,
	}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	csvPath := filepath.Join(dir, w.shape+".workload.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		return nil, err
	}
	if err := tlsproxy.WriteWorkload(f, w.records); err != nil {
		f.Close()
		return nil, err
	}
	f.Close()

	outPath := filepath.Join(dir, w.shape+".out.csv")
	if o.slowSink {
		outPath = filepath.Join(dir, w.shape+".out.fifo")
		if err := slowFIFO(outPath); err != nil {
			return nil, err
		}
	}

	args := []string{
		"-model", modelPath,
		"-metrics", "127.0.0.1:0",
		"-out", outPath,
		"-classify-every", o.classifyEvery.String(),
		"-window", o.window.String(),
	}
	if o.shards > 0 {
		args = append(args, "-shards", fmt.Sprint(o.shards))
	}
	if o.classifyWorkers > 0 {
		args = append(args, "-classify-workers", fmt.Sprint(o.classifyWorkers))
	}
	switch o.transport {
	case "sockets":
		// The only transport with a relay: the daemon listens, and dials an
		// in-process origin for every connection driveSockets opens.
		ol, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		origin := tlsproxy.NewOrigin(0)
		go origin.Serve(ol)
		defer origin.Close()
		args = append(args, "-listen", "127.0.0.1:0", "-upstream", ol.Addr().String())
	case "replay":
		args = append(args,
			"-source", "replay",
			"-input", csvPath,
			"-ingest-speed", fmt.Sprint(o.speed),
			"-ingest-workers", fmt.Sprint(o.ingestWorkers))
	case "squid":
		// Render the workload as an end-time-ordered access log — the
		// order a real Squid writes — and let the daemon's tailer ingest
		// it as a bounded file.
		logPath := filepath.Join(dir, w.shape+".access.log")
		sorted := make([]tlsproxy.ReplayRecord, len(w.records))
		copy(sorted, w.records)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].End < sorted[j].End })
		lf, err := os.Create(logPath)
		if err != nil {
			return nil, err
		}
		bw := bufio.NewWriterSize(lf, 1<<20)
		for _, r := range sorted {
			fmt.Fprintln(bw, squidlog.FormatEntry(r.Client, capture.TLSTransaction{
				SNI: r.SNI, Start: r.Start, End: r.End, UpBytes: r.UpBytes, DownBytes: r.DownBytes,
			}, 0))
		}
		if err := bw.Flush(); err != nil {
			lf.Close()
			return nil, err
		}
		if err := lf.Close(); err != nil {
			return nil, err
		}
		args = append(args,
			"-source", "squid",
			"-input", logPath,
			"-follow=false",
			"-ingest-epoch", "0")
	}
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	ev := &daemonEvents{
		listenAddr:  make(chan string, 1),
		metricsAddr: make(chan string, 1),
		replayDone:  make(chan replayOutcome, 1),
	}
	go watchStderr(stderr, ev)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	defer cmd.Process.Kill()

	var metricsAddr string
	select {
	case metricsAddr = <-ev.metricsAddr:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("daemon never reported its metrics address")
	}
	base := "http://" + metricsAddr

	// Sockets transport drives the workload itself; replay mode waits
	// for the daemon's replayer.
	if o.transport == "sockets" {
		var listenAddr string
		select {
		case listenAddr = <-ev.listenAddr:
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("daemon never reported its listen address")
		}
		go driveSockets(listenAddr, w, o, ev)
	}

	// Scrape loop: track peaks until the replay finishes, then let
	// classification passes settle.
	scrape := func() *scrapeData {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			return nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil
		}
		s, err := parseMetrics(string(body))
		if err != nil {
			return nil
		}
		res.PeakActiveSessions = max(res.PeakActiveSessions, s.value("qoeproxy_active_sessions"))
		res.PeakGoroutines = max(res.PeakGoroutines, s.value("qoeproxy_goroutines"))
		res.PeakHeapInuse = max(res.PeakHeapInuse, s.value("qoeproxy_heap_inuse_bytes"))
		return s
	}

	var outcome replayOutcome
	replayTimeout := time.After(10 * time.Minute)
waitReplay:
	for {
		select {
		case outcome = <-ev.replayDone:
			break waitReplay
		case <-replayTimeout:
			fail("replay did not complete within 10m")
			break waitReplay
		case <-time.After(200 * time.Millisecond):
			scrape()
		}
	}
	res.ReplayWallSeconds = outcome.wallSeconds
	if outcome.wallSeconds > 0 {
		res.RecordsPerSecond = float64(outcome.records) / outcome.wallSeconds
	}
	if outcome.records != int64(len(w.records)) {
		fail("replay delivered %d records, workload has %d", outcome.records, len(w.records))
	}

	// Settle: all records ingested and a few classification passes on
	// the fully-loaded state.
	deadline := time.Now().Add(o.settle)
	var last *scrapeData
	for {
		last = scrape()
		if last != nil &&
			last.value("qoeproxy_transactions_total") == float64(len(w.records)) &&
			last.value("qoeproxy_classification_runs_total") >= 3 {
			break
		}
		if time.Now().After(deadline) {
			fail("daemon did not settle within %s (transactions %.0f/%d, runs %.0f)",
				o.settle, last.value("qoeproxy_transactions_total"), len(w.records),
				last.value("qoeproxy_classification_runs_total"))
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if last == nil {
		return nil, fmt.Errorf("metrics endpoint never answered")
	}

	res.TransactionsTotal = int64(last.value("qoeproxy_transactions_total"))
	res.SessionBoundaries = int64(last.value("qoeproxy_session_boundaries_total"))
	res.ClassificationRuns = int64(last.value("qoeproxy_classification_runs_total"))
	res.ClassificationErrors = int64(last.value("qoeproxy_classification_errors_total"))
	res.SinkWriteFailures = int64(last.value("qoeproxy_sink_write_failures_total"))
	res.IngestContention = int64(last.value("qoeproxy_ingest_contention_total"))
	res.GCPauseSeconds = last.value("qoeproxy_gc_pause_seconds_total")
	res.GCRuns = int64(last.value("qoeproxy_gc_runs_total"))
	res.HeapAllocBytes = int64(last.value("qoeproxy_heap_alloc_bytes_total"))
	res.ShardClassify = summarize(last.hists["qoeproxy_shard_classify_seconds"])
	res.Inference = summarize(last.hists["qoeproxy_inference_seconds"])

	if resp, err := http.Get(base + "/healthz"); err == nil {
		var h struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		res.Healthz = h.Status
	} else {
		res.Healthz = "unreachable"
	}

	// Shut the daemon down and let it flush.
	cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		res.CleanExit = err == nil
		if err != nil {
			fail("daemon exited with %v", err)
		}
	case <-time.After(60 * time.Second):
		fail("daemon did not exit within 60s of SIGTERM")
		cmd.Process.Kill()
		<-exited
	}

	if res.TransactionsTotal != int64(len(w.records)) {
		fail("dropped records: transactions_total %d, want %d", res.TransactionsTotal, len(w.records))
	}
	if res.ClassificationErrors != 0 || ev.classErrors.Load() != 0 {
		fail("classification errors: counter %d, log lines %d", res.ClassificationErrors, ev.classErrors.Load())
	}
	if res.SinkWriteFailures != 0 {
		fail("sink write failures: %d", res.SinkWriteFailures)
	}
	if res.Healthz != "ok" {
		fail("healthz = %q, want ok", res.Healthz)
	}
	if res.ClassificationRuns < 1 {
		fail("no classification pass completed")
	}
	return res, nil
}

// driveSockets replays the workload as real proxied connections: each
// record becomes a dial + fetch of its DownBytes through the proxy,
// paced by RecordSource across -socket-workers lanes.
func driveSockets(proxyAddr string, w *workload, o loadOptions, ev *daemonEvents) {
	src := &tlsproxy.RecordSource{Records: w.records, Speed: o.speed, Workers: o.socketWorkers}
	start := time.Now()
	var delivered atomic.Int64
	src.RunBatched(context.Background(), time.Now(), nil, func(recs []tlsproxy.Record) {
		for _, r := range recs {
			c, err := tlsproxy.Dial(proxyAddr, r.SNI)
			if err != nil {
				continue
			}
			if _, err := c.Fetch(r.DownBytes); err == nil {
				delivered.Add(1)
			}
			c.Close()
		}
	}, 1)
	select {
	case ev.replayDone <- replayOutcome{delivered.Load(), time.Since(start).Seconds()}:
	default:
	}
}
