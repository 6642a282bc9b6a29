// Command qoeload is the soak verifier for cmd/qoeproxy: it generates
// tracegen-derived workloads (per-service-profile session mixes dealt to
// thousands of simulated clients, steady or bursty arrivals), drives
// them through a real daemon process, and checks that the service loop
// held together — every record committed exactly once, no
// classification or sink errors, a healthy /healthz, a clean exit on
// SIGTERM. It measures nothing: throughput, latency and memory figures
// come from the benchmark ledger (bash bench/run.sh), which times the
// same daemon for long enough to mean something and checks it against
// an offline oracle.
//
// Usage:
//
//	qoeload [-clients 10000] [-pool 120] [-seed 7]
//	        [-shapes steady,bursty] [-speed 0] [-ramp 60s]
//	        [-transport replay|sockets]
//	        [-classify-every 500ms] [-window 0] [-shards N]
//	        [-classify-workers N]
//	        [-replay-workers 4] [-socket-workers 32]
//	        [-instances N] [-settle 60s] [-bin path]
//
// Transport "replay" (the default) ships the workload to the daemon as
// a CSV and lets qoeproxy -source replay deliver it through the
// record-replay seam at -speed times recorded time (0 = as fast as
// possible) on -replay-workers delivery goroutines — no socket is
// opened, which is how five-digit client counts fit on one box. Transport
// "sockets" opens real TLS-shaped connections through the proxy
// listener against a synthetic origin, bounded by -socket-workers
// concurrent fetches; it exercises the full network path at smaller
// scale.
//
// -instances N adds a fleet check: N daemons behind one consistent-hash
// ring, each fed the identical workload with its ring filter skipping
// non-owned clients, checked for exactly-once coverage and clean
// SIGTERM-with-snapshot; see fleet.go. -shapes "" skips the per-shape
// runs so a fleet soak can run alone.
//
// The harness fails (exit 1) if the daemon drops records
// (transactions_total != records replayed), reports classification
// errors or sink write failures, serves an unhealthy /healthz, or
// exits uncleanly.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"droppackets/internal/core"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
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

	classifyEvery   time.Duration
	window          time.Duration
	shards          int
	classifyWorkers int
	ingestWorkers   int
	socketWorkers   int

	instances int

	settle time.Duration
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
	flag.StringVar(&o.transport, "transport", "replay", "how records reach the daemon: replay (record-replay seam) or sockets (real connections)")
	flag.DurationVar(&o.classifyEvery, "classify-every", 500*time.Millisecond, "daemon classification interval")
	flag.DurationVar(&o.window, "window", 0, "daemon classification window (0 = whole current session)")
	flag.IntVar(&o.shards, "shards", 0, "daemon lock shards (0 = daemon default)")
	flag.IntVar(&o.classifyWorkers, "classify-workers", 0, "daemon classify workers (0 = daemon default)")
	flag.IntVar(&o.ingestWorkers, "replay-workers", 4, "daemon -ingest-workers: replay delivery goroutines (replay transport)")
	flag.IntVar(&o.socketWorkers, "socket-workers", 32, "concurrent fetches (sockets transport)")
	flag.IntVar(&o.instances, "instances", 0, "also check a consistent-hash partitioned fleet of N daemons against the shared workload (0 = skip the fleet check)")
	flag.DurationVar(&o.settle, "settle", 60*time.Second, "how long to wait after replay for classification passes to accumulate")
	flag.StringVar(&o.bin, "bin", "", "prebuilt qoeproxy binary (empty: go build one into a temp dir)")
	flag.Parse()

	if err := runLoad(o); err != nil {
		fmt.Fprintln(os.Stderr, "qoeload:", err)
		os.Exit(1)
	}
}

// runLoad executes every requested shape and the fleet check,
// returning an error if any of them failed a correctness check.
func runLoad(o loadOptions) error {
	var shapes []string
	if o.shapes != "" {
		shapes = strings.Split(o.shapes, ",")
		for i := range shapes {
			shapes[i] = strings.TrimSpace(shapes[i])
		}
	}
	if o.transport != "replay" && o.transport != "sockets" {
		return fmt.Errorf("-transport %q: want replay or sockets", o.transport)
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

	var failed []string
	for _, shape := range shapes {
		fmt.Fprintf(os.Stderr, "qoeload: generating %s workload (%d clients)\n", shape, o.clients)
		w, err := p.generate(genConfig{clients: o.clients, seed: o.seed, ramp: o.ramp.Seconds(), shape: shape})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "qoeload: %s: %d records, %.0fs simulated, peak %d concurrent sessions\n",
			shape, len(w.records), w.simSeconds, w.peakConcurrent)
		failures, err := runShape(o, bin, modelPath, dir, w)
		if err != nil {
			return fmt.Errorf("shape %s: %w", shape, err)
		}
		for _, f := range failures {
			failed = append(failed, shape+": "+f)
		}
	}

	if o.instances > 0 {
		w, err := p.generate(genConfig{clients: o.clients, seed: o.seed, ramp: o.ramp.Seconds(), shape: "steady"})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "qoeload: fleet check: %d instance(s), %d records, %d clients\n",
			o.instances, len(w.records), w.clients)
		failures, err := runFleet(o, bin, modelPath, dir, w, o.instances)
		if err != nil {
			return fmt.Errorf("fleet %d: %w", o.instances, err)
		}
		for _, f := range failures {
			failed = append(failed, fmt.Sprintf("fleet %d: %s", o.instances, f))
		}
	}

	if len(failed) > 0 {
		return fmt.Errorf("checks failed:\n  %s", strings.Join(failed, "\n  "))
	}
	fmt.Fprintln(os.Stderr, "qoeload: all checks passed")
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
	replayDone  chan int64   // records the source delivered
	classErrors atomic.Int64 // "classification failed" log lines
}

func newDaemonEvents() *daemonEvents {
	return &daemonEvents{
		listenAddr:  make(chan string, 1),
		metricsAddr: make(chan string, 1),
		replayDone:  make(chan int64, 1),
	}
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
				Records int64 `json:"records"`
			}
			if json.Unmarshal([]byte(line), &e) == nil {
				select {
				case ev.replayDone <- e.Records:
				default:
				}
			}
		case strings.Contains(line, `"msg":"classification failed"`):
			ev.classErrors.Add(1)
		}
	}
}

// runShape boots one daemon, pushes one workload through it, and
// returns the correctness checks it failed.
func runShape(o loadOptions, bin, modelPath, dir string, w *workload) (failures []string, err error) {
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
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
	if err := f.Close(); err != nil {
		return nil, err
	}

	args := []string{
		"-model", modelPath,
		"-metrics", "127.0.0.1:0",
		"-out", filepath.Join(dir, w.shape+".out.csv"),
		"-classify-every", o.classifyEvery.String(),
		"-window", o.window.String(),
	}
	if o.shards > 0 {
		args = append(args, "-shards", fmt.Sprint(o.shards))
	}
	if o.classifyWorkers > 0 {
		args = append(args, "-classify-workers", fmt.Sprint(o.classifyWorkers))
	}
	if o.transport == "sockets" {
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
	} else {
		args = append(args,
			"-source", "replay",
			"-input", csvPath,
			"-ingest-speed", fmt.Sprint(o.speed),
			"-ingest-workers", fmt.Sprint(o.ingestWorkers))
	}
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	ev := newDaemonEvents()
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

	select {
	case delivered := <-ev.replayDone:
		if delivered != int64(len(w.records)) {
			fail("replay delivered %d records, workload has %d", delivered, len(w.records))
		}
	case <-time.After(10 * time.Minute):
		fail("replay did not complete within 10m")
	}

	// Settle: all records ingested and a few classification passes on
	// the fully-loaded state.
	last, err := awaitSettled(func() *scrapeData { return scrape(base) }, len(w.records), 3, o.settle)
	if err != nil {
		fail("%v", err)
	}
	if last == nil {
		// Nothing to read the counters from; the deferred Kill reaps the
		// daemon.
		return failures, nil
	}

	health := healthz(base).Status

	// Shut the daemon down and let it flush.
	cmd.Process.Signal(syscall.SIGTERM)
	if err := awaitExit(cmd); err != nil {
		fail("daemon %v", err)
	}

	transactions := int64(last.value("qoeproxy_transactions_total"))
	if transactions != int64(len(w.records)) {
		fail("dropped records: transactions_total %d, want %d", transactions, len(w.records))
	}
	if n := int64(last.value("qoeproxy_classification_errors_total")); n != 0 || ev.classErrors.Load() != 0 {
		fail("classification errors: counter %d, log lines %d", n, ev.classErrors.Load())
	}
	if n := int64(last.value("qoeproxy_sink_write_failures_total")); n != 0 {
		fail("sink write failures: %d", n)
	}
	if health != "ok" {
		fail("healthz = %q, want ok", health)
	}
	runs := int64(last.value("qoeproxy_classification_runs_total"))
	if runs < 1 {
		fail("no classification pass completed")
	}
	fmt.Fprintf(os.Stderr, "qoeload: %s: %d/%d records committed, %d classification passes, healthz %q, %d check(s) failed\n",
		w.shape, transactions, len(w.records), runs, health, len(failures))
	return failures, nil
}

// awaitSettled polls scrape until the daemon has committed exactly
// records transactions and completed minRuns classification passes, or
// limit runs out. It returns the last scrape that answered — nil if
// none ever did — and an error describing a missed deadline.
func awaitSettled(scrape func() *scrapeData, records int, minRuns float64, limit time.Duration) (*scrapeData, error) {
	deadline := time.Now().Add(limit)
	var last *scrapeData
	for {
		if s := scrape(); s != nil {
			last = s
			if s.value("qoeproxy_transactions_total") == float64(records) &&
				s.value("qoeproxy_classification_runs_total") >= minRuns {
				return last, nil
			}
		}
		if time.Now().After(deadline) {
			if last == nil {
				return nil, fmt.Errorf("metrics endpoint never answered within %s", limit)
			}
			return last, fmt.Errorf("daemon did not settle within %s (transactions %.0f/%d, runs %.0f)",
				limit, last.value("qoeproxy_transactions_total"), records,
				last.value("qoeproxy_classification_runs_total"))
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// driveSockets replays the workload as real proxied connections: each
// record becomes a dial + fetch of its DownBytes through the proxy,
// paced by RecordSource across -socket-workers lanes.
func driveSockets(proxyAddr string, w *workload, o loadOptions, ev *daemonEvents) {
	src := &tlsproxy.RecordSource{Records: w.records, Speed: o.speed, Workers: o.socketWorkers}
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
	case ev.replayDone <- delivered.Load():
	default:
	}
}
