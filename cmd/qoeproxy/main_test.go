package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/serve"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

func TestLoadResolverMapAndFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.txt")
	content := "# comment\ncdn-01.svc1.example 10.0.0.1:9443\napi.svc1.example 10.0.0.2:9443\n\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := loadResolver(path, "fallback:443")
	if err != nil {
		t.Fatal(err)
	}
	if addr, _ := r("cdn-01.svc1.example"); addr != "10.0.0.1:9443" {
		t.Errorf("mapped SNI -> %s", addr)
	}
	if addr, _ := r("other.example"); addr != "fallback:443" {
		t.Errorf("unmapped SNI -> %s", addr)
	}
}

func TestLoadResolverNoFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "map.txt")
	os.WriteFile(path, []byte("a.example 1.2.3.4:443\n"), 0o644)
	r, err := loadResolver(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r("unmapped.example"); err == nil {
		t.Error("unmapped SNI without fallback should error")
	}
}

func TestLoadResolverErrors(t *testing.T) {
	if _, err := loadResolver("", ""); err == nil {
		t.Error("no map and no fallback accepted")
	}
	if _, err := loadResolver("/nonexistent/map", "x:1"); err == nil {
		t.Error("missing map file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	os.WriteFile(bad, []byte("one-field-only\n"), 0o644)
	if _, err := loadResolver(bad, "x:1"); err == nil {
		t.Error("malformed map line accepted")
	}
}

// freePorts returns n distinct loopback addresses that were free a
// moment ago. Every listener stays open until all n are chosen, so one
// call never hands out the same port twice.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs
}

func TestOpenAppendHeaderOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "txns.csv")
	f, empty, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if !empty {
		t.Error("fresh file reported non-empty")
	}
	f.WriteString("header\n")
	f.Close()
	f, empty, err = openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if empty {
		t.Error("existing file reported empty: header would duplicate")
	}
}

// TestRunValidatesOutputsBeforeBinding feeds run an uncreatable -out
// path and expects an error naming the flag, with the listen address
// never bound (so no client could have connected to a doomed daemon).
func TestRunValidatesOutputsBeforeBinding(t *testing.T) {
	listen := freePorts(t, 1)[0]
	err := run(options{
		listen:   listen,
		upstream: "127.0.0.1:1",
		outPath:  filepath.Join(t.TempDir(), "missing-dir", "txns.csv"),
	})
	if err == nil {
		t.Fatal("run accepted an uncreatable -out path")
	}
	if !strings.Contains(err.Error(), "-out") {
		t.Errorf("error does not name the flag: %v", err)
	}
	// The listener must never have come up.
	if conn, err := net.DialTimeout("tcp", listen, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Error("listen address was bound despite invalid output path")
	}

	err = run(options{
		listen:    listen,
		upstream:  "127.0.0.1:1",
		modelPath: filepath.Join(t.TempDir(), "no-such-model.json"),
	})
	if err == nil {
		t.Fatal("run accepted a missing model")
	}
}

// TestRunRejectsNonFiniteEpoch checks that -ingest-epoch must be a
// finite number: flag parsing accepts "nan" and "inf", and a NaN epoch
// would otherwise rebase a pcap's flows to arbitrary offsets or make a
// Squid source silently use its first entry.
func TestRunRejectsNonFiniteEpoch(t *testing.T) {
	for _, epoch := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, source := range []string{"squid", "pcap"} {
			err := run(options{
				source:      source,
				input:       filepath.Join(t.TempDir(), "missing"),
				ingestEpoch: epoch,
			})
			if err == nil || !strings.Contains(err.Error(), "-ingest-epoch") {
				t.Errorf("-source %s -ingest-epoch %v: err = %v, want one naming -ingest-epoch", source, epoch, err)
			}
		}
	}
}

// TestRunBindsMetricsBeforeIngest occupies the -metrics port and runs a
// file source: the bind failure must surface before the source
// delivers anything, so -out holds its header and not one record. (The
// bind once followed the source's start, and a fast file source had
// appended its records by the time the daemon exited with the error.)
func TestRunBindsMetricsBeforeIngest(t *testing.T) {
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()

	dir := t.TempDir()
	workloadPath := filepath.Join(dir, "workload.csv")
	wf, err := os.Create(workloadPath)
	if err != nil {
		t.Fatal(err)
	}
	var recs []tlsproxy.ReplayRecord
	for i := 0; i < 500; i++ {
		recs = append(recs, tlsproxy.ReplayRecord{
			Client: fmt.Sprintf("10.44.0.%d:40000", i%50+1), SNI: "cdn-01.svc1.example",
			Start: float64(i), End: float64(i) + 0.5, UpBytes: 400, DownBytes: 150_000,
		})
	}
	if err := tlsproxy.WriteWorkload(wf, recs); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	outPath := filepath.Join(dir, "txns.csv")
	err = run(options{
		metricsAddr: occupied.Addr().String(),
		source:      "replay",
		input:       workloadPath,
		outPath:     outPath,
	})
	if err == nil {
		t.Fatal("run started on an occupied -metrics address")
	}
	if !strings.Contains(err.Error(), "-metrics") {
		t.Errorf("error does not name the flag: %v", err)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(out), "\n"); lines != 1 {
		t.Errorf("-out holds %d lines after a failed start, want the header alone:\n%.300s", lines, out)
	}
}

// scrape fetches a URL body, failing the test on any error.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// metricValue extracts the value of an unlabeled series from a scrape.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in scrape:\n%s", series, body)
	return 0
}

// TestClassifyPassPaths drives classifyPass directly at -window 0 and
// with a sliding window that holds the whole session, on the same
// synthetic client state — transactions split across decided,
// in-flight and buffered runs — and requires each to agree with a
// plain batch classification of the whole session. Window 0 has no
// cutoff, so it must score the whole session at any sweep clock, a
// far-future one included.
func TestClassifyPassPaths(t *testing.T) {
	corpus, err := dataset.Build(dataset.Config{Seed: 5, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 8, Seed: 5}})
	if err := est.Train(training); err != nil {
		t.Fatal(err)
	}

	txns := corpus.Records[1].Capture.TLS
	if len(txns) < 3 {
		t.Fatal("record too small to split")
	}
	want, err := est.Classify(txns)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		window time.Duration
		now    float64 // sweep clock of every pass
	}{
		{"whole-session", 0, 1}, // -window 0
		{"window0-far-future", 0, 1e6},
		{"windowed", time.Hour, 1},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s, _ := newTestService(t, options{window: mode.window}, est)
			cut1, cut2 := len(txns)/3, 2*len(txns)/3
			s.shards.Restore(&serve.ClientState{
				Client:   "10.9.9.9",
				Current:  txns[:cut1],
				InFlight: txns[cut1:cut2],
				Buffer:   txns[cut2:],
			}, est.NumClasses())

			for pass := 0; pass < 2; pass++ { // second pass reuses warm buffers
				s.dirtyAll() // re-dirty, so the second pass scores again
				s.classifyPass(mode.now)
				cs := s.client("10.9.9.9")
				got, has := cs.LastClass, cs.HasClass
				if !has {
					t.Fatalf("pass %d: no classification recorded", pass)
				}
				if got != want {
					t.Fatalf("pass %d: class = %d, batch Classify = %d", pass, got, want)
				}
				if scored := rowsScored(s); scored != int64(pass+1) {
					t.Fatalf("pass %d: %d rows scored in all, want %d", pass, scored, pass+1)
				}
			}
			if cs := s.client("10.9.9.9"); len(cs.Current) != cut1 {
				t.Fatalf("a pass changed the decided run: %d transactions, want %d", len(cs.Current), cut1)
			}
		})
	}
}

// captureStdout returns what fn prints to standard output.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	defer func() {
		os.Stdout = orig
	}()
	fn()
	w.Close()
	return string(<-done)
}

// TestDrainSummaryMatchesClassify pins the shutdown summary: every
// client's class equals Estimator.Classify over that client's retained
// ring, at several inference block sizes. Restored clients with no
// transactions are interleaved in client order: they print no line and
// must not shift the other clients' rows.
func TestDrainSummaryMatchesClassify(t *testing.T) {
	est := snapTestEstimator(t)
	events := profileEvents(t, has.Svc1(), 7, 8, 8) // one session each for 10.8.7.1 … 10.8.7.8
	empty := []string{"10.8.7.15", "10.8.7.35", "10.8.7.65"}
	for _, batch := range []int{1, 7, 0} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			s, _ := newTestService(t, options{shards: 3, classifyBatch: batch}, est)
			snap := &savedSnapshot{Version: snapshotVersion, EpochUnixNanos: s.epoch.UnixNano()}
			for _, c := range empty {
				snap.Clients = append(snap.Clients, serve.ClientState{Client: c})
			}
			if restored, _ := s.restoreState(snap); restored != len(empty) {
				t.Fatalf("restored %d clients, want %d", restored, len(empty))
			}
			feed(s, events)
			s.classifyPass(1e6) // leaves the pass scratch warm
			got := captureStdout(t, s.drain)

			names := core.ClassNames(est.Metric())
			var want strings.Builder
			classes := map[int]bool{}
			for i := 1; i <= 8; i++ {
				host := fmt.Sprintf("10.8.7.%d", i)
				cs := s.client(host)
				if cs == nil || len(cs.Recent) == 0 {
					t.Fatalf("client %s holds no transactions", host)
				}
				class, err := est.Classify(cs.Recent)
				if err != nil {
					t.Fatal(err)
				}
				classes[class] = true
				fmt.Fprintf(&want, "client %-22s sessions-qoe=%s (%d transactions, %d boundaries)\n",
					host, names[class], cs.Txns, cs.Boundaries)
			}
			if len(classes) < 2 {
				t.Fatalf("every client is class %v: the fixture cannot tell rows apart", classes)
			}
			for _, c := range empty {
				if s.client(c) == nil {
					t.Fatalf("restored client %s is gone", c)
				}
			}
			if got != want.String() {
				t.Errorf("shutdown summary:\n%s\nwant:\n%s", got, want.String())
			}
		})
	}
}

// TestRunReplay boots the daemon on a -source replay workload instead
// of live traffic and checks the records flow through the real ingest
// path: transaction and classification metrics move, and shutdown
// still drains cleanly.
func TestRunReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon integration is slow")
	}
	corpus, err := dataset.Build(dataset.Config{Seed: 3, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 8, Seed: 3}})
	if err := est.Train(training); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Save(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	// Workload: 40 clients, one session each, drawn from the corpus.
	var recs []tlsproxy.ReplayRecord
	for i := 0; i < 40; i++ {
		r := corpus.Records[i%len(corpus.Records)]
		client := fmt.Sprintf("10.42.0.%d:40000", i+1)
		for _, txn := range r.Capture.TLS {
			recs = append(recs, tlsproxy.ReplayRecord{
				Client: client, SNI: txn.SNI,
				Start: txn.Start, End: txn.End,
				UpBytes: txn.UpBytes, DownBytes: txn.DownBytes,
			})
		}
	}
	workloadPath := filepath.Join(dir, "workload.csv")
	wf, err := os.Create(workloadPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tlsproxy.WriteWorkload(wf, recs); err != nil {
		t.Fatal(err)
	}
	wf.Close()

	metricsAddr := freePorts(t, 1)[0]
	done := make(chan error, 1)
	go func() {
		done <- run(options{
			modelPath:     modelPath,
			metricsAddr:   metricsAddr,
			classifyEvery: 100 * time.Millisecond,
			classifyBatch: 8,
			source:        "replay",
			input:         workloadPath,
			ingestWorkers: 2,
		})
	}()

	// Replay runs at full speed; wait for every record to land and a
	// classification pass to run.
	base := "http://" + metricsAddr
	deadline := time.Now().Add(15 * time.Second)
	var txns, runs float64
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			txns = metricValue(t, string(body), "qoeproxy_transactions_total")
			runs = metricValue(t, string(body), "qoeproxy_classification_runs_total")
			if txns == float64(len(recs)) && runs >= 1 {
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if txns != float64(len(recs)) {
		t.Errorf("qoeproxy_transactions_total = %g, want %d", txns, len(recs))
	}
	if runs < 1 {
		t.Errorf("qoeproxy_classification_runs_total = %g, want >= 1", runs)
	}
	body := scrape(t, base+"/metrics")
	if got := metricValue(t, body, "qoeproxy_classification_errors_total"); got != 0 {
		t.Errorf("qoeproxy_classification_errors_total = %g", got)
	}
	for _, series := range []string{
		"qoeproxy_gc_pause_seconds_total",
		"qoeproxy_gc_runs_total",
		"qoeproxy_heap_alloc_bytes_total",
		"qoeproxy_heap_inuse_bytes",
		"qoeproxy_goroutines",
	} {
		metricValue(t, body, series)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestRunEndToEnd drives the daemon: origin <- proxy <- client, CSV and
// Squid outputs, live /metrics+/healthz with online classification
// while relaying, then shutdown via SIGINT with model classification.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon integration is slow")
	}
	// Train and save a tiny model for the shutdown classification.
	corpus, err := dataset.Build(dataset.Config{Seed: 2, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 8, Seed: 2}})
	if err := est.Train(training); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Save(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	// Origin behind the proxy.
	origin := tlsproxy.NewOrigin(0)
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go origin.Serve(ol)
	defer origin.Close()

	ports := freePorts(t, 2)
	listen, metricsAddr := ports[0], ports[1]
	csvPath := filepath.Join(dir, "txns.csv")
	squidPath := filepath.Join(dir, "access.log")
	done := make(chan error, 1)
	go func() {
		done <- run(options{
			listen:        listen,
			upstream:      ol.Addr().String(),
			outPath:       csvPath,
			squidPath:     squidPath,
			modelPath:     modelPath,
			metricsAddr:   metricsAddr,
			classifyEvery: 150 * time.Millisecond,
			window:        0, // whole current session
		})
	}()

	// Wait for the listener, then stream two connections through it.
	var client *tlsproxy.Client
	deadline := time.Now().Add(5 * time.Second)
	for {
		client, err = tlsproxy.Dial(listen, "cdn-01.svc1.example")
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("dial daemon: %v", err)
	}
	if _, err := client.Fetch(120_000); err != nil {
		t.Fatal(err)
	}
	client.Close()
	second, err := tlsproxy.Dial(listen, "api.svc1.example")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.Fetch(20_000); err != nil {
		t.Fatal(err)
	}
	second.Close()

	// The service must classify DURING operation: wait for a prediction
	// counter to move while the daemon is still relaying.
	base := "http://" + metricsAddr
	deadline = time.Now().Add(10 * time.Second)
	classified := false
	for !classified && time.Now().Before(deadline) {
		body := scrape(t, base+"/metrics")
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, "qoeproxy_qoe_predictions_total{") && !strings.HasSuffix(line, " 0") {
				classified = true
			}
		}
		if !classified {
			time.Sleep(100 * time.Millisecond)
		}
	}
	if !classified {
		t.Error("no online classification happened while the daemon was serving")
	}

	// Core series must exist and reflect the relayed traffic.
	body := scrape(t, base+"/metrics")
	if got := metricValue(t, body, "qoeproxy_transactions_total"); got != 2 {
		t.Errorf("qoeproxy_transactions_total = %g, want 2", got)
	}
	if got := metricValue(t, body, "qoeproxy_relayed_down_bytes_total"); got < 140_000 {
		t.Errorf("qoeproxy_relayed_down_bytes_total = %g, want >= 140000", got)
	}
	if got := metricValue(t, body, "qoeproxy_connections_total"); got != 2 {
		t.Errorf("qoeproxy_connections_total = %g, want 2", got)
	}
	if got := metricValue(t, body, "qoeproxy_clients"); got != 1 {
		t.Errorf("qoeproxy_clients = %g, want 1", got)
	}
	if got := metricValue(t, body, "qoeproxy_inference_seconds_count"); got < 1 {
		t.Errorf("qoeproxy_inference_seconds_count = %g, want >= 1", got)
	}
	if got := metricValue(t, body, "qoeproxy_feature_extraction_seconds_count"); got < 1 {
		t.Errorf("qoeproxy_feature_extraction_seconds_count = %g, want >= 1", got)
	}
	for _, series := range []string{
		"qoeproxy_hello_parse_failures_total",
		"qoeproxy_resolve_failures_total",
		"qoeproxy_dial_failures_total",
		"qoeproxy_session_boundaries_total",
		"qoeproxy_active_sessions",
	} {
		metricValue(t, body, series)
	}

	var health struct {
		Status           string  `json:"status"`
		UptimeSeconds    float64 `json:"uptime_seconds"`
		TotalConnections int64   `json:"total_connections"`
	}
	if err := json.Unmarshal([]byte(scrape(t, base+"/healthz")), &health); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if health.Status != "ok" || health.UptimeSeconds <= 0 || health.TotalConnections != 2 {
		t.Errorf("healthz = %+v", health)
	}

	// Stop the daemon.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csvData), "cdn-01.svc1.example") {
		t.Errorf("CSV missing transaction:\n%s", csvData)
	}
	squidData, err := os.ReadFile(squidPath)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := squidlog.Parse(strings.NewReader(string(squidData)))
	if err != nil {
		t.Fatalf("squid log does not parse: %v", err)
	}
	if len(entries) != 2 {
		t.Errorf("%d squid entries, want 2", len(entries))
	}
}
