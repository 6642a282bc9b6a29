// Command smoke is the CI gate for qoeproxy's service surface. It
// builds the daemon once and runs four scenarios: the proxy smoke
// (start on ephemeral ports, read the metrics address from the
// structured "metrics listening" log line, wait for /healthz to answer
// ok, scrape /metrics, assert every core and relay series exists,
// SIGTERM, require a clean drain), the
// squid-tail smoke (daemon follows a generated access log, /healthz
// answers and the core series export without a relay while the relay's
// own series stay absent, per-source ingest counters track lines
// appended mid-run, the records reach -out on the sink's flush interval
// with the qoeproxy_sink_* series adding up, SIGTERM drains cleanly), and
// the model-reload smoke (daemon starts serving model A, rolls to
// model B via POST /admin/reload and again via SIGHUP with the reload
// counters tracking each swap, then a corrupt model file is rejected
// with the old model still serving), and the fleet smoke (two daemons
// on one consistent-hash ring cover a workload exactly once, then hand
// their state over through SIGTERM snapshots and -restore). Run from
// the repo root:
//
//	go run ./scripts/smoke
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"droppackets/internal/cluster"
	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/tlsproxy"
)

// coreSeries are the metric families operators alert on, exported for
// every -source; docs/OPERATIONS.md documents each. The smoke run fails
// if any is missing from a scrape.
var coreSeries = []string{
	"qoeproxy_transactions_total",
	"qoeproxy_session_boundaries_total",
	"qoeproxy_classification_runs_total",
	"qoeproxy_classification_errors_total",
	"qoeproxy_sessions_truncated_total",
	"qoeproxy_sink_write_failures_total",
	"qoeproxy_sink_pending_bytes",
	"qoeproxy_sink_bytes_written_total",
	"qoeproxy_sink_writes_total",
	"qoeproxy_clients_evicted_total",
	"qoeproxy_qoe_predictions_total",
	"qoeproxy_sessions_by_class",
	"qoeproxy_inference_seconds",
	"qoeproxy_feature_extraction_seconds",
	"qoeproxy_shard_classify_seconds",
	"qoeproxy_ingest_contention_total",
	"qoeproxy_cluster_clients_skipped_total",
	"qoeproxy_partitions_owned",
	"qoeproxy_ingest_source_records_total",
	"qoeproxy_ingest_source_skipped_total",
	"qoeproxy_ingest_source_malformed_total",
	"qoeproxy_ingest_source_rotations_total",
	"qoeproxy_model_reloads_total",
	"qoeproxy_model_loaded_timestamp_seconds",
	"qoeproxy_shadow_disagreement_total",
	"qoeproxy_shadow_confusion_total",
	"qoeproxy_feature_drift_zscore",
	"qoeproxy_interned_strings",
	"qoeproxy_active_sessions",
	"qoeproxy_clients",
	"qoeproxy_uptime_seconds",
	"qoeproxy_gc_pause_seconds_total",
	"qoeproxy_gc_runs_total",
	"qoeproxy_heap_alloc_bytes_total",
	"qoeproxy_heap_inuse_bytes",
	"qoeproxy_goroutines",
}

// proxySeries are the live relay's own families: exported with
// -source proxy and with no other source, which has no relay to report.
var proxySeries = []string{
	"qoeproxy_connections_total",
	"qoeproxy_connections_active",
	"qoeproxy_hello_parse_failures_total",
	"qoeproxy_resolve_failures_total",
	"qoeproxy_dial_failures_total",
	"qoeproxy_relayed_up_bytes_total",
	"qoeproxy_relayed_down_bytes_total",
}

// checkSeries scrapes /metrics and requires every listed family to be
// exported (want) or every one to be absent (!want).
func checkSeries(addr string, families []string, want bool) error {
	body, err := get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	for _, series := range families {
		if strings.Contains(body, "# TYPE "+series+" ") != want {
			return fmt.Errorf("series %s exported: want %v, scrape says otherwise:\n%s", series, want, body)
		}
	}
	return nil
}

// checkHealthz requires /healthz to answer with status ok.
func checkHealthz(addr string) error {
	health, err := get("http://" + addr + "/healthz")
	if err != nil {
		return err
	}
	var status struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(health), &status); err != nil || status.Status != "ok" {
		return fmt.Errorf("healthz = %q (parse err %v)", health, err)
	}
	return nil
}

func main() {
	tmp, err := os.MkdirTemp("", "qoeproxy-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "qoeproxy")
	build := exec.Command("go", "build", "-o", bin, "./cmd/qoeproxy")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAIL: building qoeproxy:", err)
		os.Exit(1)
	}

	if err := smokeProxy(bin); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("smoke: qoeproxy serves /metrics and /healthz and drains cleanly")
	if err := smokeSquidTail(bin, tmp); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAIL: squid tail:", err)
		os.Exit(1)
	}
	fmt.Println("smoke: qoeproxy tails a Squid log with live per-source counters and drains cleanly")
	if err := smokeReload(bin, tmp); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAIL: model reload:", err)
		os.Exit(1)
	}
	fmt.Println("smoke: qoeproxy hot-reloads models via /admin/reload and SIGHUP and rejects corrupt files")
	if err := smokeFleet(bin, tmp); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAIL: fleet:", err)
		os.Exit(1)
	}
	fmt.Println("smoke: a two-member fleet covers its workload exactly once and hands its state over through snapshots")
}

// logEntry is the part of a daemon's JSON log line smoke reads.
type logEntry struct {
	Msg     string `json:"msg"`
	Addr    string `json:"addr"`
	Clients int    `json:"clients"`
}

// daemonLog keeps the latest stderr log line of each msg a daemon
// wrote. exec copies stderr into it and Wait returns only after that
// copy ends, so once stopDaemon returns every line is here.
type daemonLog struct {
	mu      sync.Mutex
	partial []byte
	entries map[string]logEntry
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			return len(p), nil
		}
		var e logEntry
		if json.Unmarshal(l.partial[:i], &e) == nil {
			l.entries[e.Msg] = e
		}
		l.partial = l.partial[i+1:]
	}
}

// wait polls for a log line with the given msg until 15s elapse.
func (l *daemonLog) wait(msg string) (logEntry, error) {
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		l.mu.Lock()
		e, ok := l.entries[msg]
		l.mu.Unlock()
		if ok {
			return e, nil
		}
		if time.Now().After(deadline) {
			return logEntry{}, fmt.Errorf("no %q log line within 15s", msg)
		}
	}
}

// startDaemon launches the built daemon and returns it, along with the
// metrics address from its "metrics listening" log line and its log,
// once /healthz answers ok: the log line says where to ask, the
// endpoint says the daemon is up and may be signalled.
func startDaemon(bin string, args ...string) (*exec.Cmd, string, *daemonLog, error) {
	daemon := exec.Command(bin, args...)
	log := &daemonLog{entries: map[string]logEntry{}}
	daemon.Stderr = log
	if err := daemon.Start(); err != nil {
		return nil, "", nil, fmt.Errorf("starting qoeproxy: %w", err)
	}
	listening, err := log.wait("metrics listening")
	if err != nil {
		daemon.Process.Kill()
		return nil, "", nil, err
	}
	addr := listening.Addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := checkHealthz(addr)
		if err == nil {
			return daemon, addr, log, nil
		}
		if time.Now().After(deadline) {
			daemon.Process.Kill()
			return nil, "", nil, fmt.Errorf("/healthz not ok within 10s of the listening line: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stopDaemon sends SIGTERM and requires a clean exit within 10s.
func stopDaemon(daemon *exec.Cmd) error {
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon did not exit cleanly on SIGTERM: %w", err)
		}
		return nil
	case <-time.After(10 * time.Second):
		daemon.Process.Kill()
		return fmt.Errorf("daemon did not drain within 10s of SIGTERM")
	}
}

// smokeProxy runs the serving-surface scenario; any error fails CI.
func smokeProxy(bin string) error {
	daemon, addr, _, err := startDaemon(bin,
		"-listen", "127.0.0.1:0",
		"-metrics", "127.0.0.1:0",
		"-upstream", "127.0.0.1:9", // never dialed: no traffic flows in the smoke
	)
	if err != nil {
		return err
	}
	defer daemon.Process.Kill() // no-op after a clean Wait

	if err := checkHealthz(addr); err != nil {
		return err
	}
	fmt.Println("smoke: /healthz ok")

	if err := checkSeries(addr, coreSeries, true); err != nil {
		return err
	}
	if err := checkSeries(addr, proxySeries, true); err != nil {
		return err
	}
	fmt.Printf("smoke: /metrics exports all %d core and %d relay series\n", len(coreSeries), len(proxySeries))

	return stopDaemon(daemon)
}

// squidConnectLine renders one CONNECT log line (epoch-0 offsets).
func squidConnectLine(end float64, elapsedMs int, client, host string, down int64) string {
	return fmt.Sprintf("%.3f %6d %s TCP_TUNNEL/200 %d CONNECT %s:443 - HIER_DIRECT/203.0.113.9 - request_bytes=400\n",
		end, elapsedMs, client, down, host)
}

// smokeSquidTail runs the log-ingest scenario: the daemon follows an
// access log (-source=squid), the per-source counters must reflect the
// initial lines, a skipped non-CONNECT line, and lines appended while
// the daemon runs, and SIGTERM must still drain cleanly.
func smokeSquidTail(bin, tmp string) error {
	logPath := filepath.Join(tmp, "access.log")
	initial := squidConnectLine(1.0, 800, "10.0.0.1", "cdn-01.svc1.example", 180000) +
		squidConnectLine(2.0, 500, "10.0.0.2", "cdn-02.svc1.example", 250000) +
		"3.000    100 10.0.0.3 TCP_MISS/200 1234 GET http://example.com/x - HIER_DIRECT/203.0.113.9 text/html\n" +
		squidConnectLine(4.0, 900, "10.0.0.1", "cdn-01.svc1.example", 90000)
	if err := os.WriteFile(logPath, []byte(initial), 0o644); err != nil {
		return err
	}

	outPath := filepath.Join(tmp, "tail-transactions.csv")
	daemon, addr, _, err := startDaemon(bin,
		"-metrics", "127.0.0.1:0",
		"-source", "squid",
		"-input", logPath,
		"-out", outPath,
		"-ingest-epoch", "0",
		"-ingest-horizon", "0s", // count entries as they are read, not at a watermark
	)
	if err != nil {
		return err
	}
	defer daemon.Process.Kill()

	if err := checkHealthz(addr); err != nil {
		return err
	}
	if err := checkSeries(addr, coreSeries, true); err != nil {
		return err
	}
	if err := checkSeries(addr, proxySeries, false); err != nil {
		return err
	}
	fmt.Printf("smoke: a file source serves /healthz and all %d core series, and none of the relay's\n", len(coreSeries))

	records := `qoeproxy_ingest_source_records_total{source="squid"}`
	if err := waitSeries(addr, records, 3); err != nil {
		return err
	}
	if err := waitSeries(addr, `qoeproxy_ingest_source_skipped_total{source="squid"}`, 1); err != nil {
		return err
	}
	fmt.Println("smoke: squid tail ingested the initial log (3 records, 1 skipped)")

	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	more := squidConnectLine(5.0, 700, "10.0.0.2", "cdn-02.svc1.example", 120000) +
		squidConnectLine(6.0, 600, "10.0.0.3", "cdn-01.svc1.example", 70000)
	if _, err := f.WriteString(more); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := waitSeries(addr, records, 5); err != nil {
		return fmt.Errorf("after live append: %w", err)
	}
	if got := series(addr, "qoeproxy_transactions_total"); got != 5 {
		return fmt.Errorf("qoeproxy_transactions_total = %v, want 5", got)
	}
	fmt.Println("smoke: squid tail picked up lines appended while running")

	// The five records must reach -out on the sink's own flush interval —
	// nothing here fills a chunk — and the sink series must account for
	// exactly the bytes in the file past the header.
	const header = "session,sni,start,end,up_bytes,down_bytes\n"
	var csv []byte
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		csv, err = os.ReadFile(outPath)
		if err == nil && strings.Count(string(csv), "\n") == 6 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("-out never showed 5 records without a shutdown flush: %q (err %v)", csv, err)
		}
	}
	if err := waitSeries(addr, "qoeproxy_sink_bytes_written_total", float64(len(csv)-len(header))); err != nil {
		return err
	}
	if got := series(addr, "qoeproxy_sink_pending_bytes"); got != 0 {
		return fmt.Errorf("qoeproxy_sink_pending_bytes = %v with every record on disk, want 0", got)
	}
	if got := series(addr, "qoeproxy_sink_writes_total"); got < 1 || got > 5 {
		return fmt.Errorf("qoeproxy_sink_writes_total = %v for 5 records, want 1..5", got)
	}
	fmt.Println("smoke: -out received every record on the sink flush interval; sink series add up")

	return stopDaemon(daemon)
}

// series scrapes one metric sample from the daemon, or -1 if absent.
// Labeled series are addressed by their full name{label="x"} form.
func series(addr, name string) float64 {
	body, err := get("http://" + addr + "/metrics")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

// waitSeries polls a series until it reaches want or 15s elapse.
func waitSeries(addr, name string, want float64) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		if got := series(addr, name); got == want {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("%s = %v, want %v", name, got, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// trainedModel trains a small estimator on the synthetic corpus and
// returns its saved-model bytes; seed/trees differentiate models so a
// reload observably changes what is serving.
func trainedModel(seed int64, trees int) ([]byte, error) {
	corpus, err := dataset.Build(dataset.Config{Seed: 5, Sessions: 40}, has.Svc1())
	if err != nil {
		return nil, err
	}
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: trees, Seed: seed}})
	if err := est.Train(training); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// smokeReload runs the model-lifecycle scenario: the daemon starts
// with model A, swaps to model B over the admin endpoint and again via
// SIGHUP, and a corrupt file is rejected with 422 while the previous
// model keeps serving and the daemon stays healthy.
func smokeReload(bin, tmp string) error {
	modelA, err := trainedModel(3, 8)
	if err != nil {
		return err
	}
	modelB, err := trainedModel(17, 4)
	if err != nil {
		return err
	}
	modelPath := filepath.Join(tmp, "model.json")
	if err := os.WriteFile(modelPath, modelA, 0o644); err != nil {
		return err
	}

	daemon, addr, _, err := startDaemon(bin,
		"-listen", "127.0.0.1:0",
		"-metrics", "127.0.0.1:0",
		"-upstream", "127.0.0.1:9",
		"-model", modelPath,
	)
	if err != nil {
		return err
	}
	defer daemon.Process.Kill()

	if got := series(addr, "qoeproxy_model_loaded_timestamp_seconds"); got <= 0 {
		return fmt.Errorf("qoeproxy_model_loaded_timestamp_seconds = %v at startup with -model, want > 0", got)
	}

	// Roll A -> B over the admin plane.
	if err := os.WriteFile(modelPath, modelB, 0o644); err != nil {
		return err
	}
	code, body, err := post("http://" + addr + "/admin/reload")
	if err != nil {
		return err
	}
	if code != http.StatusOK || !strings.Contains(body, `"result":"ok"`) {
		return fmt.Errorf("POST /admin/reload = %d %q, want 200 with result ok", code, body)
	}
	if err := waitSeries(addr, `qoeproxy_model_reloads_total{result="ok"}`, 1); err != nil {
		return err
	}
	fmt.Println("smoke: POST /admin/reload swapped model A for model B")

	// Roll back B -> A via SIGHUP.
	if err := os.WriteFile(modelPath, modelA, 0o644); err != nil {
		return err
	}
	if err := daemon.Process.Signal(syscall.SIGHUP); err != nil {
		return err
	}
	if err := waitSeries(addr, `qoeproxy_model_reloads_total{result="ok"}`, 2); err != nil {
		return fmt.Errorf("after SIGHUP: %w", err)
	}
	fmt.Println("smoke: SIGHUP reloaded the model file")

	// A corrupt file must be rejected with the old model untouched.
	if err := os.WriteFile(modelPath, []byte("{not a model"), 0o644); err != nil {
		return err
	}
	code, body, err = post("http://" + addr + "/admin/reload")
	if err != nil {
		return err
	}
	if code != http.StatusUnprocessableEntity || !strings.Contains(body, `"result":"error"`) {
		return fmt.Errorf("corrupt reload = %d %q, want 422 with result error", code, body)
	}
	if err := waitSeries(addr, `qoeproxy_model_reloads_total{result="error"}`, 1); err != nil {
		return err
	}
	if got := series(addr, `qoeproxy_model_reloads_total{result="ok"}`); got != 2 {
		return fmt.Errorf("ok reloads after corrupt attempt = %v, want still 2", got)
	}
	if err := checkHealthz(addr); err != nil {
		return fmt.Errorf("after rejected reload: %w", err)
	}
	fmt.Println("smoke: corrupt model rejected with 422; previous model still serving")

	return stopDaemon(daemon)
}

// smokeFleet runs the fleet scenario: two daemons on one ring replay
// the same workload. Each must commit exactly the share the ring gives
// it here ahead of time and skip the rest, together they must cover the
// workload and the ring once, and each restarted with -restore must get
// back every client its SIGTERM snapshot wrote.
func smokeFleet(bin, tmp string) error {
	corpus, err := dataset.Build(dataset.Config{Seed: 11, Sessions: 30}, has.Svc1())
	if err != nil {
		return err
	}
	const cfgJSON = `{"version": 1, "instances": [{"id": "a"}, {"id": "b"}]}`
	cfg, err := cluster.LoadConfig(strings.NewReader(cfgJSON))
	if err != nil {
		return err
	}
	ring, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	var records []tlsproxy.ReplayRecord
	owned := map[string]int{}
	for i := 0; i < 300; i++ {
		host := fmt.Sprintf("10.70.%d.%d", i/250, i%250+1)
		at := float64(i) * 0.05
		for _, txn := range corpus.Records[i%len(corpus.Records)].Capture.TLS {
			records = append(records, tlsproxy.ReplayRecord{Client: host + ":40000", SNI: txn.SNI,
				Start: at + txn.Start, End: at + txn.End, UpBytes: txn.UpBytes, DownBytes: txn.DownBytes})
			owned[ring.Owner(host)]++
		}
	}
	var workload bytes.Buffer
	if err := tlsproxy.WriteWorkload(&workload, records); err != nil {
		return err
	}
	csvPath, cfgPath := filepath.Join(tmp, "fleet.csv"), filepath.Join(tmp, "cluster.json")
	for path, data := range map[string][]byte{csvPath: workload.Bytes(), cfgPath: []byte(cfgJSON)} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}

	// Both members run at once, each over the whole workload.
	type member struct {
		id, snapPath, addr string
		daemon             *exec.Cmd
		log                *daemonLog
	}
	var members []*member
	for _, in := range cfg.Instances {
		m := &member{id: in.ID, snapPath: filepath.Join(tmp, "fleet-"+in.ID+".snapshot.json")}
		m.daemon, m.addr, m.log, err = startDaemon(bin, "-metrics", "127.0.0.1:0", "-source", "replay", "-input", csvPath,
			"-ingest-workers", "2", "-cluster-config", cfgPath, "-instance-id", m.id, "-snapshot", m.snapPath)
		if err != nil {
			return fmt.Errorf("member %s: %w", m.id, err)
		}
		defer m.daemon.Process.Kill()
		members = append(members, m)
	}
	var committed, partitions float64
	for _, m := range members {
		if _, err := m.log.wait("ingest complete"); err != nil {
			return fmt.Errorf("member %s: %w", m.id, err)
		}
		if err := waitSeries(m.addr, "qoeproxy_transactions_total", float64(owned[m.id])); err != nil {
			return fmt.Errorf("member %s committed other than its ring share (overlap or gap): %w", m.id, err)
		}
		if err := waitSeries(m.addr, "qoeproxy_cluster_clients_skipped_total", float64(len(records)-owned[m.id])); err != nil {
			return fmt.Errorf("member %s: owned + skipped is not the whole workload: %w", m.id, err)
		}
		committed += series(m.addr, "qoeproxy_transactions_total")
		partitions += series(m.addr, "qoeproxy_partitions_owned")
		if health, err := get("http://" + m.addr + "/healthz"); err != nil || !strings.Contains(health, `"instance":"`+m.id+`"`) {
			return fmt.Errorf("member %s: /healthz = %q (%v), want instance %q", m.id, health, err, m.id)
		}
	}
	if total := float64(ring.TotalPartitions()); committed != float64(len(records)) || partitions != total {
		return fmt.Errorf("the fleet committed %v of %d records and owns %v of %v partitions, want each exactly once",
			committed, len(records), partitions, total)
	}

	// SIGTERM writes each snapshot; a relay restart ingests nothing.
	for _, m := range members {
		if err := stopDaemon(m.daemon); err != nil {
			return fmt.Errorf("member %s: %w", m.id, err)
		}
		written, err := m.log.wait("state snapshot written")
		if err != nil {
			return fmt.Errorf("member %s: %w", m.id, err)
		}
		daemon, _, log, err := startDaemon(bin, "-metrics", "127.0.0.1:0", "-listen", "127.0.0.1:0", "-upstream", "127.0.0.1:9",
			"-cluster-config", cfgPath, "-instance-id", m.id, "-restore", m.snapPath)
		if err != nil {
			return fmt.Errorf("member %s restart: %w", m.id, err)
		}
		defer daemon.Process.Kill()
		restored, err := log.wait("snapshot restored")
		if err != nil {
			return fmt.Errorf("member %s restart: %w", m.id, err)
		}
		if written.Clients == 0 || restored.Clients != written.Clients {
			return fmt.Errorf("member %s: snapshot hand-off restored %d clients, its SIGTERM snapshot wrote %d",
				m.id, restored.Clients, written.Clients)
		}
		if err := stopDaemon(daemon); err != nil {
			return fmt.Errorf("member %s restart: %w", m.id, err)
		}
		fmt.Printf("smoke: fleet member %s committed its %d-record share, restored %d clients\n", m.id, owned[m.id], restored.Clients)
	}
	return nil
}

// post sends an empty POST with a deadline and returns status + body.
func post(url string) (int, string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		return 0, "", fmt.Errorf("POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(body), nil
}

// get fetches a URL with a deadline and returns the body.
func get(url string) (string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}
