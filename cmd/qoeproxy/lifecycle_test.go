package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ingest"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/tlsproxy"
)

// trainSmallEstimator trains a compact estimator on the shared
// synthetic corpus; seed and tree count differentiate champion from
// challenger models.
func trainSmallEstimator(t testing.TB, seed int64, trees int) *core.Estimator {
	t.Helper()
	corpus, err := dataset.Build(dataset.Config{Seed: 5, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: trees, Seed: seed}})
	if err := est.Train(training); err != nil {
		t.Fatal(err)
	}
	return est
}

// modelBytes serializes an estimator as a saved-model file would hold it.
func modelBytes(t *testing.T, est *core.Estimator) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAdminReloadEndpoint drives the admin plane directly: method and
// locality gating, a successful swap, and a corrupt file rejected with
// the previous bundle left serving.
func TestAdminReloadEndpoint(t *testing.T) {
	est := trainSmallEstimator(t, 5, 8)
	modelPath := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(modelPath, modelBytes(t, est), 0o644); err != nil {
		t.Fatal(err)
	}
	s, logs := newTestService(t, options{window: time.Hour, modelPath: modelPath}, est)
	h := s.httpHandler()

	post := func(remote string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/admin/reload", nil)
		req.RemoteAddr = remote
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/admin/reload", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /admin/reload = %d, want 405", rec.Code)
	}

	before := s.model.Load()
	if rec := post("192.0.2.1:4444"); rec.Code != http.StatusForbidden {
		t.Errorf("non-loopback POST = %d, want 403", rec.Code)
	}
	if s.model.Load() != before {
		t.Error("a forbidden request swapped the model")
	}
	if n := s.mReloadOK.Value() + s.mReloadError.Value() + s.mReloadNoop.Value(); n != 0 {
		t.Errorf("rejected requests moved the reload counters: %d", n)
	}

	rec = post("127.0.0.1:4444")
	if rec.Code != http.StatusOK {
		t.Fatalf("loopback POST = %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"result":"ok"`) {
		t.Errorf("reload body = %s, want result ok", rec.Body.String())
	}
	after := s.model.Load()
	if after == before {
		t.Error("successful reload did not swap the serving bundle")
	}
	if !after.loadedAt.After(before.loadedAt) {
		t.Error("reloaded bundle's load timestamp did not advance")
	}
	if got := s.mReloadOK.Value(); got != 1 {
		t.Errorf("reloads ok = %d, want 1", got)
	}

	// Corrupt file: rejected with 422, old bundle untouched, from an
	// IPv6 loopback caller to cover both loopback families.
	if err := os.WriteFile(modelPath, []byte("{definitely not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec = post("[::1]:4444")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("corrupt reload = %d, want 422", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"result":"error"`) {
		t.Errorf("corrupt reload body = %s, want result error", rec.Body.String())
	}
	if s.model.Load() != after {
		t.Error("a failed reload replaced the serving bundle")
	}
	if got := s.mReloadError.Value(); got != 1 {
		t.Errorf("reloads error = %d, want 1", got)
	}
	if got := logs.countLogMsg(t, "model reload failed; previous model still serving"); got != 1 {
		t.Errorf("failed reload logged %d times, want 1", got)
	}
}

// TestReloadNoopWithoutModel pins the SIGHUP-on-a-record-only-daemon
// contract: no -model configured means reload is a counted no-op, not
// an error and certainly not a crash.
func TestReloadNoopWithoutModel(t *testing.T) {
	s, _ := newTestService(t, options{window: time.Hour}, nil)
	result, err := s.reloadModel()
	if result != "noop" || err != nil {
		t.Fatalf("reloadModel() = %q, %v; want noop, nil", result, err)
	}
	if got := s.mReloadNoop.Value(); got != 1 {
		t.Errorf("reloads noop = %d, want 1", got)
	}
	if s.model.Load() != nil {
		t.Error("no-op reload conjured a serving bundle")
	}
}

// TestReloadRejectsIncompatibleShadow re-reads a challenger targeting a
// different metric: the reload must fail whole — the primary is not
// swapped either, so champion and challenger always come from the same
// reload.
func TestReloadRejectsIncompatibleShadow(t *testing.T) {
	est := trainSmallEstimator(t, 5, 8)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	shadowPath := filepath.Join(dir, "shadow.json")
	if err := os.WriteFile(modelPath, modelBytes(t, est), 0o644); err != nil {
		t.Fatal(err)
	}
	// A challenger trained on a different metric: same features,
	// different classes — validateShadow must refuse it.
	other := core.NewEstimator(core.Config{Metric: qoe.MetricRebuffer, Forest: forest.Config{NumTrees: 2, Seed: 7}})
	corpus, err := dataset.Build(dataset.Config{Seed: 5, Sessions: 60}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	if err := other.Train(training); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shadowPath, modelBytes(t, other), 0o644); err != nil {
		t.Fatal(err)
	}

	s, _ := newTestService(t, options{window: time.Hour, modelPath: modelPath, shadowPath: shadowPath}, est)
	before := s.model.Load()
	result, rerr := s.reloadModel()
	if result != "error" || rerr == nil {
		t.Fatalf("reloadModel() = %q, %v; want error result", result, rerr)
	}
	if !strings.Contains(rerr.Error(), "metric") {
		t.Errorf("error does not name the metric mismatch: %v", rerr)
	}
	if s.model.Load() != before {
		t.Error("a rejected shadow still swapped the primary bundle")
	}
}

// TestReloadUnderLoad hammers the atomic swap: one goroutine ingests
// transactions continuously while the main goroutine alternates model
// A, model B and a corrupt file through reloadModel, classifying after
// every attempt. No pass may fail, no reload outcome may be
// miscounted, and every client must end up classified — the serving
// path never sees a half-built bundle. scripts/check.sh runs this
// under -race, which also exercises the Load/Store pairing.
func TestReloadUnderLoad(t *testing.T) {
	estA := trainSmallEstimator(t, 5, 8)
	estB := trainSmallEstimator(t, 11, 4)
	bytesA, bytesB := modelBytes(t, estA), modelBytes(t, estB)
	modelPath := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(modelPath, bytesA, 0o644); err != nil {
		t.Fatal(err)
	}
	s, logs := newTestService(t, options{
		window:        time.Hour,
		classifyBatch: 8,
		modelPath:     modelPath,
	}, estA)

	const numClients = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var id uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			id++
			client := fmt.Sprintf("10.60.0.%d:40000", int(id)%numClients+1)
			at := float64(id) * 0.001
			r := s.record(id, client, "cdn-01.svc1.example", at, at+0.0005, 400, 150_000)
			s.onConnOpen(r)
			deliver(s, r)
			if id%256 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	const rounds = 60
	for i := 0; i < rounds; i++ {
		var payload []byte
		switch i % 3 {
		case 0:
			payload = bytesA
		case 1:
			payload = bytesB
		default:
			payload = []byte("corrupt mid-rollout")
		}
		if err := os.WriteFile(modelPath, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		s.reloadModel()
		s.classifyPass(100)
	}
	close(stop)
	wg.Wait()
	s.classifyPass(100)

	if got := s.mClassErrors.Value(); got != 0 {
		t.Errorf("classification_errors_total = %d under reload churn, want 0", got)
	}
	if got := logs.countLogMsg(t, "classification failed"); got != 0 {
		t.Errorf("%d classification failures logged, want 0", got)
	}
	if ok, errs := s.mReloadOK.Value(), s.mReloadError.Value(); ok != 40 || errs != 20 {
		t.Errorf("reloads ok/error = %d/%d, want 40/20", ok, errs)
	}
	if got := s.mRuns.Value(); got < 1 {
		t.Errorf("classification_runs_total = %d, want >= 1", got)
	}
	for i := 1; i <= numClients; i++ {
		host := fmt.Sprintf("10.60.0.%d", i)
		cs := s.client(host)
		if cs == nil || !cs.HasClass {
			t.Errorf("client %s lost its classification across reloads", host)
		}
	}
}

// TestReplaySpeedInvariance is the regression test for the sweep-clock
// bug: eviction and windowing once compared record-derived (logical)
// activity times against the wall clock, so a workload replayed at
// 100x evicted nothing and one replayed slowly evicted mid-session.
// The same two-client trace replayed at 1x and at 100x must now
// produce identical classifications and evictions — including exactly
// one eviction at 100x, which the wall clock could never deliver
// (13ms of wall time against a 500ms TTL).
func TestReplaySpeedInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("the 1x replay takes its recorded 1.3s")
	}
	est := trainSmallEstimator(t, 5, 8)

	runAt := func(speed float64) (classifications, evictions []string) {
		s, logs := newTestService(t, options{
			window:        0, // no cutoff: classify the whole ongoing session
			clientTTL:     500 * time.Millisecond,
			classifyBatch: 4,
			source:        "replay", // file sources select the logical sweep clock
		}, est)
		if !s.logicalClock {
			t.Fatal("replay service must select the logical sweep clock")
		}
		mk := func(client string, start, end float64) tlsproxy.ReplayRecord {
			return tlsproxy.ReplayRecord{
				Client: client + ":40000", SNI: "cdn-01.svc1.example",
				Start: start, End: end, UpBytes: 400, DownBytes: 150_000,
			}
		}
		// Client .1 is active 0.0-0.3s, then idle; client .2 is active
		// 1.0-1.3s. At the end-of-replay watermark (1.3) client .1 has
		// been idle 1.0s > TTL and must be evicted; client .2 must not.
		recs := []tlsproxy.ReplayRecord{
			mk("10.80.0.1", 0.00, 0.10), mk("10.80.0.1", 0.10, 0.20), mk("10.80.0.1", 0.20, 0.30),
			mk("10.80.0.2", 1.00, 1.10), mk("10.80.0.2", 1.10, 1.20), mk("10.80.0.2", 1.20, 1.30),
		}
		path := filepath.Join(t.TempDir(), "workload.csv")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := tlsproxy.WriteWorkload(f, recs); err != nil {
			t.Fatal(err)
		}
		f.Close()
		src, err := ingest.NewReplaySource(path, s.epoch, speed, 2)
		if err != nil {
			t.Fatal(err)
		}
		src.Batch = 1
		src.Run(context.Background(), ingest.Handler{ConnOpen: s.onConnOpen, TransactionBatch: s.onTransactionBatch})

		ns := s.sweepNow(time.Now())
		if ns != 1.3 {
			t.Fatalf("speed %g: sweep clock = %g, want the 1.3s ingest watermark", speed, ns)
		}
		s.classifyPass(ns)
		s.evictIdle(ns)
		for _, line := range logs.lines() {
			if line == "" {
				continue
			}
			var e struct {
				Msg    string `json:"msg"`
				Client string `json:"client"`
				Class  string `json:"class"`
			}
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("log line is not JSON: %q", line)
			}
			switch e.Msg {
			case "classification":
				classifications = append(classifications, e.Client+"="+e.Class)
			case "client evicted":
				evictions = append(evictions, e.Client+"="+e.Class)
			}
		}
		return classifications, evictions
	}

	c1, e1 := runAt(1)
	c100, e100 := runAt(100)
	if fmt.Sprint(c1) != fmt.Sprint(c100) {
		t.Errorf("classifications diverged across replay speed\n  1x %v\n100x %v", c1, c100)
	}
	if fmt.Sprint(e1) != fmt.Sprint(e100) {
		t.Errorf("evictions diverged across replay speed\n  1x %v\n100x %v", e1, e100)
	}
	if len(c100) != 2 {
		t.Errorf("100x run classified %d clients, want 2: %v", len(c100), c100)
	}
	if len(e100) != 1 || !strings.HasPrefix(e100[0], "10.80.0.1=") {
		t.Errorf("100x run evicted %v, want exactly client 10.80.0.1", e100)
	}
}

// TestDriftGaugesMove feeds traffic wildly unlike the training corpus
// through a model saved with a baseline and requires the per-feature
// drift z-scores to move — and to render as labeled gauge children on
// /metrics.
func TestDriftGaugesMove(t *testing.T) {
	est := trainSmallEstimator(t, 5, 8)
	s, _ := newTestService(t, options{window: time.Hour, classifyBatch: 8}, est)
	m := s.model.Load()
	if m.drift == nil {
		t.Fatal("freshly trained model carries no drift baseline")
	}

	// Half-gigabyte downloads: far outside anything the synthetic HAS
	// corpus produces, so byte-derived features must drift hard.
	for i := 0; i < 20; i++ {
		r := s.record(uint64(i+1), "10.70.0.1:40000", "cdn-01.svc1.example",
			float64(i), float64(i)+0.5, 5_000_000, 500_000_000)
		s.onConnOpen(r)
		deliver(s, r)
	}
	s.classifyPass(30)

	names, zs := m.drift.zscores()
	if len(names) != est.NumFeatures() {
		t.Fatalf("drift tracks %d features, model has %d", len(names), est.NumFeatures())
	}
	maxAbs := 0.0
	for _, z := range zs {
		if math.Abs(z) > maxAbs {
			maxAbs = math.Abs(z)
		}
	}
	if maxAbs < 1 {
		t.Errorf("max |z-score| = %g on divergent traffic, want >= 1", maxAbs)
	}

	rec := httptest.NewRecorder()
	s.httpHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `qoeproxy_feature_drift_zscore{feature="`) {
		t.Error("drift gauge children missing from /metrics")
	}
}

// TestRunSIGHUPReload is the end-to-end rollout rehearsal: boot the
// daemon on model A over a replayed workload, roll to model B with
// SIGHUP, then attempt a corrupt rollout over /admin/reload — the
// daemon must reject it, keep serving model B, and shut down cleanly.
func TestRunSIGHUPReload(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon integration is slow")
	}
	// The test process must hold its own SIGHUP registration: the kill
	// below races the daemon's signal.Notify, and an unhandled SIGHUP
	// kills the whole test binary.
	hupGuard := make(chan os.Signal, 1)
	signal.Notify(hupGuard, syscall.SIGHUP)
	defer signal.Stop(hupGuard)

	estA := trainSmallEstimator(t, 3, 8)
	estB := trainSmallEstimator(t, 17, 4)
	bytesB := modelBytes(t, estB)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.json")
	if err := os.WriteFile(modelPath, modelBytes(t, estA), 0o644); err != nil {
		t.Fatal(err)
	}

	corpus, err := dataset.Build(dataset.Config{Seed: 3, Sessions: 20}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var recs []tlsproxy.ReplayRecord
	for i := 0; i < 10; i++ {
		r := corpus.Records[i%len(corpus.Records)]
		client := fmt.Sprintf("10.43.0.%d:40000", i+1)
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

	base := "http://" + metricsAddr
	waitFor := func(desc string, cond func(body string) bool) string {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		var body string
		for time.Now().Before(deadline) {
			resp, err := http.Get(base + "/metrics")
			if err == nil {
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				body = string(b)
				if cond(body) {
					return body
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s; last scrape:\n%s", desc, body)
		return ""
	}

	body := waitFor("replay to land", func(b string) bool {
		return metricValue(t, b, "qoeproxy_transactions_total") == float64(len(recs))
	})
	if ts := metricValue(t, body, "qoeproxy_model_loaded_timestamp_seconds"); ts <= 0 {
		t.Errorf("model_loaded_timestamp_seconds = %g before any reload, want > 0", ts)
	}

	// Roll A -> B via SIGHUP.
	if err := os.WriteFile(modelPath, bytesB, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor("SIGHUP reload", func(b string) bool {
		return metricValue(t, b, `qoeproxy_model_reloads_total{result="ok"}`) == 1
	})

	// Corrupt rollout over the admin endpoint: rejected, daemon intact.
	if err := os.WriteFile(modelPath, []byte("rolled a bad artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("corrupt /admin/reload = %d, want 422", resp.StatusCode)
	}
	body = scrape(t, base+"/metrics")
	if got := metricValue(t, body, `qoeproxy_model_reloads_total{result="error"}`); got != 1 {
		t.Errorf(`reloads error = %g, want 1`, got)
	}
	if got := metricValue(t, body, `qoeproxy_model_reloads_total{result="ok"}`); got != 1 {
		t.Errorf(`reloads ok = %g after the corrupt attempt, want still 1`, got)
	}
	if got := metricValue(t, body, "qoeproxy_classification_errors_total"); got != 0 {
		t.Errorf("classification_errors_total = %g across the rollout, want 0", got)
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

// TestRunSIGHUPWithoutModel pins the signal-registration fix: before
// SIGHUP was registered, a conventional `kill -HUP` (log-rotation
// sweeps send them habitually) killed the daemon outright. A
// record-only daemon must survive it as a counted no-op.
func TestRunSIGHUPWithoutModel(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon integration is slow")
	}
	hupGuard := make(chan os.Signal, 1)
	signal.Notify(hupGuard, syscall.SIGHUP)
	defer signal.Stop(hupGuard)

	ports := freePorts(t, 2)
	listen, metricsAddr := ports[0], ports[1]
	done := make(chan error, 1)
	go func() {
		done <- run(options{
			listen:      listen,
			upstream:    "127.0.0.1:1",
			metricsAddr: metricsAddr,
		})
	}()

	base := "http://" + metricsAddr
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never served /healthz")
		}
		time.Sleep(50 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	var noops float64
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("daemon died on SIGHUP: %v", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		noops = metricValue(t, string(b), `qoeproxy_model_reloads_total{result="noop"}`)
		if noops == 1 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if noops != 1 {
		t.Errorf(`reloads noop = %g after SIGHUP, want 1`, noops)
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
