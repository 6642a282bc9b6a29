package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"droppackets/internal/cluster"
	"droppackets/internal/tlsproxy"
)

// This file is the fleet half of the harness: -instances N boots N
// qoeproxy daemons behind one consistent-hash ring (the same
// internal/cluster ring the daemons load), replays the IDENTICAL
// workload into every member — the production shape, where each
// instance sees the shared record stream and its ring filter skips
// clients it does not own — and verifies the fleet covers the workload
// exactly once: per-member owned + skipped == total records, the
// owned sum across members == total records (zero gaps, zero
// overlap), and partitions_owned sums to the ring's total. Each member
// then receives a SIGTERM with -snapshot set, and the harness checks
// every member exited cleanly leaving a loadable state snapshot — the
// drain-to-handoff path under real load.
//
// Each member runs with GOMAXPROCS = max(1, cpus/N) so an N-instance
// run models N partitions of the same box rather than N daemons
// fighting for every core; the per-run CPU topology is recorded in
// the report.

// fleetInstance is one member's measurements in the fleet section.
type fleetInstance struct {
	ID              string      `json:"id"`
	Gomaxprocs      int         `json:"gomaxprocs"`
	OwnedRecords    int         `json:"owned_records"`
	Transactions    int64       `json:"transactions_total"`
	ClientsSkipped  int64       `json:"cluster_clients_skipped_total"`
	PartitionsOwned int64       `json:"partitions_owned"`
	ReplayWall      float64     `json:"replay_wall_seconds"`
	OwnedPerSecond  float64     `json:"owned_records_per_second"`
	ClassifyRuns    int64       `json:"classification_runs_total"`
	HealthzInstance string      `json:"healthz_instance"`
	SnapshotClients int         `json:"snapshot_clients"`
	SnapshotWritten bool        `json:"snapshot_written"`
	CleanExit       bool        `json:"clean_exit"`
	ShardClassify   histSummary `json:"shard_classify_seconds"`
	Inference       histSummary `json:"inference_seconds"`
}

// fleetResult is one instance-count entry in the report's fleet
// section.
type fleetResult struct {
	Instances        int     `json:"instances"`
	Records          int     `json:"records"`
	Clients          int     `json:"clients"`
	CPUsOnline       int     `json:"cpus_online"`
	Gomaxprocs       int     `json:"gomaxprocs_per_instance"`
	PartitionsTotal  int     `json:"partitions_total"`
	PartitionsSum    int64   `json:"partitions_owned_sum"`
	OwnedSum         int64   `json:"transactions_sum"`
	SkippedSum       int64   `json:"skipped_sum"`
	FleetWallSeconds float64 `json:"fleet_wall_seconds"`
	// AggregateRecordsPerSecond is the honest fleet throughput: the
	// whole workload over the slowest member's replay wall (the fleet
	// is done when its last member is).
	AggregateRecordsPerSecond float64                   `json:"aggregate_records_per_second"`
	PerInstance               map[string]*fleetInstance `json:"per_instance"`
	Failures                  []string                  `json:"failures,omitempty"`
}

// fleetIDs names the members of an n-instance fleet.
func fleetIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("i%d", i)
	}
	return ids
}

// runFleet boots an n-member fleet against the shared workload and
// collects the coverage checks and measurements.
func runFleet(o loadOptions, bin, modelPath, dir string, w *workload, n int) (*fleetResult, error) {
	res := &fleetResult{
		Instances:   n,
		Records:     len(w.records),
		Clients:     w.clients,
		CPUsOnline:  runtime.NumCPU(),
		Gomaxprocs:  max(1, runtime.NumCPU()/n),
		PerInstance: map[string]*fleetInstance{},
	}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	cfg := &cluster.Config{Version: 1, Instances: nil}
	for _, id := range fleetIDs(n) {
		cfg.Instances = append(cfg.Instances, cluster.Instance{ID: id})
	}
	ring, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	res.PartitionsTotal = ring.TotalPartitions()
	cfgPath := filepath.Join(dir, fmt.Sprintf("cluster-%d.json", n))
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		return nil, err
	}

	// The ring tells the harness, ahead of time, exactly how many of
	// the shared records each member must own — the settle loop and the
	// coverage checks compare the daemons against this ground truth.
	// Ownership is keyed by client host, port stripped, exactly as the
	// daemon keys its client map.
	ownedRecords := map[string]int{}
	for _, r := range w.records {
		client := r.Client
		if host, _, err := net.SplitHostPort(client); err == nil {
			client = host
		}
		ownedRecords[ring.Owner(client)]++
	}

	csvPath := filepath.Join(dir, fmt.Sprintf("fleet-%d.workload.csv", n))
	f, err := os.Create(csvPath)
	if err != nil {
		return nil, err
	}
	if err := tlsproxy.WriteWorkload(f, w.records); err != nil {
		f.Close()
		return nil, err
	}
	f.Close()

	type member struct {
		id       string
		inst     *fleetInstance
		cmd      *exec.Cmd
		ev       *daemonEvents
		snapPath string
		base     string // metrics base URL
		err      error
	}
	members := make([]*member, n)
	start := time.Now()
	for i, id := range fleetIDs(n) {
		inst := &fleetInstance{ID: id, Gomaxprocs: res.Gomaxprocs, OwnedRecords: ownedRecords[id]}
		res.PerInstance[id] = inst
		m := &member{id: id, inst: inst, snapPath: filepath.Join(dir, fmt.Sprintf("fleet-%d-%s.snapshot.json", n, id))}
		members[i] = m
		args := []string{
			"-model", modelPath,
			"-metrics", "127.0.0.1:0",
			"-out", filepath.Join(dir, fmt.Sprintf("fleet-%d-%s.out.csv", n, id)),
			"-classify-every", o.classifyEvery.String(),
			"-window", o.window.String(),
			"-cluster-config", cfgPath,
			"-instance-id", id,
			"-snapshot", m.snapPath,
			"-source", "replay",
			"-input", csvPath,
			"-ingest-speed", fmt.Sprint(o.speed),
			"-ingest-workers", fmt.Sprint(o.ingestWorkers),
		}
		if o.shards > 0 {
			args = append(args, "-shards", fmt.Sprint(o.shards))
		}
		if o.classifyWorkers > 0 {
			args = append(args, "-classify-workers", fmt.Sprint(o.classifyWorkers))
		}
		m.cmd = exec.Command(bin, args...)
		m.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", res.Gomaxprocs))
		stderr, err := m.cmd.StderrPipe()
		if err != nil {
			return nil, err
		}
		m.ev = &daemonEvents{
			listenAddr:  make(chan string, 1),
			metricsAddr: make(chan string, 1),
			replayDone:  make(chan replayOutcome, 1),
		}
		go watchStderr(stderr, m.ev)
		if err := m.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting member %s: %w", id, err)
		}
		defer m.cmd.Process.Kill()
	}

	// Drive every member to completion concurrently: wait for its
	// replay, let it settle on exactly its owned share, scrape finals.
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			select {
			case addr := <-m.ev.metricsAddr:
				m.base = "http://" + addr
			case <-time.After(30 * time.Second):
				m.err = fmt.Errorf("member %s never reported its metrics address", m.id)
				return
			}
			var outcome replayOutcome
			select {
			case outcome = <-m.ev.replayDone:
			case <-time.After(10 * time.Minute):
				m.err = fmt.Errorf("member %s replay did not complete within 10m", m.id)
				return
			}
			m.inst.ReplayWall = outcome.wallSeconds
			if outcome.wallSeconds > 0 {
				m.inst.OwnedPerSecond = float64(m.inst.OwnedRecords) / outcome.wallSeconds
			}
			deadline := time.Now().Add(o.settle)
			var last *scrapeData
			for {
				last = scrapeMember(m.base)
				if last != nil &&
					last.value("qoeproxy_transactions_total") == float64(m.inst.OwnedRecords) &&
					last.value("qoeproxy_classification_runs_total") >= 1 {
					break
				}
				if time.Now().After(deadline) {
					m.err = fmt.Errorf("member %s did not settle within %s", m.id, o.settle)
					if last == nil {
						return
					}
					break
				}
				time.Sleep(200 * time.Millisecond)
			}
			m.inst.Transactions = int64(last.value("qoeproxy_transactions_total"))
			m.inst.ClientsSkipped = int64(last.value("qoeproxy_cluster_clients_skipped_total"))
			m.inst.PartitionsOwned = int64(last.value("qoeproxy_partitions_owned"))
			m.inst.ClassifyRuns = int64(last.value("qoeproxy_classification_runs_total"))
			m.inst.ShardClassify = summarize(last.hists["qoeproxy_shard_classify_seconds"])
			m.inst.Inference = summarize(last.hists["qoeproxy_inference_seconds"])
			if resp, err := http.Get(m.base + "/healthz"); err == nil {
				var h struct {
					Instance string `json:"instance"`
				}
				json.NewDecoder(resp.Body).Decode(&h)
				resp.Body.Close()
				m.inst.HealthzInstance = h.Instance
			}
		}(m)
	}
	wg.Wait()
	res.FleetWallSeconds = time.Since(start).Seconds()
	for _, m := range members {
		if m.err != nil {
			fail("%v", m.err)
		}
	}

	// SIGTERM every member: the drain-to-snapshot path under load.
	for _, m := range members {
		m.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, m := range members {
		exited := make(chan error, 1)
		go func(m *member) { exited <- m.cmd.Wait() }(m)
		select {
		case err := <-exited:
			m.inst.CleanExit = err == nil
			if err != nil {
				fail("member %s exited with %v", m.id, err)
			}
		case <-time.After(60 * time.Second):
			fail("member %s did not exit within 60s of SIGTERM", m.id)
			m.cmd.Process.Kill()
			<-exited
		}
		m.inst.SnapshotClients, m.inst.SnapshotWritten = inspectSnapshot(m.snapPath)
		if !m.inst.SnapshotWritten {
			fail("member %s left no loadable snapshot at %s", m.id, m.snapPath)
		}
	}

	// Coverage: exactly-once across the fleet.
	for _, m := range members {
		res.OwnedSum += m.inst.Transactions
		res.SkippedSum += m.inst.ClientsSkipped
		res.PartitionsSum += m.inst.PartitionsOwned
		if m.inst.Transactions != int64(m.inst.OwnedRecords) {
			fail("member %s committed %d transactions, ring assigns it %d (overlap or gap)",
				m.id, m.inst.Transactions, m.inst.OwnedRecords)
		}
		if got, want := m.inst.Transactions+m.inst.ClientsSkipped, int64(len(w.records)); got != want {
			fail("member %s owned+skipped = %d, want %d (records lost before the ring filter)",
				m.id, got, want)
		}
		if m.inst.HealthzInstance != m.id {
			fail("member %s healthz reports instance %q", m.id, m.inst.HealthzInstance)
		}
	}
	if res.OwnedSum != int64(len(w.records)) {
		fail("fleet committed %d transactions, workload has %d (must cover exactly once)",
			res.OwnedSum, len(w.records))
	}
	if res.PartitionsSum != int64(res.PartitionsTotal) {
		fail("partitions_owned sums to %d, ring total is %d", res.PartitionsSum, res.PartitionsTotal)
	}
	slowest := 0.0
	for _, m := range members {
		if m.inst.ReplayWall > slowest {
			slowest = m.inst.ReplayWall
		}
	}
	if slowest > 0 {
		res.AggregateRecordsPerSecond = float64(len(w.records)) / slowest
	}
	return res, nil
}

// scrapeMember fetches and parses one member's /metrics, nil on any
// failure (the caller retries).
func scrapeMember(base string) *scrapeData {
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
	return s
}

// inspectSnapshot checks a member's shutdown snapshot is a loadable
// version-1 envelope and reports how many clients it carries.
func inspectSnapshot(path string) (clients int, ok bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	var snap struct {
		Version int `json:"version"`
		Clients []struct {
			Client string `json:"client"`
		} `json:"clients"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil || snap.Version != 1 {
		return 0, false
	}
	return len(snap.Clients), true
}
