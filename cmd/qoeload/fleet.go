package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
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

// fleetMember is one daemon of the fleet and what the checks read back
// from it.
type fleetMember struct {
	id           string
	ownedRecords int // what the ring assigns it, worked out ahead of time
	cmd          *exec.Cmd
	ev           *daemonEvents
	snapPath     string
	err          error

	transactions    int64
	clientsSkipped  int64
	partitionsOwned int64
	healthzInstance string
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
// returns the coverage and shutdown checks it failed.
func runFleet(o loadOptions, bin, modelPath, dir string, w *workload, n int) (failures []string, err error) {
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	cfg := &cluster.Config{Version: 1, Instances: nil}
	for _, id := range fleetIDs(n) {
		cfg.Instances = append(cfg.Instances, cluster.Instance{ID: id})
	}
	ring, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, "cluster.json")
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

	csvPath := filepath.Join(dir, "fleet.workload.csv")
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

	members := make([]*fleetMember, n)
	for i, id := range fleetIDs(n) {
		m := &fleetMember{id: id, ownedRecords: ownedRecords[id],
			snapPath: filepath.Join(dir, "fleet-"+id+".snapshot.json")}
		members[i] = m
		args := []string{
			"-model", modelPath,
			"-metrics", "127.0.0.1:0",
			"-out", filepath.Join(dir, "fleet-"+id+".out.csv"),
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
		stderr, err := m.cmd.StderrPipe()
		if err != nil {
			return nil, err
		}
		m.ev = newDaemonEvents()
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
		go func(m *fleetMember) {
			defer wg.Done()
			var base string
			select {
			case addr := <-m.ev.metricsAddr:
				base = "http://" + addr
			case <-time.After(30 * time.Second):
				m.err = fmt.Errorf("member %s never reported its metrics address", m.id)
				return
			}
			select {
			case <-m.ev.replayDone:
			case <-time.After(10 * time.Minute):
				m.err = fmt.Errorf("member %s replay did not complete within 10m", m.id)
				return
			}
			last, err := awaitSettled(func() *scrapeData { return scrape(base) }, m.ownedRecords, 1, o.settle)
			if err != nil {
				m.err = fmt.Errorf("member %s: %w", m.id, err)
			}
			if last == nil {
				return
			}
			m.transactions = int64(last.value("qoeproxy_transactions_total"))
			m.clientsSkipped = int64(last.value("qoeproxy_cluster_clients_skipped_total"))
			m.partitionsOwned = int64(last.value("qoeproxy_partitions_owned"))
			m.healthzInstance = healthz(base).Instance
		}(m)
	}
	wg.Wait()
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
		if err := awaitExit(m.cmd); err != nil {
			fail("member %s %v", m.id, err)
		}
		if !snapshotLoadable(m.snapPath) {
			fail("member %s left no loadable snapshot at %s", m.id, m.snapPath)
		}
	}

	// Coverage: exactly-once across the fleet.
	var ownedSum, partitionsSum int64
	for _, m := range members {
		ownedSum += m.transactions
		partitionsSum += m.partitionsOwned
		if m.transactions != int64(m.ownedRecords) {
			fail("member %s committed %d transactions, ring assigns it %d (overlap or gap)",
				m.id, m.transactions, m.ownedRecords)
		}
		if got, want := m.transactions+m.clientsSkipped, int64(len(w.records)); got != want {
			fail("member %s owned+skipped = %d, want %d (records lost before the ring filter)",
				m.id, got, want)
		}
		if m.healthzInstance != m.id {
			fail("member %s healthz reports instance %q", m.id, m.healthzInstance)
		}
	}
	if ownedSum != int64(len(w.records)) {
		fail("fleet committed %d transactions, workload has %d (must cover exactly once)",
			ownedSum, len(w.records))
	}
	if total := int64(ring.TotalPartitions()); partitionsSum != total {
		fail("partitions_owned sums to %d, ring total is %d", partitionsSum, total)
	}
	fmt.Fprintf(os.Stderr, "qoeload: fleet: %d/%d records committed across %d member(s), %d check(s) failed\n",
		ownedSum, len(w.records), n, len(failures))
	return failures, nil
}

// snapshotLoadable checks a member's shutdown snapshot is a loadable
// version-1 envelope.
func snapshotLoadable(path string) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var snap struct {
		Version int `json:"version"`
		Clients []struct {
			Client string `json:"client"`
		} `json:"clients"`
	}
	return json.Unmarshal(raw, &snap) == nil && snap.Version == 1
}
