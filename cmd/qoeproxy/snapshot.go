package main

// Serving-state snapshot/restore: the warm-restart and partition-
// handoff half of fleet operation. A snapshot wraps every client's
// saved serving state (serve.ClientState: sessionizer, reorder buffer,
// in-flight and current-session runs, recent-transaction ring,
// lifetime aggregates, last online classification) in one versioned
// JSON envelope (the convention of internal/core/persist.go: explicit
// version field, unknown versions rejected). A daemon started with
// -restore rebuilds that state before ingesting a single record, so
// its subsequent classifications, counters and sink lines are
// byte-identical to a daemon that never stopped; the equivalence tests
// in snapshot_test.go pin this.
//
// The envelope carries the epoch of the instance that wrote it, and
// restore adopts it: every float in the state is epoch-relative
// seconds, so the successor must keep measuring offsets against the
// original zero for watermarks, TTLs and sink timestamps to stay
// consistent (the uptime gauge consequently reports time since the
// ORIGINAL instance started — documented in docs/OPERATIONS.md).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"droppackets/internal/serve"
)

// snapshotVersion is the envelope layout version this build writes and
// the newest it accepts.
const snapshotVersion = 1

// savedSnapshot is the on-disk serving-state envelope.
type savedSnapshot struct {
	Version int `json:"version"`
	// Instance records which fleet member wrote the snapshot (empty for
	// a standalone daemon) — operators use it to audit handoffs; restore
	// does not require it to match.
	Instance string `json:"instance,omitempty"`
	// EpochUnixNanos is the writer's epoch; every time float below is
	// seconds since it.
	EpochUnixNanos int64 `json:"epoch_unix_nanos"`
	// Watermark is the ingest watermark at capture, epoch seconds.
	Watermark float64             `json:"watermark"`
	Clients   []serve.ClientState `json:"clients"`
}

// snapshotState captures the full serving state. Each shard is
// captured under its own lock, so every client's state is internally
// consistent; for a fully consistent fleet handoff the caller stops
// ingest first (the SIGTERM path does). Clients are sorted so the same
// state always serializes to the same bytes.
func (s *service) snapshotState() *savedSnapshot {
	return &savedSnapshot{
		Version:        snapshotVersion,
		Instance:       s.instanceID,
		EpochUnixNanos: s.epoch.UnixNano(),
		Clients:        s.shards.Save(nil),
		Watermark:      math.Float64frombits(s.watermark.Load()),
	}
}

// writeSnapshotFile serializes the serving state atomically: a temp
// file in the destination directory, fsynced, then renamed over the
// target — a crash mid-write never leaves a truncated envelope where
// a successor would look for a good one.
func (s *service) writeSnapshotFile(path string) (clients int, err error) {
	snap := s.snapshotState()
	raw, err := json.Marshal(snap)
	if err != nil {
		return 0, fmt.Errorf("snapshot: encoding: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".qoeproxy-snapshot-*")
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("snapshot: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("snapshot: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	return len(snap.Clients), nil
}

// loadSnapshotFile reads and validates a snapshot envelope.
func loadSnapshotFile(path string) (*savedSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var snap savedSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("snapshot: decoding %s: %w", path, err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return nil, fmt.Errorf("snapshot: %s has version %d, want 1..%d", path, snap.Version, snapshotVersion)
	}
	if snap.EpochUnixNanos == 0 {
		return nil, fmt.Errorf("snapshot: %s carries no epoch", path)
	}
	for i, c := range snap.Clients {
		if c.Client == "" {
			return nil, fmt.Errorf("snapshot: %s client %d has an empty address", path, i)
		}
	}
	return &snap, nil
}

// restoreState rebuilds the serving state from a snapshot: the epoch
// and watermark are adopted wholesale, and every owned client's state
// is reconstructed exactly (see the package comment). Clients
// the cluster ring no longer assigns to this instance are dropped, not
// resurrected: their partitions moved to a peer, and keeping their
// state (or re-interning their strings) here would double-classify
// them. Global counters are untouched — restore is not ingest; a
// fleet's counter totals stay the sum of what each instance actually
// processed. Must run once the first serving bundle, whose classes
// vet the restored verdicts, is in place, and before any record.
func (s *service) restoreState(snap *savedSnapshot) (restored, skippedNotOwned int) {
	s.epoch = time.Unix(0, snap.EpochUnixNanos)
	s.watermark.Store(math.Float64bits(snap.Watermark))
	numClasses := 0
	if m := s.model.Load(); m != nil {
		numClasses = m.Primary().NumClasses()
	}
	for i := range snap.Clients {
		sc := &snap.Clients[i]
		if !s.owns(sc.Client) {
			skippedNotOwned++
			continue
		}
		// The restored verdict drives class-change logging and the
		// by-class gauge, so the Core drops one the serving model cannot
		// name: the client's next verdict is logged as its first.
		if s.shards.Restore(sc, numClasses) {
			s.byClass[sc.LastClass].Add(1)
		}
		restored++
	}
	return restored, skippedNotOwned
}

// readSnapshot loads a -restore snapshot and adopts its epoch. A
// missing, corrupt or truncated one is logged and the daemon starts
// cold — never crashes — because a fleet member must come up and take
// its partitions even when its predecessor left nothing usable.
func (s *service) readSnapshot(path string) *savedSnapshot {
	snap, err := loadSnapshotFile(path)
	if err != nil {
		s.log.Error("snapshot restore failed; starting cold", "path", path, "err", err)
		return nil
	}
	s.epoch = time.Unix(0, snap.EpochUnixNanos)
	return snap
}

// restoreSnapshot is the second half of -restore, once the first
// serving bundle is in place: restoreState, logged.
func (s *service) restoreSnapshot(path string, snap *savedSnapshot) {
	restored, skipped := s.restoreState(snap)
	s.log.Info("snapshot restored",
		"path", path, "from_instance", snap.Instance,
		"clients", restored, "skipped_not_owned", skipped,
		"watermark", snap.Watermark)
}
