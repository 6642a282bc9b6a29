package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"droppackets/internal/cluster"
)

// FuzzRestoreSnapshot feeds arbitrary bytes to the -restore path of a
// fleet member. It must never panic. A file loadSnapshotFile rejects
// takes the log-and-start-cold path: one "snapshot restore failed;
// starting cold" line and no client restored. A file it accepts
// restores only the clients the ring assigns this member.
func FuzzRestoreSnapshot(f *testing.F) {
	est := trainSmallEstimator(f, 5, 4)
	donor := newService(options{window: 0, shards: 2}, slog.New(slog.NewJSONHandler(io.Discard, nil)))
	defer donor.stopSinkWriter()
	donor.registerMetrics()
	donor.model.Store(donor.buildModel(est, nil))
	for c := 0; c < 4; c++ {
		feedRecords(donor, fmt.Sprintf("10.9.0.%d:40000", c+1), c*8+1, 8)
	}
	donor.classifyPass(1e6)
	good, err := json.Marshal(donor.snapshotState())
	if err != nil {
		f.Fatal(err)
	}
	var future map[string]any
	if err := json.Unmarshal(good, &future); err != nil {
		f.Fatal(err)
	}
	future["version"] = 99
	futureRaw, _ := json.Marshal(future)
	// The good envelope and the damaged shapes of
	// TestSnapshotCorruptRejectedColdStart.
	for _, seed := range [][]byte{good, good[:len(good)/2], []byte("{not json at all"), futureRaw, nil} {
		f.Add(seed)
	}

	ring, err := cluster.New(&cluster.Config{Version: 1, Instances: []cluster.Instance{{ID: "a"}, {ID: "b"}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, logs := newTestService(t, options{window: 0, shards: 2}, est)
		s.ring, s.instanceID = ring, "b"
		s.restoreFromFile(path)
		snap, err := loadSnapshotFile(path)
		if err != nil {
			if n := logs.countLogMsg(t, "snapshot restore failed; starting cold"); n != 1 {
				t.Fatalf("unparseable snapshot (%v): cold-start log lines = %d, want 1", err, n)
			}
			if n := s.shards.Len(); n != 0 {
				t.Fatalf("unparseable snapshot (%v) restored %d clients", err, n)
			}
			return
		}
		if n := logs.countLogMsg(t, "snapshot restored"); n != 1 {
			t.Fatalf("accepted snapshot: %d \"snapshot restored\" lines, want 1", n)
		}
		if n := s.shards.Len(); n > len(snap.Clients) {
			t.Fatalf("%d clients resident from a snapshot of %d", n, len(snap.Clients))
		}
		for _, cs := range s.snapshotState().Clients {
			if !ring.Owns("b", cs.Client) {
				t.Fatalf("restored client %q belongs to %s", cs.Client, ring.Owner(cs.Client))
			}
		}
	})
}
