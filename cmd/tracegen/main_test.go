package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/pcap"
)

func TestEmitTraces(t *testing.T) {
	out := filepath.Join(t.TempDir(), "traces.csv")
	if err := emitTraces(5, 1, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if !strings.HasPrefix(lines[0], "trace,class") {
		t.Errorf("header %q", lines[0])
	}
	if len(lines) < 10 {
		t.Errorf("only %d lines for 5 traces", len(lines))
	}
}

func TestEmitDataset(t *testing.T) {
	dir := t.TempDir()
	if err := emitDataset(6, 2, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"features.csv", "transactions.csv", "links.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s missing: %v", name, err)
		}
	}
}

func TestEmitStream(t *testing.T) {
	out := filepath.Join(t.TempDir(), "stream.csv")
	if err := emitStream(4, "Svc1", 3, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Svc1-0") {
		t.Error("stream missing session ids")
	}
	// Connection reuse folds transactions together but loses no bytes:
	// the stream carries the corpus's totals.
	groups, _, err := dataset.ReadTransactionsCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := dataset.Build(dataset.Config{Seed: 3, Sessions: 4}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	var up, down, wantUp, wantDown int64
	for _, txns := range groups {
		for _, x := range txns {
			up, down = up+x.UpBytes, down+x.DownBytes
		}
	}
	for _, r := range corpus.Records {
		for _, x := range r.Capture.TLS {
			wantUp, wantDown = wantUp+x.UpBytes, wantDown+x.DownBytes
		}
	}
	if wantDown == 0 || up != wantUp || down != wantDown {
		t.Errorf("stream carries %d up, %d down bytes; the corpus %d, %d", up, down, wantUp, wantDown)
	}
	if err := emitStream(2, "SvcX", 3, out); err == nil {
		t.Error("unknown service accepted")
	}
}

func TestEmitPcap(t *testing.T) {
	out := filepath.Join(t.TempDir(), "s.pcap")
	if err := emitPcap("Svc1", 0, 4, out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		t.Fatalf("output not a valid pcap: %v", err)
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 100 {
		t.Errorf("only %d packets", len(pkts))
	}
	if err := emitPcap("SvcX", 0, 4, out); err == nil {
		t.Error("unknown service accepted")
	}
}

// TestEmitFailsOnFullDevice: a CSV that cannot be written is an error,
// whether a write, the flush or the close fails.
func TestEmitFailsOnFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	if err := emitTraces(5, 1, "/dev/full"); err == nil {
		t.Error("-what traces -out /dev/full succeeded")
	}
	if err := emitStream(4, "Svc1", 3, "/dev/full"); err == nil {
		t.Error("-what stream -out /dev/full succeeded")
	}
}
