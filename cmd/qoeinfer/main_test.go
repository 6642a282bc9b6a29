package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/sessionid"
	"droppackets/internal/squidlog"
)

// writeTinyCSV exports a 4-session corpus for classification input.
func writeTinyCSV(t *testing.T) string {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 8, Sessions: 4}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "txns.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteTransactionsCSV(f, []*dataset.Corpus{c}); err != nil {
		t.Fatal(err)
	}
	return path
}

// small trains a quick model on each run.
func small(o options) options {
	o.service, o.metric, o.trainN, o.seed, o.trees = "Svc1", "combined", 60, 1, 8
	return o
}

func TestRunTrainClassifySaveLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration is slow")
	}
	txns := writeTinyCSV(t)
	model := filepath.Join(t.TempDir(), "model.json")
	var trained, loaded bytes.Buffer
	if err := run(&trained, small(options{txns: txns, save: model})); err != nil {
		t.Fatalf("train+save: %v", err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}
	if err := run(&loaded, small(options{txns: txns, model: model})); err != nil {
		t.Fatalf("load+classify: %v", err)
	}
	// One line per labelled session, and the loaded model agrees with
	// the one it was saved from.
	if n := strings.Count(trained.String(), "\nSvc1-"); n != 4 {
		t.Errorf("%d session lines, want 4:\n%s", n, trained.String())
	}
	if trained.String() != loaded.String() {
		t.Errorf("loaded model classifies differently:\n%s\nwant\n%s", loaded.String(), trained.String())
	}
}

// TestRunSquidInput writes a Squid log in which one client watches two
// videos back to back and another watches one: -squid must print a line
// per (client, session), not one verdict per client.
func TestRunSquidInput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration is slow")
	}
	c, err := dataset.Build(dataset.Config{Seed: 9, Sessions: 3}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "access.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	offset := 0.0
	for i, rec := range c.Records {
		client := []string{"10.0.0.1", "10.0.0.1", "10.0.0.2"}[i]
		if i == 2 {
			offset = 0
		}
		for _, txn := range rec.Capture.TLS {
			txn.Start += offset
			txn.End += offset
			f.WriteString(squidlog.FormatEntry(client, txn, 1700000000) + "\n")
		}
		offset += rec.DurationSec
	}
	f.Close()
	var out bytes.Buffer
	if err := run(&out, small(options{squid: path})); err != nil {
		t.Fatalf("squid input: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	perClient := map[string]int{}
	for _, l := range lines[1:] {
		perClient[strings.Fields(l)[0]]++
	}
	if perClient["10.0.0.1"] != 2 || perClient["10.0.0.2"] != 1 || len(perClient) != 2 {
		t.Errorf("session lines per client %v, want 10.0.0.1=2 10.0.0.2=1:\n%s", perClient, out.String())
	}
}

// writeStream exports a back-to-back chain in tracegen -what stream's
// format.
func writeStream(t *testing.T, sessions int) string {
	t.Helper()
	c, err := dataset.Build(dataset.Config{Seed: 7, Sessions: sessions}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	stream, counts := sessionid.Concat(dataset.Chain(c.Records))
	path := filepath.Join(t.TempDir(), "stream.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintln(f, "session,sni,start,end,up_bytes,down_bytes")
	for i, txn := range stream {
		fmt.Fprintf(f, "Svc1-%d,%s,%.3f,%.3f,%d,%d\n", txn.SessionIdx, txn.SNI, txn.Start, txn.End, counts[i].Up, counts[i].Down)
	}
	return path
}

func TestRunScore(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration is slow")
	}
	const sessions = 5
	var out bytes.Buffer
	if err := run(&out, small(options{txns: writeStream(t, sessions), score: true})); err != nil {
		t.Fatalf("run with scoring: %v", err)
	}
	m := regexp.MustCompile(`(?m)^session starts recovered: (\d+)/(\d+)$`).FindStringSubmatch(out.String())
	if m == nil || m[2] != fmt.Sprint(sessions) {
		t.Fatalf("no recovered count over %d sessions:\n%s", sessions, out.String())
	}
	if !strings.Contains(out.String(), "actual") || !strings.Contains(out.String(), "existing") {
		t.Errorf("no Table 5 confusion matrix:\n%s", out.String())
	}
}

func TestRunArgumentValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, small(options{})); err == nil {
		t.Error("missing input accepted")
	}
	if err := run(&out, small(options{txns: "a.csv", squid: "b.log"})); err == nil {
		t.Error("both inputs accepted")
	}
	if err := run(&out, small(options{squid: "b.log", score: true})); err == nil {
		t.Error("-score with -squid accepted")
	}
	if err := run(&out, options{txns: "nonexistent.csv", service: "Svc1", metric: "badmetric"}); err == nil {
		t.Error("bad metric accepted")
	}
	if err := run(&out, options{txns: writeTinyCSV(t), service: "SvcX", metric: "combined", trainN: 10, trees: 5}); err == nil {
		t.Error("bad service accepted")
	}
	// Saving happens only after training, so -model with -save would
	// silently write nothing.
	save := filepath.Join(t.TempDir(), "saved.json")
	if err := run(&out, small(options{txns: writeTinyCSV(t), save: save, model: "model.json"})); err == nil {
		t.Error("-model with -save accepted")
	}
	if _, err := os.Stat(save); !os.IsNotExist(err) {
		t.Errorf("-model with -save touched the save path: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("rejected runs printed %q", out.String())
	}
}

// TestRunScoreErrors checks that -score rejects a stream file that is
// missing or malformed before it prints anything.
func TestRunScoreErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, small(options{txns: filepath.Join(t.TempDir(), "missing.csv"), score: true})); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	os.WriteFile(bad, []byte("session,sni,start,end,up_bytes,down_bytes\nx,y,NOT,1,2,3\n"), 0o644)
	if err := run(&out, small(options{txns: bad, score: true})); err == nil {
		t.Error("malformed CSV accepted")
	}
	if out.Len() != 0 {
		t.Errorf("rejected runs printed %q", out.String())
	}
}

func TestParseMetric(t *testing.T) {
	for _, name := range []string{"rebuffer", "quality", "combined"} {
		if _, err := parseMetric(name); err != nil {
			t.Errorf("parseMetric(%s): %v", name, err)
		}
	}
	if _, err := parseMetric("mos"); err == nil {
		t.Error("unknown metric accepted")
	}
}
