package main

import (
	"os"
	"path/filepath"
	"testing"

	"droppackets/internal/dataset"
	"droppackets/internal/has"
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

func TestRunTrainClassifySaveLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration is slow")
	}
	txns := writeTinyCSV(t)
	model := filepath.Join(t.TempDir(), "model.json")
	if err := run(txns, "", "Svc1", "combined", 60, 1, 8, model, ""); err != nil {
		t.Fatalf("train+save: %v", err)
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}
	if err := run(txns, "", "Svc1", "combined", 0, 1, 8, "", model); err != nil {
		t.Fatalf("load+classify: %v", err)
	}
}

func TestRunSquidInput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration is slow")
	}
	c, err := dataset.Build(dataset.Config{Seed: 9, Sessions: 2}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "access.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range c.Records {
		client := []string{"10.0.0.1", "10.0.0.2"}[i]
		for _, txn := range rec.Capture.TLS {
			f.WriteString(squidlog.FormatEntry(client, txn, 1700000000) + "\n")
		}
	}
	f.Close()
	if err := run("", path, "Svc1", "combined", 60, 1, 8, "", ""); err != nil {
		t.Fatalf("squid input: %v", err)
	}
}

func TestRunArgumentValidation(t *testing.T) {
	if err := run("", "", "Svc1", "combined", 10, 1, 5, "", ""); err == nil {
		t.Error("missing input accepted")
	}
	if err := run("a.csv", "b.log", "Svc1", "combined", 10, 1, 5, "", ""); err == nil {
		t.Error("both inputs accepted")
	}
	if err := run("nonexistent.csv", "", "Svc1", "badmetric", 10, 1, 5, "", ""); err == nil {
		t.Error("bad metric accepted")
	}
	if err := run(writeTinyCSV(t), "", "SvcX", "combined", 10, 1, 5, "", ""); err == nil {
		t.Error("bad service accepted")
	}
	// Saving happens only after training, so -model with -save would
	// silently write nothing.
	save := filepath.Join(t.TempDir(), "saved.json")
	if err := run(writeTinyCSV(t), "", "Svc1", "combined", 10, 1, 5, save, "model.json"); err == nil {
		t.Error("-model with -save accepted")
	}
	if _, err := os.Stat(save); !os.IsNotExist(err) {
		t.Errorf("-model with -save touched the save path: %v", err)
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
