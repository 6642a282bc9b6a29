package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inputHash digests everything generateInput hands the daemon: the
// model, the rendered workload, and for the paced workload the due
// time of every line.
func inputHash(t *testing.T, w *workload, seed int64) string {
	t.Helper()
	pr, err := generateInput(w, seed, 4, 1.0/200, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, path := range []string{pr.model, pr.input} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	if pr.sched != nil {
		h.Write(pr.sched.buf)
		binary.Write(h, binary.LittleEndian, pr.sched.due)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGeneratorIsDeterministicInSeed(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		a, b, c := inputHash(t, w, 7), inputHash(t, w, 7), inputHash(t, w, 8)
		if a != b {
			t.Errorf("%s: seed 7 rendered twice gives %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 render the same input", w.name)
		}
	}
}

// smokeRun sets up and runs one workload at 1/200 scale against the
// real daemon binary, built from the enclosing checkout.
func smokeRun(t *testing.T, w *workload) (*prepared, *observed) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pr, err := setup(w, 3, 4, 0.005, root, dir)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := runDaemon(pr, dir)
	if err != nil {
		t.Fatal(err)
	}
	return pr, ob
}

func TestSmokeEveryWorkloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon binary")
	}
	t.Parallel()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			pr, ob := smokeRun(t, w)
			v, err := verify(pr, ob)
			if err != nil {
				t.Fatal(err)
			}
			if v.clients == 0 || v.failed != 0 {
				t.Errorf("%d clients, %d failed", v.clients, v.failed)
			}
			m, _, _ := measure(pr, ob, v)
			for _, d := range endToEnd {
				if d.name == "setup_s" {
					continue
				}
				if x, ok := m[d.name]; !ok || x <= 0 {
					t.Errorf("%s = %v (present: %v), want > 0", d.name, x, ok)
				}
			}
			if late := m["generator.late_p99_ms"]; late > maxGeneratorLateMs {
				t.Errorf("generator p99 lateness %v ms at 1/200 scale", late)
			}

			rep, err := tracedRun(pr, t.TempDir(), filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			layerMetrics(m, rep)
			if rep.pl.records != int64(pr.records) || rep.pl.ticks == 0 {
				t.Errorf("traced %d of %d records in %d ticks", rep.pl.records, pr.records, rep.pl.ticks)
			}
			positive := []string{"sessionid.push_ns_per_txn", "core.classify_block_ns_per_row",
				"compiled.forest_batch_ns_per_row", "trace.overhead_ratio", "qoeproxy.layers_us_per_record"}
			if w.source == "squid" {
				positive = append(positive, "squidlog.parse_ns_per_line", "intern.lookup_ns", "ingest.squid.self_ns_per_record")
			} else {
				positive = append(positive, "ingest.replay.self_ns_per_record")
			}
			if w.windowed {
				positive = append(positive, "features.scratch.row_ns_per_txn")
			} else {
				positive = append(positive, "core.tracked_row_ns_per_client", "features.accumulator.observe_ns_per_txn")
			}
			if w.paced {
				positive = append(positive, "generator.late_p99_ms")
			}
			for _, name := range positive {
				if m[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, m[name])
				}
			}
		})
	}
}

// A sink that lost one record must fail the conservation check: this is
// what turns a silent drop in the daemon into a refused result.
func TestVerifyRejectsASinkMissingOneLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon binary")
	}
	t.Parallel()
	pr, ob := smokeRun(t, workloadByName("squid_churn"))
	if _, err := verify(pr, ob); err != nil {
		t.Fatalf("intact run: %v", err)
	}
	data, err := os.ReadFile(ob.sinkPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') // drop the last line
	if err := os.WriteFile(ob.sinkPath, data[:cut+1], 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := verify(pr, ob)
	if err == nil || !strings.Contains(err.Error(), "record conservation") {
		t.Fatalf("verify accepted a sink with a line removed: %v", err)
	}
	if v == nil || v.clients == 0 {
		t.Error("a refused run must still carry its operation counts")
	}

	// The oracle half: a verdict with the wrong class is a failed operation.
	pr, ob = smokeRun(t, workloadByName("replay_resident"))
	ob.verdicts[0].class = (ob.verdicts[0].class + 1) % len(classNames)
	if v, err := verify(pr, ob); err == nil || v.failed != 1 {
		t.Fatalf("verify accepted a wrong class on replay_resident: %v", err)
	}
}

// BENCHMARK.json and the tables in main.go must name the same
// workloads and metrics, with the same units and directions.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the code %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s metric %s: bound present = %v", kind, g.Name, g.Bound != nil)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
