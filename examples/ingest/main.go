// Ingest formats: one workload, every telemetry source. This example
// generates a small synthetic traffic corpus and renders it in each
// format the qoeproxy daemon ingests — a replay CSV, a Squid access
// log, a transaction pcap and a NetFlow-style flow-record file — plus
// a trained model, then prints the exact daemon invocation for every
// -source mode. It finishes by replaying one rendering in-process
// through the ingest API to show the TransactionSource contract.
//
// All four files describe the same transactions on the same clock, so
// the daemon classifies identically whichever one it is fed (the
// cross-source equivalence test in cmd/qoeproxy pins this).
//
// Run with: go run ./examples/ingest [-dir ingest-demo]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ingest"
	"droppackets/internal/ml/forest"
	"droppackets/internal/netflow"
	"droppackets/internal/pcap"
	"droppackets/internal/qoe"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

func main() {
	dir := flag.String("dir", "ingest-demo", "write the workload renderings here")
	sessions := flag.Int("sessions", 12, "video sessions in the demo corpus")
	seed := flag.Int64("seed", 11, "corpus generation seed")
	flag.Parse()
	if err := run(*dir, *sessions, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(dir string, sessions int, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// A small corpus of synthetic HAS sessions, dealt across a handful
	// of clients. Timestamps are snapped to the millisecond grid a Squid
	// log carries, so every rendering decodes to identical offsets.
	corpus, err := dataset.Build(dataset.Config{Seed: seed, Sessions: sessions}, has.Svc1())
	if err != nil {
		return err
	}
	var recs []tlsproxy.ReplayRecord
	for i, r := range corpus.Records {
		client := fmt.Sprintf("10.20.0.%d", i%4+1)
		for _, txn := range r.Capture.TLS {
			endMs := math.Round(txn.End * 1000)
			durMs := math.Round((txn.End - txn.Start) * 1000)
			durMs = math.Max(0, math.Min(durMs, endMs))
			end := endMs / 1000
			recs = append(recs, tlsproxy.ReplayRecord{
				Client: client, SNI: txn.SNI,
				Start: end - durMs/1000, End: end,
				UpBytes: txn.UpBytes, DownBytes: txn.DownBytes,
			})
		}
	}
	// End-time order: the order a proxy logs in, and the one the pcap
	// and squid readers reproduce.
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].End != recs[j].End {
			return recs[i].End < recs[j].End
		}
		return recs[i].Start < recs[j].Start
	})

	// Rendering 1: replay CSV (the tlsproxy workload format).
	csvPath := filepath.Join(dir, "workload.csv")
	if err := writeFile(csvPath, func(f *os.File) error {
		return tlsproxy.WriteWorkload(f, recs)
	}); err != nil {
		return err
	}

	// Rendering 2: Squid access log, epoch-0 timestamps.
	logPath := filepath.Join(dir, "access.log")
	if err := writeFile(logPath, func(f *os.File) error {
		for _, r := range recs {
			line := squidlog.FormatEntry(r.Client, capture.TLSTransaction{
				SNI: r.SNI, Start: r.Start, End: r.End,
				UpBytes: r.UpBytes, DownBytes: r.DownBytes,
			}, 0)
			if _, err := fmt.Fprintln(f, line); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Rendering 3: transaction pcap (one synthetic TCP flow per record,
	// ClientHello carrying the SNI, byte totals as packet lengths).
	pcapPath := filepath.Join(dir, "trace.pcap")
	if err := writeFile(pcapPath, func(f *os.File) error {
		return pcap.WriteTransactions(f, recs)
	}); err != nil {
		return err
	}

	// Rendering 4: flow-record file, with a few unresolved (empty-host)
	// flows like a real collector export after imperfect DNS joining.
	flowPath := filepath.Join(dir, "flows.csv")
	var flows []netflow.ClientFlow
	for i, r := range recs {
		host := r.SNI
		if i%50 == 17 {
			host = "" // DNS visibility missed this server
		}
		flows = append(flows, netflow.ClientFlow{Client: r.Client, Flow: netflow.Record{
			Host: host, Start: r.Start, End: r.End, UpBytes: r.UpBytes, DownBytes: r.DownBytes,
		}})
	}
	if err := writeFile(flowPath, func(f *os.File) error {
		return netflow.WriteFlows(f, flows)
	}); err != nil {
		return err
	}

	// A model so the printed commands classify, not just ingest.
	modelPath := filepath.Join(dir, "model.json")
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined, Forest: forest.Config{NumTrees: 8, Seed: seed}})
	if err := est.Train(training); err != nil {
		return err
	}
	if err := writeFile(modelPath, func(f *os.File) error { return est.Save(f) }); err != nil {
		return err
	}

	fmt.Printf("wrote %d transactions in four formats under %s/\n\n", len(recs), dir)
	common := fmt.Sprintf("-model %s -metrics 127.0.0.1:9090 -out %s", modelPath, filepath.Join(dir, "out.csv"))
	fmt.Println("run the daemon against any rendering:")
	fmt.Printf("  replay CSV:  go run ./cmd/qoeproxy -source replay -input %s -ingest-workers 4 %s\n", csvPath, common)
	fmt.Printf("  Squid log:   go run ./cmd/qoeproxy -source squid -input %s -follow=false -ingest-epoch 0 %s\n", logPath, common)
	fmt.Printf("  pcap trace:  go run ./cmd/qoeproxy -source pcap -input %s -ingest-epoch 0 %s\n", pcapPath, common)
	fmt.Printf("  flow file:   go run ./cmd/qoeproxy -source netflow -input %s %s\n", flowPath, common)
	fmt.Printf("  live proxy:  go run ./cmd/qoeproxy -listen :8443 -upstream <origin:port> %s\n\n", common)

	// The same files are one function call away in-process: every
	// format implements ingest.TransactionSource.
	src, err := ingest.NewPcapSource(pcapPath, time.Unix(0, 0), 0, 0, 1)
	if err != nil {
		return err
	}
	var n int
	err = src.Run(context.Background(), ingest.Handler{
		TransactionBatch: func(recs []tlsproxy.Record) { n += len(recs) },
	})
	if err != nil {
		return err
	}
	st := src.Stats()
	fmt.Printf("in-process check: %s source delivered %d transactions from %d clients\n",
		src.Name(), n, st.Clients)
	return nil
}

// writeFile creates path, hands it to fill, and closes it, failing on
// either error.
func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
