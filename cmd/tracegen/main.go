// Command tracegen generates the synthetic inputs of the evaluation:
// bandwidth traces and labeled session datasets, exported as CSV.
//
// Usage:
//
//	tracegen -what traces   [-n 100] [-seed 42] [-out traces.csv]
//	tracegen -what dataset  [-sessions 200] [-seed 42] [-out dir/]
//	tracegen -what stream   [-sessions 50] [-service Svc1] [-seed 42] [-out stream.csv]
//	tracegen -what pcap     [-service Svc1] [-session 0] [-seed 42] [-out session.pcap]
//
// In dataset mode three files are written into -out: features.csv
// (labeled 38-feature rows), transactions.csv (raw TLS transactions)
// and links.csv (per-session link ground truth). Stream mode emits one
// back-to-back chain of sessions on an absolute clock, in the
// transactions.csv format, for one viewer: qoeinfer -score splits it
// into sessions and scores the cuts against the session column.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/pcap"
	"droppackets/internal/sessionid"
	"droppackets/internal/stats"
	"droppackets/internal/trace"
)

func main() {
	var (
		what     = flag.String("what", "traces", "traces | dataset")
		n        = flag.Int("n", 100, "number of traces (traces mode)")
		sessions = flag.Int("sessions", 200, "sessions per service (dataset/stream mode)")
		service  = flag.String("service", "Svc1", "service profile (stream/pcap mode)")
		session  = flag.Int("session", 0, "session index (pcap mode)")
		seed     = flag.Int64("seed", 42, "generation seed")
		out      = flag.String("out", "", "output file (traces/stream) or directory (dataset); default stdout / current dir")
	)
	flag.Parse()
	var err error
	switch *what {
	case "traces":
		err = emitTraces(*n, *seed, *out)
	case "dataset":
		err = emitDataset(*sessions, *seed, *out)
	case "stream":
		err = emitStream(*sessions, *service, *seed, *out)
	case "pcap":
		err = emitPcap(*service, *session, *seed, *out)
	default:
		err = fmt.Errorf("unknown -what %q", *what)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// writeOut runs write over a buffered writer on the file out (standard
// output when empty) and reports the first failure: write's own, a
// write's or the flush's (a bufio.Writer keeps its first error, so the
// flush reports every failed write), or closing the file.
func writeOut(out string, write func(w *bufio.Writer) error) (err error) {
	f := os.Stdout
	if out != "" {
		if f, err = os.Create(out); err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		return err
	}
	return w.Flush()
}

func emitTraces(n int, seed int64, out string) error {
	pool := trace.GeneratePool(trace.GenConfig{Seed: seed}, n, trace.DefaultClassMix)
	return writeOut(out, func(w *bufio.Writer) error {
		w.WriteString("trace,class,sample_start,duration,kbps\n")
		for _, tr := range pool.Traces {
			t := 0.0
			for _, s := range tr.Samples {
				fmt.Fprintf(w, "%s,%s,%s,%s,%s\n", tr.Name, tr.Class,
					strconv.FormatFloat(t, 'f', 2, 64),
					strconv.FormatFloat(s.Duration, 'f', 2, 64),
					strconv.FormatFloat(s.Kbps, 'f', 1, 64))
				t += s.Duration
			}
		}
		return nil
	})
}

func emitStream(sessions int, service string, seed int64, out string) error {
	profile, err := has.Profile(service)
	if err != nil {
		return err
	}
	corpus, err := dataset.Build(dataset.Config{Seed: seed, Sessions: sessions}, profile)
	if err != nil {
		return err
	}
	stream, bytes := sessionid.Concat(dataset.Chain(corpus.Records))
	return writeOut(out, func(w *bufio.Writer) error {
		w.WriteString("session,sni,start,end,up_bytes,down_bytes\n")
		for i, t := range stream {
			fmt.Fprintf(w, "%s-%d,%s,%s,%s,%d,%d\n", service, t.SessionIdx, t.SNI,
				strconv.FormatFloat(t.Start, 'f', 3, 64),
				strconv.FormatFloat(t.End, 'f', 3, 64),
				bytes[i].Up, bytes[i].Down)
		}
		return nil
	})
}

func emitPcap(service string, session int, seed int64, out string) error {
	profile, err := has.Profile(service)
	if err != nil {
		return err
	}
	rec, err := dataset.GenerateSession(dataset.Config{Seed: seed, KeepPacketDetail: true}, profile, session)
	if err != nil {
		return err
	}
	pkts, err := rec.Capture.Packetize(stats.SplitRNG(seed, int64(session)))
	if err != nil {
		return err
	}
	var pw *pcap.Writer
	err = writeOut(out, func(w *bufio.Writer) error {
		if pw, err = pcap.NewWriter(w, pcap.DefaultEndpoints); err != nil {
			return err
		}
		return pw.WriteTrace(pkts)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d packets (%s session %d, %.0fs, combined QoE %s)\n",
		pw.Count(), service, session, rec.DurationSec, rec.QoE.Combined)
	return nil
}

func emitDataset(sessions int, seed int64, out string) error {
	if out == "" {
		out = "."
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	corpora, err := dataset.BuildAll(dataset.Config{Seed: seed, Sessions: sessions})
	if err != nil {
		return err
	}
	files := []struct {
		name  string
		write func(f *os.File) error
	}{
		{"features.csv", func(f *os.File) error { return dataset.WriteFeaturesCSV(f, corpora) }},
		{"transactions.csv", func(f *os.File) error { return dataset.WriteTransactionsCSV(f, corpora) }},
		{"links.csv", func(f *os.File) error { return dataset.WriteTracesCSV(f, corpora) }},
	}
	for _, spec := range files {
		path := filepath.Join(out, spec.name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := spec.write(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}
