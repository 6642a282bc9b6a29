// Command qoeinfer classifies per-session video QoE from TLS
// transaction logs. It trains on a simulated labeled corpus for the
// chosen service profile, then classifies each session found in the
// input CSV (format: session,sni,start,end,up_bytes,down_bytes — see
// cmd/tracegen).
//
// Usage:
//
//	qoeinfer -txns transactions.csv [-service Svc1] [-metric combined]
//	         [-train-sessions 600] [-seed 42] [-trees 100]
//	         [-save model.json | -model model.json]
//	qoeinfer -squid access.log [...]
//
// With -save, the trained model is written to disk after training —
// including the training corpus's per-feature baseline, which lets
// cmd/qoeproxy export drift gauges for the live traffic it classifies;
// with -model, training is skipped and the saved model is used.
// With -squid, a Squid access log is ingested instead of a CSV: each
// client address's CONNECT tunnels are classified as one session. For
// clients that watch several videos back-to-back, run cmd/qoeproxy with
// -source squid -input access.log -model model.json instead: it splits
// each client's sessions online and classifies them.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/squidlog"
)

func main() {
	var (
		txnsPath  = flag.String("txns", "", "transactions CSV to classify (required)")
		service   = flag.String("service", "Svc1", "service profile to train on (Svc1|Svc2|Svc3)")
		metric    = flag.String("metric", "combined", "QoE metric: rebuffer|quality|combined")
		trainN    = flag.Int("train-sessions", 600, "simulated training sessions")
		seed      = flag.Int64("seed", 42, "training seed")
		trees     = flag.Int("trees", 100, "random-forest size")
		savePath  = flag.String("save", "", "write the trained model to this file")
		loadPath  = flag.String("model", "", "load a saved model instead of training")
		squidPath = flag.String("squid", "", "Squid access.log to classify (alternative to -txns)")
	)
	flag.Parse()
	if err := run(*txnsPath, *squidPath, *service, *metric, *trainN, *seed, *trees, *savePath, *loadPath); err != nil {
		fmt.Fprintln(os.Stderr, "qoeinfer:", err)
		os.Exit(1)
	}
}

func parseMetric(s string) (qoe.MetricKind, error) {
	switch s {
	case "rebuffer":
		return qoe.MetricRebuffer, nil
	case "quality":
		return qoe.MetricQuality, nil
	case "combined":
		return qoe.MetricCombined, nil
	default:
		return 0, fmt.Errorf("unknown metric %q", s)
	}
}

func findProfile(name string) (*has.ServiceProfile, error) {
	for _, p := range has.Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("unknown service %q", name)
}

func run(txnsPath, squidPath, service, metricName string, trainN int, seed int64, trees int, savePath, loadPath string) error {
	if (txnsPath == "") == (squidPath == "") {
		return fmt.Errorf("exactly one of -txns or -squid is required")
	}
	if savePath != "" && loadPath != "" {
		return fmt.Errorf("-save writes a trained model; it cannot be combined with -model")
	}
	metric, err := parseMetric(metricName)
	if err != nil {
		return err
	}

	var sessions map[string][]capture.TLSTransaction
	var order []string
	if txnsPath != "" {
		f, err := os.Open(txnsPath)
		if err != nil {
			return err
		}
		sessions, order, err = dataset.ReadTransactionsCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		f, err := os.Open(squidPath)
		if err != nil {
			return err
		}
		entries, err := squidlog.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		sessions = squidlog.GroupByClient(entries)
		for client := range sessions {
			order = append(order, client)
		}
		sort.Strings(order)
	}

	var est *core.Estimator
	if loadPath != "" {
		mf, err := os.Open(loadPath)
		if err != nil {
			return err
		}
		est, err = core.LoadEstimator(mf)
		mf.Close()
		if err != nil {
			return err
		}
		metric = est.Metric()
		fmt.Fprintf(os.Stderr, "loaded model from %s (metric: %s)\n", loadPath, metric)
	} else {
		profile, err := findProfile(service)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "training on %d simulated %s sessions...\n", trainN, service)
		corpus, err := dataset.Build(dataset.Config{Seed: seed, Sessions: trainN}, profile)
		if err != nil {
			return err
		}
		var training []core.TrainingSession
		for _, r := range corpus.Records {
			training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
		}
		est = core.NewEstimator(core.Config{
			Metric: metric,
			Forest: forest.Config{NumTrees: trees, MinLeaf: 2, Seed: seed},
		})
		if err := est.Train(training); err != nil {
			return err
		}
		if savePath != "" {
			sf, err := os.Create(savePath)
			if err != nil {
				return err
			}
			if err := est.Save(sf); err != nil {
				sf.Close()
				return err
			}
			if err := sf.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "saved model to %s (with training baseline for drift gauges)\n", savePath)
		}
	}

	names := core.ClassNames(metric)
	fmt.Printf("%-24s %-8s %s\n", "session", "class", "probabilities")
	for _, id := range order {
		probs, err := est.ClassifyProba(sortTxns(sessions[id]))
		if err != nil {
			return err
		}
		fmt.Printf("%-24s %-8s", id, names[ml.Argmax(probs)])
		for i, p := range probs {
			fmt.Printf(" %s=%.2f", names[i], p)
		}
		fmt.Println()
	}
	return nil
}

// sortTxns orders a copy of the transactions by start time (feature
// extraction expects time order for IAT), keeping equal starts in input
// order.
func sortTxns(txns []capture.TLSTransaction) []capture.TLSTransaction {
	out := slices.Clone(txns)
	slices.SortStableFunc(out, func(a, b capture.TLSTransaction) int { return cmp.Compare(a.Start, b.Start) })
	return out
}
