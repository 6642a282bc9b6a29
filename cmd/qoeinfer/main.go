// Command qoeinfer classifies per-session video QoE from TLS
// transaction logs, with a model trained on a simulated corpus of the
// chosen service (-save writes it, with the training baseline
// cmd/qoeproxy's drift gauges read) or loaded with -model.
//
// Usage:
//
//	qoeinfer -txns transactions.csv [-score] [-service Svc1] [-metric combined]
//	         [-train-sessions 600] [-seed 42] [-trees 100]
//	         [-save model.json | -model model.json]
//	qoeinfer -squid access.log [...]
//
// -txns reads cmd/tracegen's transaction CSV and classifies each
// session group. With -score it reads the CSV as one viewer's stream
// (tracegen -what stream), splits it into sessions with the §4.2
// heuristic, classifies each, and scores the cuts against the session
// column: the Table 5 confusion matrix and the session starts
// recovered. -squid splits each client of a Squid access log into
// sessions, as cmd/qoeproxy does online, and classifies each. A split
// session's line gives its index (the starts detected up to it), start
// and end in seconds from the client's first connection, transaction
// count, class and probabilities.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/ml/forest"
	"droppackets/internal/qoe"
	"droppackets/internal/sessionid"
	"droppackets/internal/squidlog"
)

// options are the command's flags.
type options struct {
	txns, squid, service, metric, save, model string
	score                                     bool
	trainN, trees                             int
	seed                                      int64
}

func main() {
	var o options
	flag.StringVar(&o.txns, "txns", "", "transactions CSV to classify")
	flag.StringVar(&o.squid, "squid", "", "Squid access.log to split into sessions and classify (alternative to -txns)")
	flag.BoolVar(&o.score, "score", false, "read -txns as one viewer's stream: split it into sessions and score the cuts against its session column")
	flag.StringVar(&o.service, "service", "Svc1", "service profile to train on (Svc1|Svc2|Svc3)")
	flag.StringVar(&o.metric, "metric", "combined", "QoE metric: rebuffer|quality|combined")
	flag.IntVar(&o.trainN, "train-sessions", 600, "simulated training sessions")
	flag.Int64Var(&o.seed, "seed", 42, "training seed")
	flag.IntVar(&o.trees, "trees", 100, "random-forest size")
	flag.StringVar(&o.save, "save", "", "write the trained model to this file")
	flag.StringVar(&o.model, "model", "", "load a saved model instead of training")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
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

func run(w io.Writer, o options) error {
	if (o.txns == "") == (o.squid == "") {
		return fmt.Errorf("exactly one of -txns or -squid is required")
	}
	if o.score && o.squid != "" {
		return fmt.Errorf("-score reads a -txns stream; a Squid log has no true sessions to score against")
	}
	if o.save != "" && o.model != "" {
		return fmt.Errorf("-save writes a trained model; it cannot be combined with -model")
	}
	metric, err := parseMetric(o.metric)
	if err != nil {
		return err
	}
	ids, sessions, truth, err := readInput(o)
	if err != nil {
		return err
	}
	est, err := estimator(o, metric)
	if err != nil {
		return err
	}
	verdicts, err := est.ClassifySessions(sessions)
	if err != nil {
		return err
	}

	// A labelled CSV session's line has no index, times or count.
	labelled := o.txns != "" && !o.score
	names := core.ClassNames(est.Metric())
	if labelled {
		fmt.Fprintf(w, "%-24s %-8s %s\n", "session", "class", "probabilities")
	} else {
		fmt.Fprintf(w, "%-24s %7s %10s %10s %6s %-8s %s\n", "client", "session", "start", "end", "txns", "class", "probabilities")
	}
	for k, s := range sessions {
		v := verdicts[k]
		if labelled {
			fmt.Fprintf(w, "%-24s %-8s", ids[k], names[v.Class])
		} else {
			fmt.Fprintf(w, "%-24s %7d %10.2f %10.2f %6d %-8s", ids[k], s.Index, s.Start, s.End, len(s.Txns), names[v.Class])
		}
		for c, p := range v.Probs {
			fmt.Fprintf(w, " %s=%.2f", names[c], p)
		}
		fmt.Fprintln(w)
	}

	if o.score {
		stream := sessionid.Truth(truth)
		fmt.Fprintln(w, sessionid.Evaluate(stream, sessionid.PaperParams).Format(sessionid.ClassNames))
		correct, total := sessionid.SessionsRecovered(stream, sessionid.PaperParams)
		fmt.Fprintf(w, "session starts recovered: %d/%d\n", correct, total)
	}
	return nil
}

// readInput reads the sessions run classifies, each with the id its
// line prints: the CSV session, the client, or under -score the
// stream's file name, with the CSV's session groups as truth.
func readInput(o options) (ids []string, sessions []sessionid.Session, truth [][]capture.TLSTransaction, err error) {
	if o.squid != "" {
		f, err := os.Open(o.squid)
		if err != nil {
			return nil, nil, nil, err
		}
		entries, err := squidlog.Parse(f)
		f.Close()
		if err != nil {
			return nil, nil, nil, err
		}
		byClient := squidlog.GroupByClient(entries)
		clients := make([]string, 0, len(byClient))
		for client := range byClient {
			clients = append(clients, client)
		}
		slices.Sort(clients)
		for _, client := range clients {
			for _, s := range sessionid.Split(byClient[client], sessionid.PaperParams) {
				ids, sessions = append(ids, client), append(sessions, s)
			}
		}
		return ids, sessions, nil, nil
	}

	f, err := os.Open(o.txns)
	if err != nil {
		return nil, nil, nil, err
	}
	groups, order, err := dataset.ReadTransactionsCSV(f)
	f.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	if !o.score {
		for _, id := range order {
			sessions = append(sessions, sessionid.Session{Txns: sessionid.Sorted(groups[id])})
		}
		return order, sessions, nil, nil
	}
	var stream []capture.TLSTransaction
	for _, id := range order {
		truth = append(truth, groups[id])
		stream = append(stream, groups[id]...)
	}
	for _, s := range sessionid.Split(stream, sessionid.PaperParams) {
		ids, sessions = append(ids, filepath.Base(o.txns)), append(sessions, s)
	}
	return ids, sessions, truth, nil
}

// estimator loads -model, or trains on a simulated corpus and writes
// -save.
func estimator(o options, metric qoe.MetricKind) (*core.Estimator, error) {
	if o.model != "" {
		mf, err := os.Open(o.model)
		if err != nil {
			return nil, err
		}
		est, err := core.LoadEstimator(mf)
		mf.Close()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "loaded model from %s (metric: %s)\n", o.model, est.Metric())
		return est, nil
	}
	profile, err := has.Profile(o.service)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "training on %d simulated %s sessions...\n", o.trainN, o.service)
	corpus, err := dataset.Build(dataset.Config{Seed: o.seed, Sessions: o.trainN}, profile)
	if err != nil {
		return nil, err
	}
	var training []core.TrainingSession
	for _, r := range corpus.Records {
		training = append(training, core.TrainingSession{TLS: r.Capture.TLS, QoE: r.QoE})
	}
	est := core.NewEstimator(core.Config{
		Metric: metric,
		Forest: forest.Config{NumTrees: o.trees, MinLeaf: 2, Seed: o.seed},
	})
	if err := est.Train(training); err != nil {
		return nil, err
	}
	if o.save != "" {
		sf, err := os.Create(o.save)
		if err != nil {
			return nil, err
		}
		if err := est.Save(sf); err != nil {
			sf.Close()
			return nil, err
		}
		if err := sf.Close(); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "saved model to %s (with training baseline for drift gauges)\n", o.save)
	}
	return est, nil
}
