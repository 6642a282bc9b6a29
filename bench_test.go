package droppackets_test

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§4), plus the ablation benches DESIGN.md calls
// out and micro-benchmarks of the hot paths. Experiment benches report
// their headline numbers (accuracy/recall/ratios) as custom metrics so
// `go test -bench=. -benchmem` doubles as a results table.
//
// Benchmarks run at reduced scale (300 sessions/service, 40 trees) so a
// full sweep completes in minutes; cmd/qoebench regenerates everything
// at the paper's full corpus sizes.

import (
	"sync"
	"testing"

	"droppackets/internal/dataset"
	"droppackets/internal/experiments"
	"droppackets/internal/features"
	"droppackets/internal/has"
	"droppackets/internal/ml"
	"droppackets/internal/ml/eval"
	"droppackets/internal/ml/forest"
	"droppackets/internal/ml/tree"
	"droppackets/internal/qoe"
	"droppackets/internal/sessionid"
	"droppackets/internal/stats"
	"droppackets/internal/tlsproxy"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

// benchSuite returns a shared suite so corpora are built once per
// `go test -bench` process.
func benchSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(experiments.Config{Seed: 42, Sessions: 300, Folds: 5, Trees: 40})
	})
	return suite
}

func BenchmarkFig2TransactionGranularity(b *testing.B) {
	s := benchSuite()
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r, err := s.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.MeanHTTPPerTLS, "http-per-tls")
}

func BenchmarkFig3TraceStats(b *testing.B) {
	s := benchSuite()
	var median float64
	for i := 0; i < b.N; i++ {
		r, err := s.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		median = r.CDFPctiles[50]
	}
	b.ReportMetric(median, "median-kbps")
}

func BenchmarkFig4QoEDistribution(b *testing.B) {
	s := benchSuite()
	var lowShare float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Service == "Svc1" && r.Metric == qoe.MetricCombined {
				lowShare = r.Shares[0]
			}
		}
	}
	b.ReportMetric(lowShare*100, "svc1-low-pct")
}

func BenchmarkFig5AccuracyByMetric(b *testing.B) {
	s := benchSuite()
	var acc, rec float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Service == "Svc1" && r.Metric == qoe.MetricCombined {
				acc, rec = r.Metrics.Accuracy, r.Metrics.Recall
			}
		}
	}
	b.ReportMetric(acc*100, "svc1-combined-acc-pct")
	b.ReportMetric(rec*100, "svc1-combined-recall-pct")
}

func BenchmarkTable2ConfusionMatrix(b *testing.B) {
	s := benchSuite()
	var lowRecall float64
	for i := 0; i < b.N; i++ {
		r, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		lowRecall = r.Confusion.Recall(0)
	}
	b.ReportMetric(lowRecall*100, "low-recall-pct")
}

func BenchmarkTable3FeatureAblation(b *testing.B) {
	s := benchSuite()
	var slAcc, fullAcc float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Service != "Svc1" {
				continue
			}
			switch r.Subset {
			case features.SessionLevelOnly:
				slAcc = r.Metrics.Accuracy
			case features.AllFeatures:
				fullAcc = r.Metrics.Accuracy
			}
		}
	}
	b.ReportMetric(slAcc*100, "svc1-sl-acc-pct")
	b.ReportMetric(fullAcc*100, "svc1-full-acc-pct")
}

func BenchmarkFig6FeatureImportance(b *testing.B) {
	s := benchSuite()
	var topImp float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		topImp = rows[0].Top[0].Importance
	}
	b.ReportMetric(topImp, "svc1-top-importance")
}

func BenchmarkFig7MatchedSessions(b *testing.B) {
	s := benchSuite()
	var gap float64
	for i := 0; i < b.N; i++ {
		// Reduced corpora are sparse in the paper's exact bands; widen.
		panels, err := s.Fig7(4)
		if err != nil {
			b.Fatal(err)
		}
		p := panels[0]
		// Compare the best populated class against low: reduced corpora
		// often have no high-QoE sessions in the matched band.
		best := p.Boxes[2]
		if best.N == 0 {
			best = p.Boxes[1]
		}
		gap = best.Median - p.Boxes[0].Median
	}
	b.ReportMetric(gap/1e6, "cumdl60-median-gap-mb")
}

func BenchmarkTable4PacketVsTLS(b *testing.B) {
	s := benchSuite()
	var gain, recRatio, timeRatio float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		gain = (r.Packet.Accuracy - r.TLS.Accuracy) * 100
		recRatio = r.RecordRatio()
		timeRatio = r.TimeRatio()
	}
	b.ReportMetric(gain, "svc1-packet-gain-pct")
	b.ReportMetric(recRatio, "record-ratio")
	b.ReportMetric(timeRatio, "time-ratio")
}

func BenchmarkTable5SessionID(b *testing.B) {
	s := benchSuite()
	var recovered float64
	for i := 0; i < b.N; i++ {
		r, err := s.Table5()
		if err != nil {
			b.Fatal(err)
		}
		recovered = float64(r.SessionsCorrect) / float64(r.SessionsTotal)
	}
	b.ReportMetric(recovered*100, "recovered-pct")
}

func BenchmarkAblationTemporalGrid(b *testing.B) {
	s := benchSuite()
	var noneAcc, paperAcc float64
	for i := 0; i < b.N; i++ {
		rows, err := s.AblationTemporalGrid()
		if err != nil {
			b.Fatal(err)
		}
		noneAcc = rows[0].Metrics.Accuracy
		for _, r := range rows {
			if r.Label == "paper-8" {
				paperAcc = r.Metrics.Accuracy
			}
		}
	}
	b.ReportMetric(noneAcc*100, "no-temporal-acc-pct")
	b.ReportMetric(paperAcc*100, "paper-grid-acc-pct")
}

func BenchmarkAblationForestSize(b *testing.B) {
	s := benchSuite()
	var small, large float64
	for i := 0; i < b.N; i++ {
		rows, err := s.AblationForestSize()
		if err != nil {
			b.Fatal(err)
		}
		small = rows[0].Metrics.Accuracy
		large = rows[3].Metrics.Accuracy
	}
	b.ReportMetric(small*100, "trees5-acc-pct")
	b.ReportMetric(large*100, "trees200-acc-pct")
}

func BenchmarkAblationModelFamily(b *testing.B) {
	s := benchSuite()
	var rf, knnAcc float64
	for i := 0; i < b.N; i++ {
		rows, err := s.AblationModelFamily()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Model {
			case "random-forest":
				rf = r.Metrics.Accuracy
			case "knn":
				knnAcc = r.Metrics.Accuracy
			}
		}
	}
	b.ReportMetric(rf*100, "forest-acc-pct")
	b.ReportMetric(knnAcc*100, "knn-acc-pct")
}

func BenchmarkAblationSessionIDThresholds(b *testing.B) {
	s := benchSuite()
	var best float64
	for i := 0; i < b.N; i++ {
		rows, err := s.AblationSessionIDThresholds()
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, r := range rows {
			if r.RecoveredFrac > best {
				best = r.RecoveredFrac
			}
		}
	}
	b.ReportMetric(best*100, "best-recovered-pct")
}

func BenchmarkAblationConnReuse(b *testing.B) {
	s := benchSuite()
	var shortFactor, longFactor float64
	for i := 0; i < b.N; i++ {
		rows, err := s.AblationConnReuse()
		if err != nil {
			b.Fatal(err)
		}
		shortFactor = rows[0].HTTPPerTLS
		longFactor = rows[len(rows)-1].HTTPPerTLS
	}
	b.ReportMetric(shortFactor, "idle4s-http-per-tls")
	b.ReportMetric(longFactor, "idle90s-http-per-tls")
}

// --- Micro-benchmarks of the hot paths ---

// benchCorpus builds one small corpus with packet detail for the micro
// benches.
var (
	microOnce   sync.Once
	microCorpus *dataset.Corpus
)

func microData(b *testing.B) *dataset.Corpus {
	microOnce.Do(func() {
		c, err := dataset.Build(dataset.Config{Seed: 9, Sessions: 60, KeepPacketDetail: true}, has.Svc1())
		if err != nil {
			b.Fatal(err)
		}
		microCorpus = c
	})
	return microCorpus
}

func BenchmarkFeatureExtractTLS(b *testing.B) {
	c := microData(b)
	txns := c.Records[0].Capture.TLS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.FromTLS(txns)
	}
}

func BenchmarkFeatureExtractPackets(b *testing.B) {
	c := microData(b)
	pkts, err := c.Records[0].Capture.Packetize(stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(pkts)), "packets")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		features.FromPackets(pkts)
	}
}

func BenchmarkPacketize(b *testing.B) {
	c := microData(b)
	sc := c.Records[0].Capture
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Packetize(stats.SplitRNG(1, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateSession(b *testing.B) {
	p := has.Svc1()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.GenerateSession(dataset.Config{Seed: 7}, p, i%50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestTrain(b *testing.B) {
	c := microData(b)
	ds, err := c.MLDataset(qoe.MetricCombined)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := forest.New(forest.Config{NumTrees: 20, MinLeaf: 2, Seed: int64(i)})
		if err := f.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeFit isolates the presorted-column growth engine: one
// CART tree per iteration, reusing a Scratch like a forest worker does.
func BenchmarkTreeFit(b *testing.B) {
	c := microData(b)
	ds, err := c.MLDataset(qoe.MetricCombined)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int, ds.Len())
	for i := range rows {
		rows[i] = i
	}
	ds.SortedColumns()
	scratch := tree.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := &tree.Classifier{Config: tree.Config{MinLeaf: 2, MaxFeatures: 7}, Seed: int64(i)}
		if err := t.FitRowsWith(ds, rows, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	c := microData(b)
	ds, err := c.MLDataset(qoe.MetricCombined)
	if err != nil {
		b.Fatal(err)
	}
	f := forest.New(forest.Config{NumTrees: 50, MinLeaf: 2, Seed: 1})
	if err := f.Fit(ds); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(ds.X[i%ds.Len()])
	}
}

// BenchmarkCrossValidate times the paper's full 5-fold protocol on the
// micro corpus: fold-parallel training plus batch held-out scoring.
func BenchmarkCrossValidate(b *testing.B) {
	c := microData(b)
	ds, err := c.MLDataset(qoe.MetricCombined)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := eval.CrossValidate(func() ml.Classifier {
			return forest.New(forest.Config{NumTrees: 20, MinLeaf: 2, Seed: 1})
		}, ds, 5, int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientHelloParse(b *testing.B) {
	raw, err := tlsproxy.BuildClientHello("cdn-01.svc1.example", [32]byte{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tlsproxy.ParseClientHello(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionIDDetect(b *testing.B) {
	c := microData(b)
	stream, _ := sessionid.Concat(dataset.Chain(c.Records))
	b.ReportMetric(float64(len(stream)), "transactions")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sessionid.Detect(stream, sessionid.PaperParams)
	}
}

// --- Extension benches (the paper's future-work agenda) ---

func BenchmarkExtensionFlowComparison(b *testing.B) {
	s := benchSuite()
	var tlsAcc, nfAcc float64
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtensionFlowComparison()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.View {
			case "tls-transactions":
				tlsAcc = r.Metrics.Accuracy
			case "netflow-60s":
				nfAcc = r.Metrics.Accuracy
			}
		}
	}
	b.ReportMetric(tlsAcc*100, "tls-acc-pct")
	b.ReportMetric(nfAcc*100, "netflow60-acc-pct")
}

func BenchmarkExtensionUserInteractions(b *testing.B) {
	s := benchSuite()
	var clean, shifted float64
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtensionUserInteractions()
		if err != nil {
			b.Fatal(err)
		}
		clean = rows[0].Metrics.Accuracy
		shifted = rows[1].Metrics.Accuracy
	}
	b.ReportMetric(clean*100, "clean-acc-pct")
	b.ReportMetric(shifted*100, "interactive-acc-pct")
}

func BenchmarkExtensionCrossService(b *testing.B) {
	s := benchSuite()
	var within, across float64
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtensionCrossService()
		if err != nil {
			b.Fatal(err)
		}
		var wSum, aSum float64
		var wN, aN int
		for _, r := range rows {
			if r.TrainOn == r.TestOn {
				wSum += r.Metrics.Accuracy
				wN++
			} else {
				aSum += r.Metrics.Accuracy
				aN++
			}
		}
		within, across = wSum/float64(wN), aSum/float64(aN)
	}
	b.ReportMetric(within*100, "within-service-acc-pct")
	b.ReportMetric(across*100, "cross-service-acc-pct")
}

func BenchmarkExtensionEarlyDetection(b *testing.B) {
	s := benchSuite()
	var early, full float64
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtensionEarlyDetection()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.HorizonSec == 60 {
				early = r.Completed.Accuracy
			}
			if r.HorizonSec == 0 {
				full = r.Completed.Accuracy
			}
		}
	}
	b.ReportMetric(early*100, "by60s-acc-pct")
	b.ReportMetric(full*100, "full-acc-pct")
}

func BenchmarkExtensionCrossNetwork(b *testing.B) {
	s := benchSuite()
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtensionCrossNetwork()
		if err != nil {
			b.Fatal(err)
		}
		worst = 1
		for _, r := range rows {
			if r.Metrics.Accuracy < worst {
				worst = r.Metrics.Accuracy
			}
		}
	}
	b.ReportMetric(worst*100, "worst-transfer-acc-pct")
}

func BenchmarkAblationABRDesign(b *testing.B) {
	s := benchSuite()
	var bba float64
	for i := 0; i < b.N; i++ {
		rows, err := s.AblationABRDesign()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ABR == "bba" {
				bba = r.Metrics.Accuracy
			}
		}
	}
	b.ReportMetric(bba*100, "bba-acc-pct")
}
