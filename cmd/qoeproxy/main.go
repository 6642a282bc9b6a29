// Command qoeproxy runs the SNI-sniffing transparent proxy as a
// long-running inference service: it relays TLS connections to their
// backends, exports one transaction record per connection (CSV and/or
// Squid-format log), delimits each client's sessions online with the
// streaming sessionizer, and — when given a trained model — classifies
// every client's current session periodically during operation, not
// only at shutdown. /metrics serves Prometheus text format, /healthz a
// JSON liveness summary; logs are JSON lines on stderr.
//
//	qoeproxy -listen 127.0.0.1:8443 -upstream 127.0.0.1:9443 -model model.json
//	qoeproxy -source squid|pcap|netflow|replay -input FILE -model model.json
//
// docs/OPERATIONS.md is the runbook and documents every flag (-h lists
// them). Telemetry arrives through one internal/ingest TransactionSource
// selected with -source: the live proxy (default), a tailed Squid
// access log, a pcap trace, a client-attributed NetFlow CSV or a replay
// workload CSV, delivered as fast as the ingest path accepts it.
// Everything downstream of the callbacks is source-agnostic and
// byte-identical for equivalent inputs (docs/INGEST.md). The replay
// source is how the benchmark ledger and scripts/smoke drive thousands
// of simulated clients through the real serving loop.
//
// Per-client state lives in internal/serve: a serve.Shards holds
// -shards lock shards, so concurrent connections ingest in parallel,
// and the classify tick fans the shards out on a worker pool, scoring
// each shard's changed clients in one row-major block outside its
// lock. Memory is bounded: idle clients are evicted after -client-ttl
// (their final classification is emitted first) and retained
// transactions are capped at -max-session-txns. Sink lines go to each
// sink's pending ~64 KiB chunk under its mutex (sink.go).
//
// SIGHUP or POST /admin/reload (loopback only) swaps in a re-read
// -model (and -shadow-model) atomically; a corrupt file leaves the
// previous model serving. -shadow-model scores a challenger over the
// same rows into counters only, and a model saved with a training
// baseline exports per-feature drift. -cluster-config/-instance-id make
// the daemon one member of a consistent-hash fleet that covers every
// client exactly once; -snapshot/-restore carry the serving state
// across a restart or a hand-off (snapshot.go). SIGINT/SIGTERM stops
// the source, drains open relays, flushes the sessionizers and prints
// per-client QoE estimates.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"droppackets/internal/bytesconv"
	"droppackets/internal/capture"
	"droppackets/internal/cluster"
	"droppackets/internal/core"
	"droppackets/internal/ingest"
	"droppackets/internal/metrics"
	"droppackets/internal/qoe"
	"droppackets/internal/serve"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

func main() {
	var opts options
	registerFlags(flag.CommandLine, &opts)
	flag.Parse()
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "qoeproxy:", err)
		os.Exit(1)
	}
}

// registerFlags declares the daemon's whole command line on fs. The flag
// table in docs/OPERATIONS.md is checked against it, name by name and
// default by default (TestFlagsMatchOperationsDoc).
func registerFlags(fs *flag.FlagSet, opts *options) {
	fs.StringVar(&opts.listen, "listen", "127.0.0.1:8443", "address to listen on")
	fs.StringVar(&opts.upstream, "upstream", "", "default backend address (required unless every SNI is mapped)")
	fs.StringVar(&opts.resolve, "resolve", "", "file of 'sni backend:port' mappings")
	fs.StringVar(&opts.outPath, "out", "", "append transaction CSV records to this file")
	fs.StringVar(&opts.squidPath, "squid-log", "", "append Squid-format log lines to this file")
	fs.StringVar(&opts.modelPath, "model", "", "saved model (cmd/qoeinfer -save) for online and shutdown classification")
	fs.StringVar(&opts.shadowPath, "shadow-model", "", "challenger model scored over the same rows as -model; disagreements are counted, output is untouched")
	fs.StringVar(&opts.metricsAddr, "metrics", "127.0.0.1:9090", "address for /metrics and /healthz (empty disables)")
	fs.DurationVar(&opts.classifyEvery, "classify-every", 30*time.Second, "interval between online classification passes (0 disables)")
	fs.DurationVar(&opts.window, "window", 4*time.Minute, "sliding window of transactions classified per pass (0 = no cutoff: the whole current session)")
	fs.DurationVar(&opts.clientTTL, "client-ttl", time.Hour, "evict a client's state after this much idle time, emitting its final classification (0 disables; swept on the classify tick and, for file sources, every TTL/8 of record time)")
	fs.IntVar(&opts.maxSessionTxns, "max-session-txns", 4096, "most transactions retained per client session and summary buffer; oldest are dropped beyond it (0 = unbounded)")
	fs.IntVar(&opts.shards, "shards", 0, "lock shards for per-client state; ingest for clients on different shards never contends (0 = GOMAXPROCS)")
	fs.StringVar(&opts.source, "source", "proxy", "primary telemetry source: proxy|squid|pcap|netflow|replay (docs/INGEST.md)")
	fs.StringVar(&opts.input, "input", "", "input file for a non-proxy -source: Squid access log, pcap trace, flow CSV or workload CSV")
	fs.IntVar(&opts.ingestWorkers, "ingest-workers", 1, "delivery goroutines for batch file sources (clients hash-partitioned; per-client order preserved)")
	fs.Float64Var(&opts.ingestEpoch, "ingest-epoch", -1, "Unix time mapped to offset 0 for squid/pcap sources (-1 = first event's time)")
	fs.DurationVar(&opts.ingestHorizon, "ingest-horizon", 5*time.Minute, "reordering slack for -source=squid: entries are released once the log's end-time watermark is this far past them")
	fs.BoolVar(&opts.follow, "follow", true, "for -source=squid: keep tailing the log across rotation/truncation (false stops at EOF)")
	fs.StringVar(&opts.clusterConfig, "cluster-config", "", "cluster membership file (internal/cluster JSON); this instance serves only the clients the ring assigns it")
	fs.StringVar(&opts.instanceID, "instance-id", "", "this daemon's id in -cluster-config (required with it)")
	fs.StringVar(&opts.snapshotPath, "snapshot", "", "write the serving state here on shutdown (and on POST /admin/snapshot) instead of printing the shutdown summary")
	fs.StringVar(&opts.restorePath, "restore", "", "restore serving state from this snapshot at startup (missing/corrupt files log and start cold)")
	fs.BoolVar(&opts.verbose, "v", false, "log per-transaction detail (debug level)")
}

// options collects every flag so tests can drive run directly.
// classifyBatch has no flag: it is an in-process seam for the invariance
// suites, which sweep inference block sizes down to 1 (one row per
// inference call); <= 0 selects the serving default of 256.
type options struct {
	listen, upstream, resolve     string
	outPath, squidPath, modelPath string
	shadowPath                    string
	metricsAddr                   string
	classifyEvery, window         time.Duration
	clientTTL                     time.Duration
	maxSessionTxns                int
	shards                        int
	classifyBatch                 int
	source, input                 string
	ingestWorkers                 int
	ingestEpoch                   float64
	ingestHorizon                 time.Duration
	follow                        bool
	clusterConfig, instanceID     string
	snapshotPath, restorePath     string
	verbose                       bool
}

// loadResolver builds the SNI->backend mapping.
func loadResolver(path, fallback string) (tlsproxy.Resolver, error) {
	table := map[string]string{}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) != 2 {
				return nil, fmt.Errorf("resolve map line %d: want 'sni backend'", line)
			}
			table[fields[0]] = fields[1]
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	if fallback == "" && len(table) == 0 {
		return nil, fmt.Errorf("need -upstream or a non-empty -resolve map")
	}
	return func(sni string) (string, error) {
		if addr, ok := table[sni]; ok {
			return addr, nil
		}
		if fallback == "" {
			return "", fmt.Errorf("no backend for SNI %q", sni)
		}
		return fallback, nil
	}, nil
}

// openAppend opens path for appending, creating it if absent, and
// reports whether it was empty (so headers are written exactly once).
func openAppend(path string) (f *os.File, wasEmpty bool, err error) {
	f, err = os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, false, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, false, err
	}
	return f, st.Size() == 0, nil
}

// service is the running daemon: proxy plus sessionizers, estimator,
// metrics and log sinks. Per-client state lives in serve.Shards, so
// concurrent connections only contend when their clients hash
// together; everything outside the shards is either immutable after
// startup, atomic, guarded by its own mutex (each sink's pending chunk)
// or owned by a single goroutine (the classify tick).
type service struct {
	opts options
	log  *slog.Logger
	// model is the serving bundle: the serve.Model plus the class names
	// and cached counter handles derived from it. Swapped whole on
	// reload; every consumer Loads it exactly once per pass, so a sweep
	// never mixes two models. Nil when no -model is configured.
	model atomic.Pointer[servingModel]
	// reloadMu serializes reloads (SIGHUP racing /admin/reload); the
	// serving path never takes it.
	reloadMu sync.Mutex
	epoch    time.Time
	// watermark is the latest record event time delivered into the
	// ingest path, in epoch seconds (float bits, CAS-max). For file and
	// replay sources it is the sweep clock: record timestamps are
	// logical, so comparing them against the wall clock would evict
	// clients mid-session or never, depending on the ingest pace.
	watermark atomic.Uint64
	// logicalClock selects the watermark (true: file/replay sources)
	// over wall time (false: live proxy) as the sweep clock.
	logicalClock bool
	// wake tells serveLoop that the ingest path has due work for it: a
	// shard holding a full block of clients waiting for a first verdict,
	// or a record-clock sweep. Nil when neither can happen.
	wake chan struct{}
	// sweepDue is the sweep clock (float bits) at which the next
	// record-clock sweep falls due: -Inf before the first sweep, so the
	// first committed record asks for one, then the last sweep's clock
	// plus TTL/recordSweepsPerTTL. It stays +Inf where the record clock
	// sweeps nothing: the live proxy, and without -client-ttl or a
	// classify tick.
	sweepDue atomic.Uint64
	// lastRotate is when (sweep clock) the intern tables last rotated;
	// tick goroutine only.
	lastRotate float64
	// debugLog caches whether the logger emits debug records, so the
	// ingest hot path skips building per-transaction attribute lists
	// that a production (info-level) daemon would throw away.
	debugLog bool
	// batchPool recycles the scratch (line buffer, commit list) of
	// onTransactionBatch calls across goroutines.
	batchPool sync.Pool
	// proxy is the live relay, set only for -source proxy; file sources
	// relay nothing and register none of its series.
	proxy *tlsproxy.Proxy
	// src is the primary TransactionSource feeding the ingest path;
	// its Stats back the qoeproxy_ingest_source_* series. Nil in tests
	// that drive callbacks directly.
	src ingest.TransactionSource
	reg *metrics.Registry

	// ring is the fleet's consistent-hash client assignment and
	// instanceID this daemon's member id; both nil/empty for a
	// standalone daemon. Immutable after run() wires them, so the ingest
	// hot path reads them without synchronization.
	ring       *cluster.Ring
	instanceID string

	// shards hold every client's serving state. Immutable after
	// newService.
	shards *serve.Shards

	// byClass counts resident clients by current verdict, moved where a
	// class is stored, restored or evicted — never by walking the
	// clients — behind qoeproxy_sessions_by_class.
	byClass [qoe.NumCategories]atomic.Int64

	// cLines holds a pass's changes, reused across passes.
	cLines []serve.Change

	mTxns          *metrics.Counter
	mBoundaries    *metrics.Counter
	mRuns          *metrics.Counter
	mBlockPasses   *metrics.Counter
	mClassErrors   *metrics.Counter
	mPred          *metrics.CounterVec
	mReloadOK      *metrics.LabeledCounter
	mReloadError   *metrics.LabeledCounter
	mReloadNoop    *metrics.LabeledCounter
	mShadowDis     *metrics.Counter
	mShadowConf    *metrics.CounterVec2
	mInfer         *metrics.Histogram
	mExtract       *metrics.Histogram
	mShardClassify *metrics.Histogram
	mTruncated     *metrics.Counter
	mSinkFailures  *metrics.Counter
	mEvicted       *metrics.Counter
	mSkipped       *metrics.Counter

	out   *sink
	squid *sink
	sinks sinkWriter
}

// recordSweepsPerTTL is how many eviction sweeps a file source gets per
// -client-ttl of record time, whatever its ingest speed. A client idle
// for the TTL is then evicted within TTL/8 more of record time, so the
// resident set holds about 1.125 TTL of arrivals.
const recordSweepsPerTTL = 8

// newService assembles the daemon state around the given options. The
// caller attaches the source, calls registerMetrics and stores the
// first serving bundle (buildModel) before serving traffic.
func newService(opts options, logger *slog.Logger) *service {
	s := &service{
		opts:     opts,
		log:      logger,
		epoch:    time.Now(),
		debugLog: logger.Enabled(context.Background(), slog.LevelDebug),
	}
	s.batchPool.New = func() any { return &batchScratch{} }
	s.logicalClock = opts.source != "" && opts.source != "proxy"
	// A block pass needs a model, and the classify tick to score the
	// partial blocks it leaves; without either, nothing is queued for one.
	blockPasses := opts.modelPath != "" && opts.classifyEvery > 0
	recordSweeps := s.logicalClock && opts.classifyEvery > 0 && opts.clientTTL > 0
	s.sweepDue.Store(math.Float64bits(math.Inf(1)))
	if recordSweeps {
		s.sweepDue.Store(math.Float64bits(math.Inf(-1)))
	}
	if blockPasses || recordSweeps {
		s.wake = make(chan struct{}, 1)
	}
	// The hooks read the counters at call time: registerMetrics creates
	// them after the shards.
	hooks := serve.Hooks{
		Boundary: func(client string, boundaries int64, closedTxns int) {
			s.mBoundaries.Inc()
			if s.debugLog {
				s.log.Debug("session boundary", "client", client, "boundaries", boundaries,
					"closed_session_txns", closedTxns)
			}
		},
		Truncated: func() { s.mTruncated.Inc() },
	}
	s.shards = serve.NewShards(opts.shards, opts.maxSessionTxns, opts.classifyBatch, blockPasses, hooks)
	return s
}

// servingModel is a serve.Model with what the daemon derives from it,
// so a reload swaps all of it atomically: a pass that Loaded the old
// bundle finishes on the old estimator, names and counters; the next
// pass sees the new ones.
type servingModel struct {
	*serve.Model
	names []string // class display names
	// predClass caches the per-class prediction-counter handles, aligned
	// with names, and confusion the challenger's confusion-cell handles,
	// primary-major (cell [p*nc+c]; nil without a challenger). The
	// underlying vec children outlive reloads, so counts keep
	// accumulating across models with the same metric.
	predClass, confusion []*metrics.LabeledCounter
	// loadedAt stamps the swap for qoeproxy_model_loaded_timestamp_seconds.
	loadedAt time.Time
}

// bundle is the serve.Model of m, nil for none.
func (m *servingModel) bundle() *serve.Model {
	if m == nil {
		return nil
	}
	return m.Model
}

// loadModel reads -model and -shadow-model and builds their serve.Model,
// which checks that the challenger can score the primary's rows; nil
// without -model.
func (s *service) loadModel() (*serve.Model, error) {
	if s.opts.modelPath == "" {
		if s.opts.shadowPath != "" {
			return nil, fmt.Errorf("-shadow-model needs -model")
		}
		return nil, nil
	}
	est, err := loadEstimatorFile(s.opts.modelPath)
	if err != nil {
		return nil, err
	}
	var shadow *core.Estimator
	if s.opts.shadowPath != "" {
		if shadow, err = loadEstimatorFile(s.opts.shadowPath); err != nil {
			return nil, fmt.Errorf("-shadow-model: %w", err)
		}
	}
	m, err := s.shards.NewModel(est, shadow)
	if err != nil {
		return nil, fmt.Errorf("-shadow-model: %w", err)
	}
	return m, nil
}

// buildModel wraps m in a serving bundle (nil for nil m), once
// registerMetrics has registered the vec families its counter handles
// come from.
func (s *service) buildModel(m *serve.Model) *servingModel {
	if m == nil {
		return nil
	}
	sm := &servingModel{Model: m, names: core.ClassNames(m.Primary().Metric()), loadedAt: time.Now()}
	for _, n := range sm.names {
		sm.predClass = append(sm.predClass, s.mPred.WithLabel(n))
	}
	if m.Shadow() != nil {
		for _, p := range sm.names {
			for _, c := range sm.names {
				sm.confusion = append(sm.confusion, s.mShadowConf.WithLabels(p, c))
			}
		}
	}
	return sm
}

// loadEstimatorFile opens and loads one saved model file.
func loadEstimatorFile(path string) (*core.Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadEstimator(f)
}

// reloadModel re-reads -model (and -shadow-model) from disk and swaps
// the serving bundle. Any failure — unreadable file, corrupt model,
// incompatible shadow — leaves the previous bundle serving untouched.
// With no -model configured the request is a safe no-op, so a habitual
// `kill -HUP` on a record-only daemon does nothing. Returns the result
// label recorded in qoeproxy_model_reloads_total.
func (s *service) reloadModel() (string, error) {
	if s.opts.modelPath == "" {
		s.mReloadNoop.Inc()
		s.log.Info("model reload requested with no -model configured; nothing to do")
		return "noop", nil
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	m, err := s.loadModel()
	if err != nil {
		s.mReloadError.Inc()
		s.log.Error("model reload failed; previous model still serving",
			"model", s.opts.modelPath, "err", err)
		return "error", err
	}
	s.model.Store(s.buildModel(m))
	s.mReloadOK.Inc()
	s.log.Info("model reloaded", "model", s.opts.modelPath,
		"shadow", s.opts.shadowPath, "features", m.Primary().NumFeatures(),
		"drift_baseline", m.Drift() != nil)
	return "ok", nil
}

// noteEventTime advances the ingest watermark (CAS-max on float bits)
// to a record's event time in epoch seconds.
func (s *service) noteEventTime(t float64) {
	for {
		old := s.watermark.Load()
		if math.Float64frombits(old) >= t {
			return
		}
		if s.watermark.CompareAndSwap(old, math.Float64bits(t)) {
			return
		}
	}
}

// sweepNow converts a tick's wall time to the sweep clock in epoch
// seconds: the ingest watermark for file and replay sources (whose
// record timestamps are logical, so the -window cutoff and -client-ttl
// comparisons must use the records' own timescale), wall time for the
// live proxy.
func (s *service) sweepNow(now time.Time) float64 {
	if s.logicalClock {
		return math.Float64frombits(s.watermark.Load())
	}
	return now.Sub(s.epoch).Seconds()
}

// run wires the service together and blocks until SIGINT/SIGTERM or a
// listener error.
func run(opts options) error {
	// Signals are registered before anything else: one that lands while
	// the model loads or the listeners bind waits in the channel and
	// serveLoop handles it as a normal shutdown, where the default
	// disposition would kill the process mid-start-up. SIGHUP is
	// registered alongside the shutdown signals: unregistered it would
	// kill the daemon on a conventional `kill -HUP` log-rotation sweep;
	// registered it triggers a model reload (a no-op when -model is
	// unset). Capacity 2: a reload and a shutdown may both arrive before
	// serveLoop starts receiving.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sig)

	level := slog.LevelInfo
	if opts.verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	source := opts.source
	if source == "" {
		source = "proxy"
	}
	switch source {
	case "proxy", "squid", "pcap", "netflow", "replay":
	default:
		return fmt.Errorf("-source %q: want proxy, squid, pcap, netflow or replay", source)
	}
	if source != "proxy" && opts.input == "" {
		return fmt.Errorf("-source %s needs -input", source)
	}
	if math.IsNaN(opts.ingestEpoch) || math.IsInf(opts.ingestEpoch, 0) {
		return fmt.Errorf("-ingest-epoch %v: want a finite Unix time, or negative for the first event's", opts.ingestEpoch)
	}
	if (opts.clusterConfig == "") != (opts.instanceID == "") {
		return fmt.Errorf("-cluster-config and -instance-id must be given together")
	}
	var ring *cluster.Ring
	if opts.clusterConfig != "" {
		cfg, err := cluster.LoadConfigFile(opts.clusterConfig)
		if err != nil {
			return err
		}
		if ring, err = cluster.New(cfg); err != nil {
			return err
		}
		if !ring.Has(opts.instanceID) {
			return fmt.Errorf("-instance-id %q is not a member of %s", opts.instanceID, opts.clusterConfig)
		}
	}

	// Validate every output path and the model BEFORE binding the
	// listener: a daemon that accepts traffic and then dies on a bad
	// -out path would leave clients mid-relay and files half-written.
	s := newService(opts, logger)
	defer s.stopSinkWriter()
	model, err := s.loadModel()
	if err != nil {
		return err
	}
	if ring != nil {
		s.ring, s.instanceID = ring, opts.instanceID
		logger.Info("cluster membership loaded", "instance", opts.instanceID,
			"config", opts.clusterConfig, "instances", len(ring.Instances()),
			"partitions_owned", ring.Partitions(opts.instanceID),
			"partitions_total", ring.TotalPartitions())
	}
	// Sources and sinks derive offsets from the snapshot's epoch; its
	// clients wait for the first serving bundle, which vets their
	// verdicts, and still restore before any record commits.
	var snap *savedSnapshot
	if opts.restorePath != "" {
		snap = s.readSnapshot(opts.restorePath)
	}
	if opts.outPath != "" {
		f, empty, err := openAppend(opts.outPath)
		if err != nil {
			return fmt.Errorf("-out: %w", err)
		}
		defer f.Close()
		if empty {
			if _, err := fmt.Fprintln(f, "session,sni,start,end,up_bytes,down_bytes"); err != nil {
				return fmt.Errorf("-out: writing header: %w", err)
			}
		}
		s.out = &sink{w: f, name: "out"}
	}
	if opts.squidPath != "" {
		f, _, err := openAppend(opts.squidPath)
		if err != nil {
			return fmt.Errorf("-squid-log: %w", err)
		}
		defer f.Close()
		s.squid = &sink{w: f, name: "squid-log"}
	}
	s.startSinkFlusher()

	// Build the primary TransactionSource. Proxy mode serves live
	// traffic; file sources feed the same callbacks from disk.
	var src ingest.TransactionSource
	var ps *ingest.ProxySource
	switch source {
	case "proxy":
		resolver, err := loadResolver(opts.resolve, opts.upstream)
		if err != nil {
			return err
		}
		ps, err = ingest.NewProxySource(tlsproxy.Config{Resolver: resolver})
		if err != nil {
			return err
		}
		s.proxy = ps.Proxy()
		src = ps
	case "squid":
		// Fail fast on an unreadable log before serving starts; the
		// tailer itself tolerates rotation gaps later.
		f, err := os.Open(opts.input)
		if err != nil {
			return fmt.Errorf("-input: %w", err)
		}
		f.Close()
		src = &ingest.SquidSource{
			Path:      opts.input,
			Base:      s.epoch,
			EpochUnix: opts.ingestEpoch,
			Horizon:   opts.ingestHorizon.Seconds(),
			Follow:    opts.follow,
		}
	case "pcap":
		src, err = ingest.NewPcapSource(opts.input, s.epoch, opts.ingestEpoch, 0, opts.ingestWorkers)
	case "netflow":
		src, err = ingest.NewNetflowSource(opts.input, s.epoch, 0, opts.ingestWorkers)
	case "replay":
		src, err = ingest.NewReplaySource(opts.input, s.epoch, 0, opts.ingestWorkers)
	}
	if err != nil {
		return err
	}
	s.src = src
	s.registerMetrics()
	s.model.Store(s.buildModel(model))
	if snap != nil {
		s.restoreSnapshot(opts.restorePath, snap)
	}

	// Outputs validated, model loaded: now bind. -metrics binds here too,
	// before the source runs: a file source that had already ingested
	// (and appended to -out) when the bind failed would leave records
	// behind a daemon that then exits with an error.
	httpSrv := &http.Server{Handler: s.httpHandler()}
	if opts.metricsAddr != "" {
		ml, err := net.Listen("tcp", opts.metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		go func() {
			if err := httpSrv.Serve(ml); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics server", "err", err)
			}
		}()
		logger.Info("metrics listening", "addr", ml.Addr().String())
	}
	// With -metrics disabled nothing was served and Shutdown is a no-op.
	stopHTTP := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
	}
	// Proxy mode only; file sources accept no traffic.
	if ps != nil {
		l, err := net.Listen("tcp", opts.listen)
		if err != nil {
			stopHTTP()
			return err
		}
		ps.Listener = l
		logger.Info("listening", "addr", l.Addr().String())
	}

	// The source goroutine sends only fatal errors to errCh; benign
	// completion (a file source finishing its input) logs and leaves
	// the daemon serving metrics until a signal arrives.
	srcCtx, srcCancel := context.WithCancel(context.Background())
	defer srcCancel()
	errCh := make(chan error, 1)
	runDone := make(chan struct{})
	runStart := time.Now()
	if ps == nil {
		logger.Info("ingesting", "source", src.Name(), "input", opts.input)
	}
	handler := ingest.Handler{ConnOpen: s.onConnOpen, TransactionBatch: s.onTransactionBatch}
	go func() {
		defer close(runDone)
		err := src.Run(srcCtx, handler)
		if srcCtx.Err() != nil {
			return
		}
		if err != nil {
			errCh <- err
			return
		}
		st := src.Stats()
		wall := time.Since(runStart).Seconds()
		logger.Info("ingest complete", "source", src.Name(),
			"records", st.Records, "clients", st.Clients,
			"skipped", st.Skipped, "malformed", st.Malformed,
			"wall_seconds", wall, "records_per_second", float64(st.Records)/wall)
	}()
	stopSource := func() {
		srcCancel()
		<-runDone
	}

	// The tick drives both classification passes and the idle-client
	// eviction sweep, so it runs whenever either needs it.
	var tick <-chan time.Time
	if opts.classifyEvery > 0 && (model != nil || opts.clientTTL > 0) {
		ticker := time.NewTicker(opts.classifyEvery)
		defer ticker.Stop()
		tick = ticker.C
	}

	return s.serveLoop(errCh, tick, sig, stopSource, stopHTTP)
}

// serveLoop is the daemon's main loop: it reacts to fatal source
// errors, classification/eviction ticks, wakes from the ingest path,
// SIGHUP model reloads and shutdown signals. Ticks and wakes are
// converted to the sweep clock (wall or ingest watermark) before
// classifyPass/evictIdle see them. A tick runs a pass over every dirty
// client, then a sweep. A wake runs whichever is due of a block pass —
// first verdicts for the whole blocks of fresh clients of each shard
// that holds one — and a record-clock sweep. All of it runs on this
// goroutine, so passes and sweeps never overlap. Both exits — source
// death and a signal — stop the source, then the metrics endpoint,
// before draining the sessionizers, so no ingest follows the drain and
// pending decisions and the shutdown summary are never lost to a
// crash-landing listener.
func (s *service) serveLoop(errCh <-chan error, tick <-chan time.Time, sig <-chan os.Signal, stopSource, stopHTTP func()) error {
	for {
		select {
		case err := <-errCh:
			stopSource()
			stopHTTP()
			s.shutdownState()
			return err
		case now := <-tick:
			ns := s.sweepNow(now)
			s.classifyPass(ns)
			s.evictIdle(ns)
		case <-s.wake:
			ns := s.sweepNow(time.Now())
			if s.shards.Due() {
				s.score(ns, serve.Fresh)
			}
			if s.sweepDueNow() {
				s.evictIdle(ns)
			}
		case got := <-sig:
			if got == syscall.SIGHUP {
				// Reload, not shutdown. Errors are already counted and
				// logged; the previous model keeps serving.
				s.reloadModel()
				continue
			}
			s.log.Info("shutting down", "signal", got.String())
			// Stop the source: in proxy mode that stops accepting and
			// drains open relays (their final records arrive through
			// onTransactionBatch before Run returns); file sources flush
			// their reorder buffers. Then stop the metrics endpoint.
			stopSource()
			stopHTTP()
			s.shutdownState()
			return nil
		}
	}
}

// shutdownState finishes the serving state after ingest has stopped:
// with -snapshot it serializes the state for a warm restart or peer
// handoff — deliberately NOT flushing the sessionizers or printing the
// per-client summary, because those finalizations belong to whichever
// instance ends each session, and emitting them here too would
// double-count against the successor. Pending sink lines still flush
// (they are already-committed records). Without -snapshot, or if the
// write fails, the classic drain runs so a shutdown never silently
// loses the summary.
func (s *service) shutdownState() {
	if s.opts.snapshotPath != "" {
		clients, err := s.writeSnapshotFile(s.opts.snapshotPath)
		if err == nil {
			s.log.Info("state snapshot written", "path", s.opts.snapshotPath,
				"clients", clients, "trigger", "shutdown")
			s.stopSinkWriter()
			return
		}
		s.log.Error("snapshot failed; draining instead", "path", s.opts.snapshotPath, "err", err)
	}
	s.drain()
}

// classifyBuckets are the histogram bounds for the classification-pass
// latency series. The batched per-shard sweep finishes typical passes
// in well under a millisecond, where metrics.DefBuckets (lowest bound
// 5ms) would lump everything into one bucket; spanning 50µs to 2.5s
// keeps p50/p95/p99 estimates meaningful from an idle shard to a
// pathological stall.
var classifyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5,
}

// memSampler caches runtime.ReadMemStats so the scrape-time runtime
// bridges share one stop-the-world sample per ~100ms instead of taking
// one each per scrape.
type memSampler struct {
	mu sync.Mutex
	at time.Time
	ms runtime.MemStats
}

func (m *memSampler) read() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now := time.Now(); m.at.IsZero() || now.Sub(m.at) > 100*time.Millisecond {
		runtime.ReadMemStats(&m.ms)
		m.at = now
	}
	return m.ms
}

// registerMetrics declares every exported series. The full reference
// table lives in docs/OPERATIONS.md; keep the two in sync.
func (s *service) registerMetrics() {
	r := metrics.NewRegistry()
	s.reg = r
	s.mTxns = r.NewCounter("qoeproxy_transactions_total",
		"Completed TLS transactions (one per relayed connection).")
	s.mBoundaries = r.NewCounter("qoeproxy_session_boundaries_total",
		"Session starts detected by the online sessionizer.")
	s.mRuns = r.NewCounter("qoeproxy_classification_runs_total",
		"Classification passes that completed successfully, periodic and block passes.")
	s.mBlockPasses = r.NewCounter("qoeproxy_classification_block_passes_total",
		"Block passes that completed successfully: first verdicts for a shard's full inference block of new clients, run before the next tick.")
	s.mClassErrors = r.NewCounter("qoeproxy_classification_errors_total",
		"Classification passes that failed (model/feature mismatch).")
	s.mPred = r.NewCounterVec("qoeproxy_qoe_predictions_total",
		"Feature rows scored online, by predicted class: a classification pass scores the clients whose state changed since their last verdict, and an eviction its final classification.", "class")
	mByClass := r.NewGaugeVecFunc("qoeproxy_sessions_by_class",
		"Resident clients by their current online verdict (clients not yet classified are in none).", "class")
	mByClass.Set(func() ([]string, []float64) {
		m := s.model.Load()
		if m == nil {
			return nil, nil
		}
		n := make([]float64, len(m.names))
		for i := range n {
			n[i] = float64(s.byClass[i].Load())
		}
		return m.names, n
	})
	// Model-lifecycle series. The reload results are pre-declared so
	// dashboards see zeros before the first reload; the per-class
	// prediction and confusion handles are cached per serving bundle.
	mReloads := r.NewCounterVec("qoeproxy_model_reloads_total",
		"Model reload attempts (SIGHUP or /admin/reload) by result: ok = new model serving, error = rejected with the previous model untouched, noop = no -model configured.", "result")
	s.mReloadOK = mReloads.WithLabel("ok")
	s.mReloadError = mReloads.WithLabel("error")
	s.mReloadNoop = mReloads.WithLabel("noop")
	r.NewGaugeFunc("qoeproxy_model_loaded_timestamp_seconds",
		"Unix time the serving model was loaded or last reloaded (0 = no model).", func() float64 {
			if m := s.model.Load(); m != nil {
				return float64(m.loadedAt.UnixNano()) / 1e9
			}
			return 0
		})
	s.mShadowDis = r.NewCounter("qoeproxy_shadow_disagreement_total",
		"Classified rows where the -shadow-model challenger disagreed with the primary model.")
	s.mShadowConf = r.NewCounterVec2("qoeproxy_shadow_confusion_total",
		"Primary/challenger confusion cells for disagreeing rows (-shadow-model).", "primary", "shadow")
	mDrift := r.NewGaugeVecFunc("qoeproxy_feature_drift_zscore",
		"Per-feature drift of classified traffic against the model's training baseline: (observed mean - training mean) / training std. Requires a model saved with a baseline.", "feature")
	mDrift.Set(func() ([]string, []float64) {
		m := s.model.Load()
		if m == nil || m.Drift() == nil {
			return nil, nil
		}
		return m.Drift().ZScores()
	})
	r.NewGaugeFunc("qoeproxy_interned_strings",
		"Distinct client/SNI strings held by the ingest source's intern tables (0 for sources that do not intern).", func() float64 {
			if in, ok := s.src.(ingest.Interner); ok {
				return float64(in.InternedStrings())
			}
			return 0
		})
	s.mInfer = r.NewHistogram("qoeproxy_inference_seconds",
		"Latency of the model-prediction half of one classification pass (summed across shard sweeps).", classifyBuckets)
	s.mExtract = r.NewHistogram("qoeproxy_feature_extraction_seconds",
		"Latency of building every client's feature row in one classification pass (summed across shards).", classifyBuckets)
	s.mTruncated = r.NewCounter("qoeproxy_sessions_truncated_total",
		"Client sessions whose retained transaction state hit -max-session-txns and dropped oldest entries.")
	s.mSinkFailures = r.NewCounter("qoeproxy_sink_write_failures_total",
		"Transaction record lines lost because a -out/-squid-log write failed or fell short.")
	r.NewGaugeFunc("qoeproxy_sink_pending_bytes",
		"Record-line bytes appended but not yet written to -out/-squid-log: each sink's pending chunk, including one whose write is in progress.", func() float64 {
			return float64(s.sinks.queued.Load())
		})
	r.NewCounterFunc("qoeproxy_sink_bytes_written_total",
		"Bytes the -out/-squid-log writers accepted.", s.sinks.written.Load)
	r.NewCounterFunc("qoeproxy_sink_writes_total",
		"Write calls issued to -out/-squid-log, one per chunk of lines.", s.sinks.writes.Load)
	s.mEvicted = r.NewCounter("qoeproxy_clients_evicted_total",
		"Clients evicted after -client-ttl of idleness, final classification emitted.")
	r.NewCounterFunc("qoeproxy_ingest_contention_total",
		"Ingest lock acquisitions (one per connection start, one per shard a batch commits to) that found their shard already held. Which acquisitions overlap is up to the scheduler: the same input and binary read several-fold apart run to run.", s.shards.Contention)
	// Fleet-operation series: the instance identity, the partitions this
	// member owns (summed across members they equal the ring total, so
	// coverage is verifiable from scrapes alone) and the records skipped
	// because the ring assigns their client elsewhere.
	s.mSkipped = r.NewCounter("qoeproxy_cluster_clients_skipped_total",
		"Transaction records skipped because the cluster ring assigns their client to another instance (0 standalone).")
	r.NewGaugeFunc("qoeproxy_partitions_owned",
		"Consistent-hash partitions (virtual ring points) this instance owns; the fleet-wide sum equals the ring's partition total exactly when coverage is 100% (0 standalone).", func() float64 {
			if s.ring == nil {
				return 0
			}
			return float64(s.ring.Partitions(s.instanceID))
		})
	mInstance := r.NewGaugeVecFunc("qoeproxy_instance_info",
		"Identity of this daemon in the serving fleet; constant 1 with the instance id as a label.", "instance")
	mInstance.Set(func() ([]string, []float64) {
		if s.instanceID == "" {
			return nil, nil
		}
		return []string{s.instanceID}, []float64{1}
	})
	s.mShardClassify = r.NewHistogram("qoeproxy_shard_classify_seconds",
		"Per-shard latency of one classification pass: row gather under the shard lock plus the batched inference sweep outside it.", classifyBuckets)
	// Per-source ingest counters, sampled from the primary source's
	// Stats. The families always render (operators alert on series
	// existence); children appear for the active source.
	mSrcRecords := r.NewCounterVecFunc("qoeproxy_ingest_source_records_total",
		"Transactions delivered into the ingest path, by source.", "source")
	mSrcSkipped := r.NewCounterVecFunc("qoeproxy_ingest_source_skipped_total",
		"Out-of-scope input units dropped by a source (non-CONNECT log lines, unresolved flows), by source.", "source")
	mSrcMalformed := r.NewCounterVecFunc("qoeproxy_ingest_source_malformed_total",
		"Unparseable input units dropped by a streaming source, by source.", "source")
	mSrcRotations := r.NewCounterVecFunc("qoeproxy_ingest_source_rotations_total",
		"Log rotations and truncations a tailing source survived, by source.", "source")
	if s.src != nil {
		name := s.src.Name()
		src := s.src
		mSrcRecords.With(name, func() int64 { return src.Stats().Records })
		mSrcSkipped.With(name, func() int64 { return src.Stats().Skipped })
		mSrcMalformed.With(name, func() int64 { return src.Stats().Malformed })
		mSrcRotations.With(name, func() int64 { return src.Stats().Rotations })
	}
	// The relay's own series exist only when there is a relay: a file
	// source that exported them would report seven permanent zeros.
	if p := s.proxy; p != nil {
		r.NewCounterFunc("qoeproxy_connections_total",
			"Client connections accepted.", func() int64 { return p.Stats().TotalConnections })
		r.NewGaugeFunc("qoeproxy_connections_active",
			"Client connections currently relayed.", func() float64 { return float64(p.Stats().ActiveConnections) })
		r.NewCounterFunc("qoeproxy_hello_parse_failures_total",
			"Connections dropped: ClientHello missing, timed out or unparseable.", func() int64 { return p.Stats().HelloFailures })
		r.NewCounterFunc("qoeproxy_resolve_failures_total",
			"Connections dropped: no backend for the SNI.", func() int64 { return p.Stats().ResolveFailures })
		r.NewCounterFunc("qoeproxy_dial_failures_total",
			"Connections dropped: backend dial failed.", func() int64 { return p.Stats().DialFailures })
		r.NewCounterFunc("qoeproxy_relayed_up_bytes_total",
			"Bytes relayed client to server.", func() int64 { return p.Stats().RelayedUpBytes })
		r.NewCounterFunc("qoeproxy_relayed_down_bytes_total",
			"Bytes relayed server to client.", func() int64 { return p.Stats().RelayedDownBytes })
	}
	r.NewGaugeFunc("qoeproxy_active_sessions",
		"Clients with transactions in their current (ongoing) session.", func() float64 { return float64(s.shards.Active()) })
	r.NewGaugeFunc("qoeproxy_clients",
		"Distinct client addresses seen.", func() float64 { return float64(s.shards.Len()) })
	r.NewGaugeFunc("qoeproxy_uptime_seconds",
		"Seconds since the proxy started.", func() float64 { return time.Since(s.epoch).Seconds() })
	// Runtime memory and scheduler health, for correlating classify-tick
	// latency and ingest throughput with GC pressure under load.
	mem := &memSampler{}
	r.NewFloatCounterFunc("qoeproxy_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.", func() float64 {
			return float64(mem.read().PauseTotalNs) / 1e9
		})
	r.NewCounterFunc("qoeproxy_gc_runs_total",
		"Completed GC cycles.", func() int64 { return int64(mem.read().NumGC) })
	r.NewCounterFunc("qoeproxy_heap_alloc_bytes_total",
		"Cumulative bytes allocated on the heap.", func() int64 { return int64(mem.read().TotalAlloc) })
	r.NewGaugeFunc("qoeproxy_heap_inuse_bytes",
		"Bytes in in-use heap spans.", func() float64 { return float64(mem.read().HeapInuse) })
	r.NewGaugeFunc("qoeproxy_goroutines",
		"Live goroutines.", func() float64 { return float64(runtime.NumGoroutine()) })
}

// httpHandler serves /metrics, /healthz and the loopback-only admin
// plane (/admin/reload, /admin/snapshot).
func (s *service) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/admin/reload", admin("reload", func(w http.ResponseWriter) {
		result, err := s.reloadModel()
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, map[string]any{"result": result, "error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"result": result})
	}))
	mux.HandleFunc("/admin/snapshot", admin("snapshot", func(w http.ResponseWriter) {
		path := s.opts.snapshotPath
		if path == "" {
			http.Error(w, "no -snapshot path configured", http.StatusUnprocessableEntity)
			return
		}
		clients, err := s.writeSnapshotFile(path)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
			return
		}
		s.log.Info("state snapshot written", "path", path, "clients", clients, "trigger", "admin")
		writeJSON(w, http.StatusOK, map[string]any{"path": path, "clients": clients})
	}))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		var st tlsproxy.Stats // all zero for file sources, which have no relay
		if s.proxy != nil {
			st = s.proxy.Stats()
		}
		status := "ok"
		if s.sinksDegraded() {
			status = "degraded"
		}
		partitions := 0
		if s.ring != nil {
			partitions = s.ring.Partitions(s.instanceID)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":              status,
			"instance":            s.instanceID,
			"partitions_owned":    partitions,
			"clients_skipped":     s.mSkipped.Value(),
			"uptime_seconds":      time.Since(s.epoch).Seconds(),
			"active_connections":  st.ActiveConnections,
			"total_connections":   st.TotalConnections,
			"clients":             s.shards.Len(),
			"clients_evicted":     s.mEvicted.Value(),
			"sink_write_failures": s.mSinkFailures.Value(),
		})
	})
	return mux
}

// admin wraps an admin endpoint: POST only, and authenticated by
// locality — -metrics may be bound wide for scrapers, but reloading the
// model or writing the serving state is reserved for operators on the
// box itself (IPv4 127/8, IPv6 ::1).
func admin(name string, serve func(w http.ResponseWriter)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if ip := net.ParseIP(host); err != nil || ip == nil || !ip.IsLoopback() {
			http.Error(w, name+" is loopback-only", http.StatusForbidden)
			return
		}
		serve(w)
	}
}

// writeJSON writes body as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, body map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// owns reports whether this instance serves a client: always true for
// a standalone daemon, the ring's verdict in a fleet. The filter lives
// here in the callbacks — not in the sources — so skipped records
// still advance the ingest watermark (the logical sweep clock): a
// fleet member owning few clients of a replayed workload must still
// see time pass, or its eviction and window cutoffs would stall.
func (s *service) owns(client string) bool {
	return s.ring == nil || s.ring.Owns(s.instanceID, client)
}

// onConnOpen records an in-flight connection so the sessionizer knows
// not to advance past its start time until it completes.
func (s *service) onConnOpen(r tlsproxy.Record) {
	client := ingest.ClientHost(r.ClientAddr)
	start := r.Start.Sub(s.epoch).Seconds()
	s.noteEventTime(start)
	if !s.owns(client) {
		return // counted once per record in the transaction callbacks
	}
	s.shards.Open(client, r.ConnID, start)
}

// appendOutLine renders one CSV sink record onto dst, matching the
// historical fmt verbs ("%s,%s,%.3f,%.3f,%d,%d\n") byte for byte.
func appendOutLine(dst []byte, client string, txn capture.TLSTransaction) []byte {
	dst = append(dst, client...)
	dst = append(dst, ',')
	dst = append(dst, txn.SNI...)
	dst = append(dst, ',')
	dst = bytesconv.AppendFixed3(dst, txn.Start)
	dst = append(dst, ',')
	dst = bytesconv.AppendFixed3(dst, txn.End)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, txn.UpBytes, 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, txn.DownBytes, 10)
	return append(dst, '\n')
}

// batchScratch is the reusable per-call scratch of the transaction
// ingest path, pooled so steady state allocates nothing: a call's sink
// lines are built here, one buffer per sink, and copied into the sinks'
// pending chunks.
type batchScratch struct {
	out, squid []byte
	commits    []serve.Completed
}

// debugTransaction logs per-transaction detail; the caller guards with
// s.debugLog so an info-level daemon never builds the attribute list.
func (s *service) debugTransaction(r tlsproxy.Record, client string) {
	s.log.Debug("transaction",
		"sni", r.SNI, "client", client, "conn_id", r.ConnID,
		"duration_s", r.End.Sub(r.Start).Seconds(), "up_bytes", r.UpBytes, "down_bytes", r.DownBytes)
}

// onTransactionBatch exports a run of completed transactions to the
// configured sinks and feeds each client's online sessionizer, in two
// phases. Phase one walks the batch in delivery order with no shard
// lock held: record conversion, counters, sink lines (built in pooled
// buffers and appended to each sink's pending chunk in one call per
// batch; one source goroutine delivers all of a client's records, and
// the sink's mutex orders appends and writes), debug logs. Phase two
// commits the batch (serve.Shards.Commit), advancing the ingest
// watermark to each record's end under its shard's lock, just before
// the record commits. The live proxy delivers one-record batches.
func (s *service) onTransactionBatch(recs []tlsproxy.Record) {
	sc := s.batchPool.Get().(*batchScratch)
	commits := sc.commits[:0]
	out, squid := sc.out[:0], sc.squid[:0]
	epochUnix := float64(s.epoch.Unix())
	for _, r := range recs {
		client := ingest.ClientHost(r.ClientAddr)
		if !s.owns(client) {
			s.noteEventTime(r.End.Sub(s.epoch).Seconds())
			s.mSkipped.Inc()
			continue
		}
		txn := tlsproxy.ToCaptureTransaction(r, s.epoch)
		s.mTxns.Inc()
		if s.out != nil {
			out = appendOutLine(out, client, txn)
		}
		if s.squid != nil {
			squid = append(squidlog.AppendEntry(squid, client, txn, epochUnix), '\n')
		}
		if s.debugLog {
			s.debugTransaction(r, client)
		}
		commits = append(commits, serve.Completed{Client: client, ConnID: r.ConnID, Txn: txn})
	}
	if len(out) > 0 {
		s.appendSink(s.out, out)
	}
	if len(squid) > 0 {
		s.appendSink(s.squid, squid)
	}
	blockDue := s.shards.Commit(commits, s.noteEventTime)
	sc.out, sc.squid, sc.commits = out, squid, commits
	s.batchPool.Put(sc)
	if s.wake != nil && (blockDue || s.sweepDueNow()) {
		// Never blocks: a wake already pending covers this one.
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// sweepDueNow reports whether the watermark has reached the next
// record-clock sweep.
func (s *service) sweepDueNow() bool {
	return math.Float64frombits(s.watermark.Load()) >= math.Float64frombits(s.sweepDue.Load())
}

// cutoff is a pass's -window cutoff at sweep clock nowSec: rows cover
// the transactions ending at or after it (-Inf: the whole session).
func (s *service) cutoff(nowSec float64) float64 {
	if s.opts.window > 0 {
		return nowSec - s.opts.window.Seconds()
	}
	return math.Inf(-1)
}

// classifyPass is the classify tick's pass: it brings every client's
// online verdict up to date at sweep clock nowSec (see sweepNow).
// serve.Shards.Pass gathers only the dirty clients (serve.Core.Gather),
// one shard lock at a time, and skips once a client whose first verdict
// a block pass gave since the last tick, so no client is scored twice
// in one tick interval. Logs, counters and stored classes are identical
// at every (shards, workers, block size) setting.
func (s *service) classifyPass(nowSec float64) { s.score(nowSec, serve.Dirty) }

// score runs a pass over the clients scope selects at sweep clock
// nowSec: every dirty client (classifyPass), or the whole inference
// blocks of clients waiting for a first verdict (a block pass, which
// serveLoop runs as soon as a shard holds one, without waiting for the
// tick). The pass scores rows outside the shard locks; once it
// succeeds its counts reach the prediction and challenger counters. A
// "classification" line is logged for a client's first verdict and for
// a change of class only, in client order; steady state is
// qoeproxy_sessions_by_class. Safe to call concurrently with traffic,
// not with itself. The bundle is Loaded once, so a reload takes effect
// at the next pass, never inside one.
func (s *service) score(nowSec float64, scope serve.Scope) {
	m := s.model.Load()
	if m == nil {
		return
	}
	lines, st, err := s.shards.Pass(m.Model, s.cutoff(nowSec), scope, s.cLines[:0])
	for _, d := range st.Shard {
		s.mShardClassify.Observe(d.Seconds())
	}
	if st.Resident == 0 {
		return
	}
	s.mExtract.Observe(st.Gather.Seconds())
	s.mInfer.Observe(st.Score.Seconds())
	if st.ShadowErr != nil {
		s.log.Error("shadow classification failed", "err", st.ShadowErr)
	}
	if err != nil {
		s.mClassErrors.Inc()
		s.log.Error("classification failed", "err", err)
		return
	}
	// The pass completed: it counts as a run even when every client was
	// clean and nothing was scored.
	s.mRuns.Inc()
	if scope == serve.Fresh {
		s.mBlockPasses.Inc()
	}
	nc := len(m.names)
	for p, pc := range m.predClass {
		pc.Add(st.Scored[p])
		for c, n := range st.Disagree[p][:nc] {
			if n > 0 { // only with a challenger, whose cells m.confusion holds
				s.mShadowDis.Add(n)
				m.confusion[p*nc+c].Add(n)
			}
		}
	}
	for _, l := range lines {
		if l.Prev >= 0 {
			s.byClass[l.Prev].Add(-1)
			s.log.Info("classification", "client", l.Client, "class", m.names[l.Class], "transactions", l.Txns,
				"previous", m.names[l.Prev])
		} else {
			s.log.Info("classification", "client", l.Client, "class", m.names[l.Class], "transactions", l.Txns)
		}
		s.byClass[l.Class].Add(1)
	}
	clear(lines)
	s.cLines = lines[:0]
}

// evictIdle retires every client idle for -client-ttl with no open
// connection (serve.Core.Evict), logging each one's final
// classification, in client order, and counting it in the prediction
// counters. nowSec is the sweep clock (see sweepNow), so the TTL is
// measured on the records' own timescale. Runs on the serve loop, never
// alongside a pass: after each classify tick's pass and, for file
// sources, whenever the watermark reaches sweepDue — first at the first
// committed record, then every TTL/recordSweepsPerTTL, which each sweep
// adds. It also rotates the source's intern tables at most once per TTL
// (rotateInterned).
func (s *service) evictIdle(nowSec float64) {
	s.rotateInterned(nowSec)
	ttl := s.opts.clientTTL
	if ttl <= 0 {
		return
	}
	if !math.IsInf(math.Float64frombits(s.sweepDue.Load()), 1) {
		s.sweepDue.Store(math.Float64bits(nowSec + ttl.Seconds()/recordSweepsPerTTL))
	}
	// One bundle Load covers the whole sweep, like classifyPass.
	m := s.model.Load()
	gone, err := s.shards.Evict(nowSec, ttl.Seconds(), m.bundle())
	if err != nil {
		s.log.Error("eviction classification failed", "clients", len(gone), "err", err)
	}
	s.mEvicted.Add(int64(len(gone)))
	// gone is in client order, which keeps logs and counters
	// deterministic across shard counts.
	for i := range gone {
		e := &gone[i]
		if e.HasClass {
			s.byClass[e.Class].Add(-1)
		}
		attrs := []any{"client", e.Client, "transactions", e.Txns,
			"boundaries", e.Boundaries, "down_bytes", e.DownBytes,
			"mean_txn_seconds", e.MeanDur}
		if e.Verdict >= 0 {
			m.predClass[e.Verdict].Inc()
			attrs = append(attrs, "class", m.names[e.Verdict])
		}
		s.log.Info("client evicted", attrs...)
	}
}

// rotateInterned ties interned-string release to client eviction: when
// the source interns (squid tail), its tables rotate at most once per
// -client-ttl of sweep-clock time, so a string is released only after
// one to two TTLs of idleness — the same horizon on which its client's
// state is reclaimed. Tick goroutine only.
func (s *service) rotateInterned(nowSec float64) {
	ttl := s.opts.clientTTL
	if ttl <= 0 {
		return
	}
	in, ok := s.src.(ingest.Interner)
	if !ok {
		return
	}
	if nowSec-s.lastRotate < ttl.Seconds() {
		return
	}
	s.lastRotate = nowSec
	in.ReleaseIdleInterned()
}

// drain stops the sink flusher (writing pending records), finishes the
// sessionizers after the proxy has stopped and prints the per-client
// shutdown summary in client order.
func (s *service) drain() {
	s.stopSinkWriter()
	// The summary classifies the retained ring — the whole history under
	// -max-session-txns, the most recent slice beyond it (lifetime counts
	// still report full totals), which stopped ingest no longer changes.
	m := s.model.Load()
	finals, err := s.shards.Drain(m.bundle())
	if m == nil {
		return
	}
	if err != nil {
		s.log.Error("shutdown classification failed", "clients", len(finals), "err", err)
		return
	}
	// One buffered writer: a write(2) per client would cost 40,000 system
	// calls on a 40,000-client shutdown.
	out := bufio.NewWriter(os.Stdout)
	for i := range finals {
		if f := &finals[i]; f.Verdict >= 0 {
			fmt.Fprintf(out, "client %-22s sessions-qoe=%s (%d transactions, %d boundaries)\n",
				f.Client, m.names[f.Verdict], f.Txns, f.Boundaries)
		}
	}
	if err := out.Flush(); err != nil {
		s.log.Error("shutdown summary write failed", "err", err)
	}
}
