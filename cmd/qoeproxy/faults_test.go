package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"droppackets/internal/core"
	"droppackets/internal/faultinject"
	"droppackets/internal/qoe"
	"droppackets/internal/serve"
	"droppackets/internal/tlsproxy"
)

// logBuffer is a concurrency-safe sink for the service's JSON logs so
// tests can count and parse structured lines.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// countLogMsg counts structured log lines with the given msg value.
func (b *logBuffer) countLogMsg(t *testing.T, msg string) int {
	t.Helper()
	n := 0
	for _, line := range b.lines() {
		if line == "" {
			continue
		}
		var entry struct {
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		if entry.Msg == msg {
			n++
		}
	}
	return n
}

// newTestService assembles a service around synthetic state: captured
// logs and the given options/estimator, no relay (as for a file
// source). An optional trailing estimator becomes the shadow
// challenger, installed in the first serving bundle.
func newTestService(t *testing.T, opts options, est *core.Estimator, shadow ...*core.Estimator) (*service, *logBuffer) {
	t.Helper()
	logs := &logBuffer{}
	s := newService(opts, slog.New(slog.NewJSONHandler(logs, nil)))
	t.Cleanup(s.stopSinkWriter)
	s.epoch = time.Unix(1_700_000_000, 0)
	s.registerMetrics()
	var challenger *core.Estimator
	if len(shadow) > 0 {
		challenger = shadow[0]
	}
	s.model.Store(s.buildModel(newModel(t, s, est, challenger)))
	return s, logs
}

// newModel builds s's serve.Model around est and an optional
// challenger, as loadModel does; nil for a nil est.
func newModel(t testing.TB, s *service, est, shadow *core.Estimator) *serve.Model {
	t.Helper()
	if est == nil {
		return nil
	}
	m, err := s.shards.NewModel(est, shadow)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// client returns a copy of a client host's state, or nil.
func (s *service) client(host string) *serve.ClientState {
	st, ok := s.shards.Client(host)
	if !ok {
		return nil
	}
	return &st
}

// record builds a completed-transaction record at the given epoch
// offsets (seconds).
func (s *service) record(connID uint64, client, sni string, start, end float64, up, down int64) tlsproxy.Record {
	return tlsproxy.Record{
		ConnID:     connID,
		SNI:        sni,
		ClientAddr: client,
		Start:      s.epoch.Add(time.Duration(start * float64(time.Second))),
		End:        s.epoch.Add(time.Duration(end * float64(time.Second))),
		UpBytes:    up,
		DownBytes:  down,
	}
}

// healthStatus reads /healthz's status and sink-failure count.
func healthStatus(t *testing.T, s *service) (string, int64) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.httpHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var h struct {
		Status            string `json:"status"`
		SinkWriteFailures int64  `json:"sink_write_failures"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	return h.Status, h.SinkWriteFailures
}

// deliver hands one completed record to the service as a one-element
// batch: record-at-a-time delivery, which is all the live proxy ever
// produces and what every file source does at Batch 1.
func deliver(s *service, r tlsproxy.Record) {
	s.onTransactionBatch([]tlsproxy.Record{r})
}

// feedRecords delivers n one-connection transactions for a client,
// record at a time, connection IDs from firstID.
func feedRecords(s *service, client string, firstID, n int) {
	for i := 0; i < n; i++ {
		at := float64(firstID + i)
		r := s.record(uint64(firstID+i), client, "cdn-01.svc1.example", at, at+0.5, 100, 1000)
		s.onConnOpen(r)
		deliver(s, r)
	}
}

// TestSinkWriteFailures drives transactions into a sink that fails a
// burst of writes then recovers, pumba-style. The sink writes a chunk of
// lines per Write, so the burst here is two failed chunks of three and
// two records: every lost line must be counted exactly once, the burst
// logged once, reflected in /healthz while it lasts, and must never stop
// the transaction pipeline.
func TestSinkWriteFailures(t *testing.T) {
	s, logs := newTestService(t, options{window: time.Hour}, nil)
	var out bytes.Buffer
	fw := faultinject.NewWriter(&out, faultinject.Schedule{
		Fault: faultinject.FaultError, Ops: 2, Err: errors.New("disk full"),
	})
	s.out = &sink{w: fw, name: "out"}

	if st, _ := healthStatus(t, s); st != "ok" {
		t.Fatalf("initial health = %q, want ok", st)
	}
	feedRecords(s, "10.1.1.1:5000", 1, 3)
	s.flushSinks() // writes the pending chunk: first failed chunk
	if got := s.mSinkFailures.Value(); got != 3 {
		t.Errorf("sink_write_failures = %d after a failed 3-line chunk, want 3", got)
	}
	feedRecords(s, "10.1.1.1:5000", 4, 2)
	s.flushSinks() // second failed chunk, same burst
	if got := s.mSinkFailures.Value(); got != 5 {
		t.Errorf("sink_write_failures = %d, want 5 (failures = records lost)", got)
	}
	if got := logs.countLogMsg(t, "sink write failing, records dropped until it recovers"); got != 1 {
		t.Errorf("failure burst logged %d times, want once", got)
	}
	if st, n := healthStatus(t, s); st != "degraded" || n != 5 {
		t.Errorf("mid-burst health = %q/%d, want degraded/5", st, n)
	}
	if out.Len() != 0 {
		t.Errorf("failed writes left %d bytes in the sink", out.Len())
	}

	feedRecords(s, "10.1.1.1:5000", 6, 1) // sink recovered
	s.flushSinks()
	feedRecords(s, "10.1.1.1:5000", 7, 1)
	s.flushSinks()
	if got := logs.countLogMsg(t, "sink recovered"); got != 1 {
		t.Errorf("recovery logged %d times, want once", got)
	}
	if st, n := healthStatus(t, s); st != "ok" || n != 5 {
		t.Errorf("post-recovery health = %q/%d, want ok/5", st, n)
	}
	if got := strings.Count(out.String(), "cdn-01.svc1.example"); got != 2 {
		t.Errorf("%d recovered lines reached the sink, want 2", got)
	}
	if got, want := s.sinks.written.Load(), int64(out.Len()); got != want {
		t.Errorf("sink_bytes_written = %d, sink holds %d bytes", got, want)
	}
	if got := s.sinks.writes.Load(); got != 4 {
		t.Errorf("sink_writes = %d, want 4 (one per flushed chunk)", got)
	}
	if got := s.sinks.queued.Load(); got != 0 {
		t.Errorf("sink_pending_bytes = %d after a flush, want 0", got)
	}
	// The pipeline itself never dropped a transaction.
	if got := s.mTxns.Value(); got != 7 {
		t.Errorf("transactions_total = %d, want 7", got)
	}
	if cs := s.client("10.1.1.1"); cs == nil || cs.Txns != 7 {
		t.Fatalf("client state lost transactions during the sink burst: %+v", cs)
	}
}

// TestServeLoopDrainsOnListenerError is the regression test for the
// errCh exit path: a dying listener must flush the sessionizers (like
// the signal path does), not abandon pending decisions.
func TestServeLoopDrainsOnListenerError(t *testing.T) {
	s, _ := newTestService(t, options{window: time.Hour}, nil)
	const n = 5
	for i := 0; i < n; i++ {
		r := s.record(uint64(i+1), "10.2.2.2:6000", "cdn-01.svc1.example", float64(i*10), float64(i*10)+2, 100, 1000)
		s.onConnOpen(r)
		deliver(s, r)
	}
	cs := s.client("10.2.2.2")
	pending := len(cs.InFlight) + len(cs.Buffer)
	if pending == 0 {
		t.Fatal("test needs transactions still pending inside the streamer's look-ahead")
	}

	boom := errors.New("accept: too many open files")
	errCh := make(chan error, 1)
	errCh <- boom
	if err := s.serveLoop(errCh, nil, nil, nil, func() {}, func() {}); !errors.Is(err, boom) {
		t.Fatalf("serveLoop returned %v, want the listener error", err)
	}

	cs = s.client("10.2.2.2")
	if len(cs.InFlight) != 0 || len(cs.Buffer) != 0 {
		t.Errorf("listener-error exit left %d in-flight and %d buffered transactions undrained",
			len(cs.InFlight), len(cs.Buffer))
	}
	if len(cs.Current) != n {
		t.Errorf("current session has %d transactions after drain, want %d", len(cs.Current), n)
	}
}

// TestClassificationErrorsMetric feeds a classification pass a
// deliberately broken (never-trained) model: the error counter must
// move and the runs counter must not.
func TestClassificationErrorsMetric(t *testing.T) {
	est := core.NewEstimator(core.Config{Metric: qoe.MetricCombined}) // mismatched: never trained
	s, logs := newTestService(t, options{window: time.Hour}, est)
	for i := 0; i < 4; i++ {
		r := s.record(uint64(i+1), "10.3.3.3:7000", "cdn-01.svc1.example", float64(i), float64(i)+0.5, 100, 1000)
		s.onConnOpen(r)
		deliver(s, r)
	}
	s.classifyPass(10)
	if got := s.mClassErrors.Value(); got != 1 {
		t.Errorf("classification_errors_total = %d, want 1", got)
	}
	if got := s.mRuns.Value(); got != 0 {
		t.Errorf("classification_runs_total = %d after a failed pass, want 0", got)
	}
	if got := logs.countLogMsg(t, "classification failed"); got != 1 {
		t.Errorf("failure logged %d times, want 1", got)
	}
	if s.client("10.3.3.3").HasClass {
		t.Error("a failed pass must not record a classification")
	}
}

// TestSinkShortWriteCounted checks the torn-write shape: a short write
// loses the line it tore and every line after it in the chunk, and only
// those — lines whose newline reached the writer are not failures.
func TestSinkShortWriteCounted(t *testing.T) {
	s, _ := newTestService(t, options{window: time.Hour}, nil)
	var out bytes.Buffer
	s.out = &sink{w: faultinject.NewWriter(&out, faultinject.Schedule{
		Fault: faultinject.FaultShortWrite, Ops: 1,
	}), name: "out"}
	// Five equal-length lines, half the bytes written: two whole lines
	// and half of the third arrive.
	feedRecords(s, "10.4.4.4:8000", 1, 5)
	s.flushSinks()
	if got := strings.Count(out.String(), "\n"); got != 2 {
		t.Fatalf("short write delivered %d whole lines, test expects 2 of 5", got)
	}
	if got := s.mSinkFailures.Value(); got != 3 {
		t.Errorf("sink_write_failures = %d after a short write, want 3 (failures = records lost)", got)
	}
	if got, want := s.sinks.written.Load(), int64(out.Len()); got != want {
		t.Errorf("sink_bytes_written = %d, sink holds %d bytes", got, want)
	}
}

// orderWriter is a sink target that checks, line by line as chunks
// arrive, that every client's sequence numbers (the up_bytes column)
// count up from 1 without a gap. gate, when non-nil, blocks each Write
// until it can receive — a reader that has stopped draining.
type orderWriter struct {
	t    *testing.T
	gate chan struct{}
	mu   sync.Mutex
	next map[string]int64
	n    int
}

func (w *orderWriter) Write(p []byte) (int, error) {
	if w.gate != nil {
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(p) == 0 || p[len(p)-1] != '\n' {
		w.t.Errorf("chunk of %d bytes does not end on a line boundary", len(p))
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(p), "\n"), "\n") {
		f := strings.Split(line, ",")
		if len(f) != 6 {
			w.t.Errorf("torn sink line %q", line)
			continue
		}
		seq, _ := strconv.ParseInt(f[4], 10, 64)
		if want := w.next[f[0]] + 1; seq != want {
			w.t.Errorf("client %s: line %d arrived where %d was due", f[0], seq, want)
		}
		w.next[f[0]] = seq
		w.n++
	}
	return len(p), nil
}

func (w *orderWriter) lines() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// produceOrdered runs one producer goroutine per client group, each
// delivering perClient numbered records per client in batches through
// onTransactionBatch, and returns once all have been handed to the sink
// path.
func produceOrdered(s *service, producers, clientsEach, perClient int) {
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]tlsproxy.Record, 0, clientsEach)
			for seq := 1; seq <= perClient; seq++ {
				batch = batch[:0]
				for c := 0; c < clientsEach; c++ {
					id := uint64((p*clientsEach+c)*perClient + seq)
					client := "10." + strconv.Itoa(p) + ".0." + strconv.Itoa(c)
					batch = append(batch, s.record(id, client, "cdn-01.svc1.example", float64(seq), float64(seq)+0.5, int64(seq), 1000))
				}
				s.onTransactionBatch(batch)
			}
		}(p)
	}
	wg.Wait()
}

// TestSinkConcurrentProducersKeepClientOrder runs several batch
// producers at once over enough lines to fill and write the chunk many
// times: chunks must hold whole lines, and each client's lines must
// reach the writer in the order they were delivered, none lost.
func TestSinkConcurrentProducersKeepClientOrder(t *testing.T) {
	s, _ := newTestService(t, options{window: time.Hour, shards: 4}, nil)
	w := &orderWriter{t: t, next: map[string]int64{}}
	s.out = &sink{w: w, name: "out"}
	const producers, clientsEach, perClient = 4, 8, 1500 // ~2.5 MB of lines
	produceOrdered(s, producers, clientsEach, perClient)
	s.flushSinks()
	if got, want := w.lines(), producers*clientsEach*perClient; got != want {
		t.Errorf("sink received %d lines, want %d", got, want)
	}
	if got := s.sinks.writes.Load(); got < 10 || got > int64(w.lines())/100 {
		t.Errorf("sink_writes = %d for %d lines: want chunked egress, not one write per record", got, w.lines())
	}
	if got := s.mSinkFailures.Value(); got != 0 {
		t.Errorf("sink_write_failures = %d, want 0", got)
	}
}

// TestSinkBackpressureWithoutLoss is the slow-sink shape: the
// writer is blocked (a FIFO nobody reads), producers must stall behind
// the write of the one full chunk rather than drop or grow without
// bound, and when the reader resumes every line arrives, in order.
func TestSinkBackpressureWithoutLoss(t *testing.T) {
	s, _ := newTestService(t, options{window: time.Hour, shards: 4}, nil)
	w := &orderWriter{t: t, next: map[string]int64{}, gate: make(chan struct{})}
	s.out = &sink{w: w, name: "out"}
	const producers, clientsEach, perClient = 2, 8, 1500
	total := int64(producers * clientsEach * perClient)
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		produceOrdered(s, producers, clientsEach, perClient)
	}()
	// With the writer stuck, ingest stops once the chunk is full: the
	// transaction counter stalls short of the total.
	var stalledAt int64
	for deadline := time.Now().Add(10 * time.Second); ; {
		before := s.mTxns.Value()
		time.Sleep(50 * time.Millisecond)
		if after := s.mTxns.Value(); after == before && after > 0 {
			stalledAt = after
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("producers never stalled behind the blocked writer")
		}
	}
	if stalledAt >= total {
		t.Fatalf("all %d records were accepted with the writer blocked: no backpressure", total)
	}
	// Pending is at most the chunk being written: under sinkChunkBytes
	// before the producer's last batch, plus that batch. The lines of
	// the longest client and sequence bound every batch's.
	longest := appendOutLine(nil, "10.1.0.7", tlsproxy.ToCaptureTransaction(
		s.record(0, "10.1.0.7", "cdn-01.svc1.example", perClient, perClient+0.5, perClient, 1000), s.epoch))
	if got, bound := s.sinks.queued.Load(), int64(sinkChunkBytes+clientsEach*len(longest)); got > bound {
		t.Errorf("sink_pending_bytes = %d with the writer blocked, bound %d", got, bound)
	}
	if w.lines() != 0 {
		t.Errorf("%d lines passed a blocked writer", w.lines())
	}
	close(w.gate) // the reader resumes
	<-produced
	s.flushSinks()
	if got := int64(w.lines()); got != total {
		t.Errorf("sink received %d lines after the stall, want %d", got, total)
	}
	if got := s.mSinkFailures.Value(); got != 0 {
		t.Errorf("sink_write_failures = %d, want 0", got)
	}
}

// TestSinkIntervalFlush checks a lone line reaches the sink without an
// explicit flush, on the flusher's interval.
func TestSinkIntervalFlush(t *testing.T) {
	s, _ := newTestService(t, options{window: time.Hour}, nil)
	w := &orderWriter{t: t, next: map[string]int64{}}
	s.out = &sink{w: w, name: "out"}
	s.startSinkFlusher()
	r := s.record(1, "10.5.5.5:9000", "cdn-01.svc1.example", 0, 0.5, 1, 1000)
	s.onConnOpen(r)
	deliver(s, r)
	for deadline := time.Now().Add(5 * time.Second); w.lines() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("a pending line was never flushed on the interval")
		}
		time.Sleep(sinkFlushEvery / 4)
	}
}
