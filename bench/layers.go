package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/features"
	"droppackets/internal/ingest"
	"droppackets/internal/intern"
	"droppackets/internal/ml/compiled"
	"droppackets/internal/ml/forest"
	"droppackets/internal/sessionid"
	"droppackets/internal/squidlog"
	"droppackets/internal/tlsproxy"
)

// Span names. The in-process pipeline nests as
//
//	ingest.run > handler.open
//	           > handler.batch > sessionid.push
//	                           > core.tracked_observe
//	                           > tick > core.row > core.classify_block
//
// so ingest.run's self time is the source alone (read, parse, intern,
// reorder, batching) and handler.* self time is this file's own
// bookkeeping, which stands in for the daemon's commit glue and is
// counted in no layer. The isolated.* spans time leaf functions the
// source calls internally, in a separate pass under their own root.
const (
	spanRun int32 = iota
	spanOpen
	spanBatch
	spanPush
	spanObserve
	spanTick
	spanRow
	spanClassify
	spanIsolated
	spanParse
	spanIntern
	spanForest
	spanAccVector
)

var spanNames = []string{
	spanRun: "ingest.run", spanOpen: "handler.open", spanBatch: "handler.batch",
	spanPush: "sessionid.push", spanObserve: "core.tracked_observe",
	spanTick: "tick", spanRow: "core.row", spanClassify: "core.classify_block",
	spanIsolated: "isolated", spanParse: "isolated.squidlog.parse",
	spanIntern: "isolated.intern.lookup", spanForest: "isolated.compiled.forest_batch",
	spanAccVector: "isolated.features.accumulator.vector",
}

const (
	classifyBlock = 256    // the daemon's default -classify-batch
	clientTTL     = 3600.0 // the daemon's default -client-ttl, event seconds
	window        = 240.0  // the daemon's default -window, event seconds
)

// refClient is the reference pipeline's per-client state, the subset of
// the daemon's clientState that the layers under test need.
type refClient struct {
	streamer *sessionid.Streamer
	active   map[uint64]float64       // open connections' start times
	buffer   []capture.TLSTransaction // completed, not yet releasable, by start
	inFlight []capture.TLSTransaction // pushed, undecided
	tracked  *core.TrackedSession     // -window 0 workloads
	current  []capture.TLSTransaction // windowed workload: the ongoing session
	pending  []capture.TLSTransaction // per-tick scratch
	row      []float64
	last     float64 // latest activity, event seconds
}

// pushItem is one transaction released to the sessionizer in a batch.
type pushItem struct {
	c   *refClient
	txn capture.TLSTransaction
	dec []sessionid.Decision
}

// pipeline is the reference composition of the layers, built only from
// their public functions and driven by a real ingest source.
type pipeline struct {
	rec  *recorder
	w    *workload
	est  *core.Estimator
	rb   *core.RowBuilder
	base time.Time

	// tickEvery is the workload's tickRecords under -scale.
	tickEvery int
	clients   map[string]*refClient
	items     []pushItem
	rowOf     []*refClient
	block     []float64
	probs     []float64
	classes   []int
	run       int32 // the ingest.run span
	watermark float64
	sinceTick int

	records, batches, boundaries, observed int64
	rows, rowTxns, ticks                   int64
	// lastBlock is a copy of the most recent tick's row block and
	// sessions a sample of resident sessions, both for the isolated pass.
	lastBlock []float64
	sessions  [][]capture.TLSTransaction
}

func newPipeline(rec *recorder, pr *prepared, base time.Time) *pipeline {
	return &pipeline{
		rec: rec, w: pr.w, est: pr.est, rb: pr.est.NewRowBuilder(), base: base,
		tickEvery: max(1, int(float64(pr.w.tickRecords)*pr.scale)),
		clients:   map[string]*refClient{},
		probs:     make([]float64, classifyBlock*pr.est.NumClasses()),
		classes:   make([]int, classifyBlock),
	}
}

func (pl *pipeline) client(host string) *refClient {
	c := pl.clients[host]
	if c == nil {
		c = &refClient{streamer: sessionid.NewStreamer(sessionid.PaperParams), active: map[uint64]float64{}}
		if !pl.w.windowed {
			c.tracked = core.NewTrackedSession()
		}
		pl.clients[host] = c
	}
	return c
}

func (pl *pipeline) onOpen(r tlsproxy.Record) {
	id := pl.rec.begin(spanOpen, pl.run)
	start := r.Start.Sub(pl.base).Seconds()
	pl.watermark = max(pl.watermark, start)
	c := pl.client(r.ClientAddr)
	c.active[r.ConnID] = start
	c.last = max(c.last, start)
	pl.rec.end(id)
}

// onBatch commits one delivered batch in three loops — release, push,
// apply — so each layer gets one span per batch, not one per record.
func (pl *pipeline) onBatch(recs []tlsproxy.Record) {
	id := pl.rec.begin(spanBatch, pl.run)
	pl.batches++
	pl.records += int64(len(recs))
	pl.items = pl.items[:0]
	for _, r := range recs {
		txn := tlsproxy.ToCaptureTransaction(r, pl.base)
		pl.watermark = max(pl.watermark, txn.End)
		c := pl.client(r.ClientAddr)
		c.last = max(c.last, txn.End)
		delete(c.active, r.ConnID)
		// Connections end out of order; the sessionizer wants start order.
		i := sort.Search(len(c.buffer), func(j int) bool { return c.buffer[j].Start > txn.Start })
		c.buffer = append(c.buffer, capture.TLSTransaction{})
		copy(c.buffer[i+1:], c.buffer[i:])
		c.buffer[i] = txn
		pl.release(c)
	}

	push := pl.rec.begin(spanPush, id)
	for i := range pl.items {
		it := &pl.items[i]
		it.dec = it.c.streamer.Push(sessionid.Transaction{Start: it.txn.Start, End: it.txn.End, SNI: it.txn.SNI})
	}
	pl.rec.end(push)

	if pl.w.windowed {
		pl.apply()
	} else {
		obs := pl.rec.begin(spanObserve, id)
		pl.apply()
		pl.rec.end(obs)
	}

	if pl.sinceTick += len(recs); pl.sinceTick >= pl.tickEvery {
		pl.sinceTick = 0
		pl.tick(id)
	}
	pl.rec.end(id)
}

// release moves every buffered transaction at or before the client's
// watermark — the earliest start among its open connections — onto the
// batch's push list.
func (pl *pipeline) release(c *refClient) {
	bounded, wm := false, 0.0
	for _, s := range c.active {
		if !bounded || s < wm {
			bounded, wm = true, s
		}
	}
	n := 0
	for n < len(c.buffer) && !(bounded && c.buffer[n].Start > wm) {
		c.inFlight = append(c.inFlight, c.buffer[n])
		pl.items = append(pl.items, pushItem{c: c, txn: c.buffer[n]})
		n++
	}
	c.buffer = append(c.buffer[:0], c.buffer[n:]...)
}

// apply consumes the batch's sessionizer decisions: a boundary resets
// the session, every decided transaction joins it.
func (pl *pipeline) apply() {
	for i := range pl.items {
		c := pl.items[i].c
		for _, d := range pl.items[i].dec {
			full := c.inFlight[0]
			c.inFlight = append(c.inFlight[:0], c.inFlight[1:]...)
			if d.NewSession {
				pl.boundaries++
				if c.tracked != nil {
					c.tracked.Reset()
				} else {
					c.current = c.current[:0]
				}
			}
			if c.tracked != nil {
				c.tracked.Observe(full)
				pl.observed++
			} else {
				c.current = append(c.current, full)
			}
		}
	}
}

// tick is one simulated classify pass: expire idle clients, list the
// transactions each row covers, build the rows, score them in blocks.
func (pl *pipeline) tick(parent int32) {
	id := pl.rec.begin(spanTick, parent)
	pl.ticks++
	cutoff := pl.watermark - window
	pl.rowOf = pl.rowOf[:0]
	for host, c := range pl.clients {
		if len(c.active) == 0 && pl.watermark-c.last >= clientTTL {
			delete(pl.clients, host)
			continue
		}
		c.pending = c.pending[:0]
		if pl.w.windowed {
			for _, run := range [3][]capture.TLSTransaction{c.current, c.inFlight, c.buffer} {
				for _, t := range run {
					if t.End >= cutoff {
						c.pending = append(c.pending, t)
					}
				}
			}
			if len(c.pending) == 0 {
				continue
			}
			pl.rowTxns += int64(len(c.pending))
		} else {
			c.pending = append(append(c.pending, c.inFlight...), c.buffer...)
			if c.tracked.Len()+len(c.pending) == 0 {
				continue
			}
		}
		pl.rowOf = append(pl.rowOf, c)
	}

	rows := pl.rec.begin(spanRow, id)
	pl.block = pl.block[:0]
	for _, c := range pl.rowOf {
		if pl.w.windowed {
			c.row = pl.rb.FeatureRow(c.pending, c.row)
		} else {
			c.row = pl.est.TrackedRow(c.tracked, c.pending, c.row)
		}
		pl.block = append(pl.block, c.row...)
	}
	pl.rec.end(rows)

	cl := pl.rec.begin(spanClassify, id)
	stride, nc := pl.est.NumFeatures(), pl.est.NumClasses()
	for lo := 0; lo < len(pl.rowOf); lo += classifyBlock {
		n := min(classifyBlock, len(pl.rowOf)-lo)
		if err := pl.est.ClassifyBlockInto(pl.block[lo*stride:(lo+n)*stride], n, pl.probs[:n*nc], pl.classes[:n]); err != nil {
			panic(err) // the estimator is trained and the block is n x stride
		}
	}
	pl.rec.end(cl)
	pl.rows += int64(len(pl.rowOf))
	pl.rec.end(id)

	if pl.rec != nil {
		pl.lastBlock = append(pl.lastBlock[:0], pl.block...)
		pl.sessions = pl.sessions[:0]
		for _, c := range pl.rowOf[:min(len(pl.rowOf), 2000)] {
			if c.tracked != nil && c.tracked.Len() > 0 {
				pl.sessions = append(pl.sessions, append([]capture.TLSTransaction(nil), c.tracked.Transactions()...))
			}
		}
	}
}

// source opens the workload's traced prefix through the same ingest
// source type the daemon would use, with the daemon's defaults.
func (pl *pipeline) source(path string) (ingest.TransactionSource, time.Duration, error) {
	if pl.w.source == "replay" {
		t0 := time.Now()
		src, err := ingest.NewReplaySource(path, pl.base, 0, 1)
		return src, time.Since(t0), err
	}
	return &ingest.SquidSource{Path: path, Base: pl.base, EpochUnix: 0, Horizon: ingestHorizon}, 0, nil
}

// layerReport is what one traced run yields.
type layerReport struct {
	times       map[string]layerTime
	pl          *pipeline
	tracedWall  time.Duration
	plainWall   time.Duration
	replayLoad  time.Duration
	loadModel   time.Duration
	lines       int64
	malformed   int64
	lookups     int64
	misses      int64
	forestRows  int64
	accSessions int64
	spans       int
}

// runPipeline pushes the traced prefix through the reference
// composition once, with or without a recorder.
func runPipeline(rec *recorder, pr *prepared, path string) (*pipeline, time.Duration, time.Duration, error) {
	pl := newPipeline(rec, pr, time.Unix(0, 0))
	src, load, err := pl.source(path)
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	pl.run = rec.begin(spanRun, -1)
	err = src.Run(context.Background(), ingest.Handler{ConnOpen: pl.onOpen, TransactionBatch: pl.onBatch})
	rec.end(pl.run)
	return pl, time.Since(t0), load, err
}

// inputPrefix copies the first traceRecords records of the workload's
// input (after the daemon run, so the paced log is complete) to a file
// of its own and returns its path.
func inputPrefix(pr *prepared, dir string) (string, error) {
	in, err := os.Open(pr.input)
	if err != nil {
		return "", err
	}
	defer in.Close()
	path := filepath.Join(dir, "traced-prefix")
	out, err := os.Create(path)
	if err != nil {
		return "", err
	}
	lines := traceRecords
	if pr.w.source == "replay" {
		lines++ // the CSV header
	}
	br, bw := bufio.NewReaderSize(in, 1<<20), bufio.NewWriterSize(out, 1<<20)
	for ; lines > 0; lines-- {
		line, err := br.ReadSlice('\n')
		bw.Write(line)
		if err != nil {
			break
		}
	}
	if err := bw.Flush(); err != nil {
		out.Close()
		return "", err
	}
	return path, out.Close()
}

// tracedRun is the per-layer half of the benchmark. It replays the
// workload's first traceRecords records in-process twice — once plain,
// once with a span around every call into a layer — then times the
// leaf functions on the same bytes and rows, and writes the spans.
func tracedRun(pr *prepared, dir, spanFile string) (*layerReport, error) {
	path, err := inputPrefix(pr, dir)
	if err != nil {
		return nil, err
	}
	rep := &layerReport{}
	t0 := time.Now()
	mf, err := os.Open(pr.model)
	if err != nil {
		return nil, err
	}
	_, err = core.LoadEstimator(mf)
	mf.Close()
	if err != nil {
		return nil, err
	}
	rep.loadModel = time.Since(t0)

	if _, rep.plainWall, _, err = runPipeline(nil, pr, path); err != nil {
		return nil, fmt.Errorf("untraced pipeline: %w", err)
	}
	rec := newRecorder(pr.w.name, spanNames)
	if rep.pl, rep.tracedWall, rep.replayLoad, err = runPipeline(rec, pr, path); err != nil {
		return nil, fmt.Errorf("traced pipeline: %w", err)
	}
	if err := rep.isolated(rec, pr, path); err != nil {
		return nil, err
	}
	rep.times, rep.spans = rec.selfTimes(), len(rec.spans)
	return rep, rec.writeSpans(spanFile)
}

// isolated times the leaf functions the layers call internally, on the
// bytes and rows the pipeline just handled.
func (rep *layerReport) isolated(rec *recorder, pr *prepared, path string) error {
	root := rec.begin(spanIsolated, -1)
	defer rec.end(root)
	if pr.w.source == "squid" {
		if err := rep.isolatedParse(rec, root, path); err != nil {
			return err
		}
	}

	// ml/compiled on the last tick's rows, enough passes to score 200k.
	cf, err := compiledForest(pr.model)
	if err != nil {
		return err
	}
	stride := pr.est.NumFeatures()
	if n := len(rep.pl.lastBlock) / stride; n > 0 {
		probs := make([]float64, n*cf.NumClasses())
		out := make([]int, n)
		for rep.forestRows < 200_000 {
			id := rec.begin(spanForest, root)
			cf.PredictBatchInto(rep.pl.lastBlock, stride, probs, out)
			rec.end(id)
			rep.forestRows += int64(n)
		}
	}

	// features.Accumulator on a sample of resident sessions.
	var vec []float64
	for _, txns := range rep.pl.sessions {
		acc := features.NewAccumulator()
		for _, t := range txns {
			acc.Ingest(t)
		}
		id := rec.begin(spanAccVector, root)
		vec = acc.VectorInto(vec)
		rec.end(id)
		rep.accSessions++
	}
	return nil
}

// isolatedParse re-reads the log in blocks of lines, timing
// squidlog.ParseLineBytes and then intern.Table.Bytes over each block.
func (rep *layerReport) isolatedParse(rec *recorder, root int32, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	clients, hosts := intern.NewTable(), intern.NewTable()
	const blockLines = 512
	var buf []byte
	var offs []int
	views := make([]squidlog.EntryView, 0, blockLines)
	flush := func() {
		views = views[:0]
		id := rec.begin(spanParse, root)
		for i := 0; i+1 < len(offs); i++ {
			v, ok, err := squidlog.ParseLineBytes(bytes.TrimSpace(buf[offs[i]:offs[i+1]]))
			if err != nil {
				rep.malformed++
			} else if ok {
				views = append(views, v)
			}
		}
		rec.end(id)
		id = rec.begin(spanIntern, root)
		for _, v := range views {
			if _, added := clients.Bytes(v.Client); added {
				rep.misses++
			}
			if _, added := hosts.Bytes(v.Host); added {
				rep.misses++
			}
		}
		rec.end(id)
		rep.lines += int64(len(offs) - 1)
		rep.lookups += int64(2 * len(views))
		buf, offs = buf[:0], offs[:0]
	}
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if len(offs) == 0 {
				offs = append(offs, 0)
			}
			buf = append(buf, line...)
			offs = append(offs, len(buf))
			if len(offs) > blockLines {
				flush()
			}
		}
		if err == io.EOF {
			if len(offs) > 1 {
				flush()
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// compiledForest loads the saved model's forest and compiles it, the
// same scorer core.Estimator holds privately.
func compiledForest(modelPath string) (*compiled.Forest, error) {
	data, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, err
	}
	var saved struct {
		Model json.RawMessage `json:"model"`
	}
	if err := json.Unmarshal(data, &saved); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", modelPath, err)
	}
	f, err := forest.Load(bytes.NewReader(saved.Model))
	if err != nil {
		return nil, err
	}
	return compiled.CompileForest(f)
}
