package main

import (
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// sinkChunkBytes is the pending size at which a producer writes a
	// sink's lines: one write(2) per ~64 KiB instead of one per record.
	sinkChunkBytes = 64 << 10
	// sinkFlushEvery bounds how long a line sits in a part-filled chunk,
	// so low-rate traffic reaches the file this soon after it commits.
	sinkFlushEvery = 100 * time.Millisecond
)

// sink is one transaction-record output (CSV or Squid log). mu guards
// pending and is held across its Write, so chunks reach w in the order
// their lines were appended, and a producer behind a slow writer waits
// for the write in progress: backpressure, never a drop. failing is the
// failure-burst state — set by the first failed write, cleared by the
// first success, so each burst logs once — and is atomic so /healthz
// can read it without the lock.
type sink struct {
	mu      sync.Mutex
	w       io.Writer
	name    string
	pending []byte
	failing atomic.Bool
}

// sinkWriter is the interval flusher and the byte/write tallies behind
// the qoeproxy_sink_* series.
type sinkWriter struct {
	stopFlush chan struct{} // unbuffered: a send returns once the flusher has stopped
	stop      sync.Once

	queued  atomic.Int64 // bytes appended and not yet written (or lost)
	written atomic.Int64 // bytes the sinks' writers accepted
	writes  atomic.Int64 // Write calls issued
}

// startSinkFlusher launches the goroutine that writes part-filled
// chunks every sinkFlushEvery, off the tick goroutine so a long
// classify pass does not delay them. The sinks must be in place.
func (s *service) startSinkFlusher() {
	s.sinks.stopFlush = make(chan struct{})
	go func() {
		tick := time.NewTicker(sinkFlushEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.sinks.stopFlush:
				return
			case <-tick.C:
				s.flushSinks()
			}
		}
	}()
}

// appendSink adds whole record lines to a sink's pending chunk and
// writes the chunk once it is full. A client's lines must be appended
// by calls ordered one after another (one source goroutine per client)
// to keep their order in the file.
func (s *service) appendSink(k *sink, lines []byte) {
	k.mu.Lock()
	s.sinks.queued.Add(int64(len(lines)))
	k.pending = append(k.pending, lines...)
	if len(k.pending) >= sinkChunkBytes {
		s.writeSink(k)
	}
	k.mu.Unlock()
}

// flushSinks writes every line appended before the call (or counts it
// as lost).
func (s *service) flushSinks() {
	for _, k := range [...]*sink{s.out, s.squid} {
		if k != nil {
			k.mu.Lock()
			if len(k.pending) > 0 {
				s.writeSink(k)
			}
			k.mu.Unlock()
		}
	}
}

// stopSinkWriter stops the flusher, if started, then writes what is
// pending. Idempotent; no appends may follow.
func (s *service) stopSinkWriter() {
	s.sinks.stop.Do(func() {
		if s.sinks.stopFlush != nil {
			s.sinks.stopFlush <- struct{}{}
		}
		s.flushSinks()
	})
}

// writeSink writes a sink's pending chunk and empties it; the caller
// holds k.mu. A failed or short write loses every line whose newline
// did not reach the writer, and each counts in
// qoeproxy_sink_write_failures_total.
func (s *service) writeSink(k *sink) {
	buf := k.pending
	k.pending = buf[:0]
	n, err := k.w.Write(buf)
	s.sinks.writes.Add(1)
	s.sinks.written.Add(int64(n))
	s.sinks.queued.Add(-int64(len(buf)))
	if err != nil {
		s.mSinkFailures.Add(int64(bytes.Count(buf[n:], []byte{'\n'})))
		if !k.failing.Swap(true) {
			s.log.Error("sink write failing, records dropped until it recovers",
				"sink", k.name, "err", err)
		}
		return
	}
	if k.failing.Swap(false) {
		s.log.Info("sink recovered", "sink", k.name)
	}
}

// sinksDegraded reports whether any configured sink is currently in a
// failure burst.
func (s *service) sinksDegraded() bool {
	return (s.out != nil && s.out.failing.Load()) || (s.squid != nil && s.squid.failing.Load())
}
