package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"droppackets/internal/tlsproxy"
)

// benchLog renders a bounded access log of good CONNECT lines with the
// client/SNI reuse a real vantage point shows (a handful of services,
// a few hundred subscribers), so the intern table and batch paths see
// realistic hit rates.
func benchLog(b *testing.B, lines int) (path string, size int64) {
	b.Helper()
	var sb strings.Builder
	state := uint64(7)
	rnd := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	end := 10.0
	for i := 0; i < lines; i++ {
		end += float64(rnd(200)) / 1000
		start := end - float64(1+rnd(8000))/1000
		if start < 0 {
			start = 0
		}
		client := fmt.Sprintf("10.4.%d.%d", rnd(3), rnd(250)+1)
		sni := fmt.Sprintf("cdn%d.video.example", rnd(12))
		sb.WriteString(squidLine(client, sni, start, end, int64(rnd(100000)), int64(rnd(4000000))))
	}
	path = filepath.Join(b.TempDir(), "access.log")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		b.Fatal(err)
	}
	return path, int64(sb.Len())
}

// BenchmarkIngestEndToEnd replays a pre-rendered 20k-line access log
// through SquidSource at the daemon's default batch size, reporting
// records/s alongside the usual per-op numbers. scripts/check.sh runs
// one iteration as a smoke; figures to quote come from bench/.
func BenchmarkIngestEndToEnd(b *testing.B) {
	const lines = 20_000
	path, size := benchLog(b, lines)
	b.ReportAllocs()
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		src := &SquidSource{Path: path, Base: time.Unix(0, 0), EpochUnix: 0,
			Horizon: 30, Follow: false}
		var n int64
		h := Handler{TransactionBatch: func(recs []tlsproxy.Record) { n += int64(len(recs)) }}
		if err := src.Run(context.Background(), h); err != nil {
			b.Fatal(err)
		}
		if n != lines {
			b.Fatalf("delivered %d records, want %d", n, lines)
		}
	}
	b.ReportMetric(float64(lines)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
