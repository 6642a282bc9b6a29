package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"droppackets/internal/core"
	"droppackets/internal/qoe"
)

// classNames are the daemon's display names for the model's classes,
// index-aligned with core.Estimator.Classify's result.
var classNames = core.ClassNames(qoe.MetricCombined)

// ingestHorizon is the daemon's default -ingest-horizon in event seconds.
const ingestHorizon = 300.0

// buildDaemon compiles cmd/qoeproxy from the checkout at root into out.
func buildDaemon(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/qoeproxy")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cmd/qoeproxy in %s: %w", root, err)
	}
	return nil
}

// verdict is the daemon's last word on one client: the tuple on its
// "client evicted" log line or its line of the shutdown summary.
type verdict struct {
	have         bool
	transactions int64
	boundaries   int64
	class        int // index into classNames, -1 when the line named none
}

// backlogSample is one sampler reading during the paced run.
type backlogSample struct {
	at       time.Time
	appended int64 // lines the generator had written
	ingested int64 // qoeproxy_transactions_total
}

// observed is everything the harness saw of one daemon run, all of it
// from outside the process.
type observed struct {
	// started is the exec; ingesting and complete are when the harness
	// read the daemon's "ingesting" and "ingest complete" log lines (for
	// the paced workload complete is when the last slice was written).
	started, ingesting, complete time.Time
	startupS, shutdownS          float64
	cpuUser, cpuSys              time.Duration
	rssPeakKB                    int64
	rssKB                        []float64 // VmRSS at every sampler tick
	stderrLines, errorLines      int64
	// firstVerdict is, per client, when the harness first read a line
	// carrying a verdict for it — a "classification" or "client evicted"
	// log line — in nanoseconds since started; 0 means none before exit.
	firstVerdict []int64
	verdicts     []verdict
	final        *scrape
	healthz      string
	sinkPath     string
	scrapeMs     []float64
	// exited is when the log reached EOF, in nanoseconds since started.
	exited int64

	// Paced workload only.
	paceStart     time.Time
	late          []time.Duration
	samples       []backlogSample
	ingestedAtEnd int64 // transactions_total right after the last slice
}

var (
	msgClassification = []byte(`"msg":"classification"`)
	msgEvicted        = []byte(`"msg":"client evicted"`)
	msgIngesting      = []byte(`"msg":"ingesting"`)
	msgComplete       = []byte(`"msg":"ingest complete"`)
	msgMetrics        = []byte(`"msg":"metrics listening"`)
	levelError        = []byte(`"level":"ERROR"`)

	keyClient       = []byte(`"client":"`)
	keyClass        = []byte(`"class":"`)
	keyAddr         = []byte(`"addr":"`)
	keyTransactions = []byte(`"transactions":`)
	keyBoundaries   = []byte(`"boundaries":`)
)

// strField returns the value of a string attribute in a slog JSON line
// by substring search — the per-client lines arrive by the hundred
// thousand and are never JSON-decoded. Values here (addresses, class
// names) contain no escapes. key is the attribute's `"name":"` prefix.
func strField(line, key []byte) []byte {
	i := bytes.Index(line, key)
	if i < 0 {
		return nil
	}
	rest := line[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil
	}
	return rest[:j]
}

// intField returns an integer attribute of a slog JSON line; key is the
// attribute's `"name":` prefix.
func intField(line, key []byte) (int64, bool) {
	i := bytes.Index(line, key)
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(key):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || (rest[j] >= '0' && rest[j] <= '9')) {
		j++
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return v, err == nil
}

func classIndex(name []byte) int {
	for i, n := range classNames {
		if string(name) == n {
			return i
		}
	}
	return -1
}

// logEvents carries the one-off log lines the main goroutine waits on.
type logEvents struct {
	metricsAddr chan string
	ingesting   chan time.Time
	complete    chan time.Time
	done        chan struct{} // closed at stderr EOF
}

// readStderr is the single reader of the daemon's log. It timestamps
// the lines that mark the timed region, records each client's first
// verdict time and eviction tuple, and counts lines.
func readStderr(r io.Reader, pr *prepared, ob *observed, ev *logEvents) {
	defer close(ev.done)
	defer func() { ob.exited = int64(time.Since(ob.started)) }()
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 && err != bufio.ErrBufferFull {
			ob.stderrLines++
			switch {
			case bytes.Contains(line, msgClassification):
				if i, ok := pr.index[string(strField(line, keyClient))]; ok && ob.firstVerdict[i] == 0 {
					ob.firstVerdict[i] = int64(time.Since(ob.started))
				}
			case bytes.Contains(line, msgEvicted):
				if i, ok := pr.index[string(strField(line, keyClient))]; ok {
					if ob.firstVerdict[i] == 0 {
						ob.firstVerdict[i] = int64(time.Since(ob.started))
					}
					v := verdict{have: true, class: classIndex(strField(line, keyClass))}
					v.transactions, _ = intField(line, keyTransactions)
					v.boundaries, _ = intField(line, keyBoundaries)
					ob.verdicts[i] = v
				}
			case bytes.Contains(line, msgIngesting):
				ev.ingesting <- time.Now()
			case bytes.Contains(line, msgComplete):
				ev.complete <- time.Now()
			case bytes.Contains(line, msgMetrics):
				ev.metricsAddr <- string(strField(line, keyAddr))
			case bytes.Contains(line, levelError):
				ob.errorLines++
				fmt.Fprintf(os.Stderr, "bench: daemon error: %s", line)
			}
		}
		if err != nil && err != bufio.ErrBufferFull {
			return
		}
	}
}

// scrapeMetrics fetches and parses /metrics, reporting how long the
// GET took.
func scrapeMetrics(base string) (*scrape, time.Duration, error) {
	t0 := time.Now()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	s, err := parseScrape(string(body))
	return s, took, err
}

// sample runs the sampler: a scrape every period until stop closes. It
// times each GET and pairs the daemon's transaction count with the
// generator's progress (zero throughout on the backlog workloads).
func sample(base string, pid int, period time.Duration, ob *observed, appended *atomic.Int64, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if kb, err := procStatusKB(pid, "VmRSS"); err == nil {
			ob.rssKB = append(ob.rssKB, float64(kb))
		}
		s, took, err := scrapeMetrics(base)
		if err != nil {
			continue
		}
		ob.scrapeMs = append(ob.scrapeMs, float64(took)/1e6)
		n, _ := s.value("qoeproxy_transactions_total")
		ob.samples = append(ob.samples, backlogSample{at: time.Now(), appended: appended.Load(), ingested: int64(n)})
	}
}

// procStatusKB reads one kB-valued field ("VmRSS", "VmHWM") of a
// process's /proc status.
func procStatusKB(pid int, field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(field+":")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseInt(string(f[0]), 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// runDaemon executes the real daemon binary on a prepared workload and
// returns what was observed. Only flags that every planned simplification
// of the daemon keeps are used; everything else is the daemon's default.
func runDaemon(pr *prepared, dir string) (ob *observed, err error) {
	sink := filepath.Join(dir, "sink.csv")
	stdoutPath := filepath.Join(dir, "stdout.txt")
	os.Remove(sink) // the daemon appends
	if pr.w.paced {
		if err := os.WriteFile(pr.input, nil, 0o644); err != nil {
			return nil, err
		}
	}
	stdout, err := os.Create(stdoutPath)
	if err != nil {
		return nil, err
	}
	defer stdout.Close()

	args := []string{
		"-listen", "127.0.0.1:0", "-upstream", "127.0.0.1:1", "-metrics", "127.0.0.1:0",
		"-model", pr.model, "-out", sink, "-source", pr.w.source, "-input", pr.input,
	}
	cmd := exec.Command(pr.bin, append(args, pr.w.flags...)...)
	cmd.Stdout = stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	ob = &observed{
		sinkPath:     sink,
		firstVerdict: make([]int64, len(pr.clients)),
		verdicts:     make([]verdict, len(pr.clients)),
	}
	ev := &logEvents{
		metricsAddr: make(chan string, 1),
		ingesting:   make(chan time.Time, 1),
		complete:    make(chan time.Time, 1),
		done:        make(chan struct{}),
	}
	ob.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go readStderr(stderr, pr, ob, ev)
	// Any early return kills the daemon and reaps it, so no process
	// outlives the harness.
	reaped := false
	defer func() {
		if !reaped {
			cmd.Process.Kill()
			<-ev.done
			cmd.Wait()
		}
	}()

	deadline := time.After(150 * time.Second)
	var base string
	for base == "" || ob.ingesting.IsZero() {
		select {
		case addr := <-ev.metricsAddr:
			base = "http://" + addr
		case ob.ingesting = <-ev.ingesting:
		case <-ev.done:
			return nil, fmt.Errorf("daemon exited during start-up")
		case <-deadline:
			return nil, fmt.Errorf("daemon did not start ingesting within 150s")
		}
	}
	ob.startupS = ob.ingesting.Sub(ob.started).Seconds()

	var appended atomic.Int64
	stopSampler, samplerDone := make(chan struct{}), make(chan struct{})
	go sample(base, cmd.Process.Pid, 500*time.Millisecond, ob, &appended, stopSampler, samplerDone)
	samplerStopped := false
	stopSampling := func() {
		if !samplerStopped {
			samplerStopped = true
			close(stopSampler)
			<-samplerDone
		}
	}
	defer stopSampling()

	if pr.w.paced {
		if err := runPaced(pr, ob, base, &appended); err != nil {
			return nil, err
		}
	} else {
		select {
		case ob.complete = <-ev.complete:
		case <-ev.done:
			return nil, fmt.Errorf("daemon exited before completing ingest")
		case <-deadline:
			return nil, fmt.Errorf("ingest did not complete within 150s")
		}
	}
	stopSampling()

	if ob.final, _, err = scrapeMetrics(base); err != nil {
		return nil, fmt.Errorf("final scrape: %w", err)
	}
	ob.healthz = healthz(base)
	if ob.rssPeakKB, err = procStatusKB(cmd.Process.Pid, "VmHWM"); err != nil {
		return nil, err
	}
	// One closing sample, so even a run shorter than the sampler's
	// period has a resident-set reading.
	kb, err := procStatusKB(cmd.Process.Pid, "VmRSS")
	if err != nil {
		return nil, err
	}
	ob.rssKB = append(ob.rssKB, float64(kb))

	termAt := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	select {
	case <-ev.done:
	case <-time.After(60 * time.Second):
		return nil, fmt.Errorf("daemon did not exit within 60s of SIGTERM")
	}
	waitErr := cmd.Wait()
	reaped = true
	ob.shutdownS = time.Since(termAt).Seconds()
	if waitErr != nil {
		return nil, fmt.Errorf("daemon exited with %w", waitErr)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	ob.cpuUser = time.Duration(ru.Utime.Nano())
	ob.cpuSys = time.Duration(ru.Stime.Nano())

	if err := readSummary(stdoutPath, pr, ob); err != nil {
		return nil, err
	}
	return ob, nil
}

// runPaced drives the open-loop generator against the tailing daemon,
// then waits for the daemon to finish what it can deliver before the
// shutdown flush: records within the reorder horizon of the log's last
// end time stay buffered until SIGTERM.
func runPaced(pr *prepared, ob *observed, base string, appended *atomic.Int64) error {
	log, err := os.OpenFile(pr.input, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer log.Close()
	if ob.paceStart, ob.late, err = pace(wallClock{}, log, pr.sched, paceSlice, appended); err != nil {
		return fmt.Errorf("appending to the log: %w", err)
	}
	ob.complete = time.Now()
	if s, _, err := scrapeMetrics(base); err == nil {
		n, _ := s.value("qoeproxy_transactions_total")
		ob.ingestedAtEnd = int64(n)
	}
	// Settle: stop once the count has held still for a second.
	last, held := int64(-1), 0
	for waited := 0; held < 10 && waited < 100; waited++ {
		time.Sleep(100 * time.Millisecond)
		s, _, err := scrapeMetrics(base)
		if err != nil {
			continue
		}
		n, _ := s.value("qoeproxy_transactions_total")
		if int64(n) == last {
			held++
		} else {
			last, held = int64(n), 0
		}
	}
	return nil
}

// healthz returns the daemon's /healthz status string.
func healthz(base string) string {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return "unreachable"
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) != nil {
		return "undecodable"
	}
	return h.Status
}

// readSummary parses the shutdown summary the daemon prints for every
// client still resident at SIGTERM:
//
//	client 10.0.0.1   sessions-qoe=high (12 transactions, 1 boundaries)
func readSummary(path string, pr *prepared, ob *observed) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var client, class string
		var v verdict
		if _, err := fmt.Sscanf(sc.Text(), "client %s sessions-qoe=%s (%d transactions, %d boundaries)",
			&client, &class, &v.transactions, &v.boundaries); err != nil {
			continue
		}
		i, ok := pr.index[client]
		if !ok {
			return fmt.Errorf("shutdown summary names unknown client %q", client)
		}
		if ob.verdicts[i].have {
			return fmt.Errorf("client %s has both an eviction and a shutdown verdict", client)
		}
		v.have, v.class = true, classIndex([]byte(class))
		ob.verdicts[i] = v
	}
	return sc.Err()
}

// countSink counts the data lines (all but the header) and bytes of the
// daemon's -out CSV.
func countSink(path string) (lines, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	for {
		n, err := f.Read(buf)
		lines += int64(bytes.Count(buf[:n], []byte{'\n'}))
		size += int64(n)
		if err == io.EOF {
			return lines - 1, size, nil
		}
		if err != nil {
			return 0, 0, err
		}
	}
}
