package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// This file reads the daemon back: its /healthz, its exit status, a
// /metrics fetch and a minimal parser for the Prometheus text
// exposition format. The checks read
// unlabeled series only; histogram families are still reassembled, so a
// scrape with a malformed bucket line is rejected rather than trusted.

// histData is one parsed histogram family.
type histData struct {
	bounds []float64 // finite le bounds, ascending
	counts []int64   // cumulative count at each bound
	total  int64     // cumulative count at +Inf
	sum    float64
}

// scrapeData is one parsed /metrics response.
type scrapeData struct {
	values map[string]float64
	hists  map[string]*histData
}

// value returns an unlabeled series, or 0 when absent.
func (s *scrapeData) value(name string) float64 { return s.values[name] }

// scrape fetches and parses a daemon's /metrics, nil on any failure
// (the caller retries).
func scrape(base string) *scrapeData {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil
	}
	s, err := parseMetrics(string(body))
	if err != nil {
		return nil
	}
	return s
}

// healthReply is what the checks read from /healthz.
type healthReply struct {
	Status   string `json:"status"`
	Instance string `json:"instance"`
}

// healthz fetches a daemon's /healthz; the reply is empty when the
// endpoint does not answer.
func healthz(base string) healthReply {
	var h healthReply
	if resp, err := http.Get(base + "/healthz"); err == nil {
		json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
	}
	return h
}

// awaitExit waits for a daemon that has been sent SIGTERM to exit,
// killing it after 60s; the error says how the exit was unclean.
func awaitExit(cmd *exec.Cmd) error {
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("exited with %v", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		<-exited
		return fmt.Errorf("did not exit within 60s of SIGTERM")
	}
}

// parseMetrics parses a Prometheus text scrape, keeping unlabeled
// sample values and reassembling histogram bucket series. Labeled
// non-histogram series (the per-class prediction counters) are
// ignored; qoeload checks totals, not breakdowns.
func parseMetrics(text string) (*scrapeData, error) {
	s := &scrapeData{values: map[string]float64{}, hists: map[string]*histData{}}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", ln+1, line)
		}
		series, valText := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil && valText != "+Inf" {
			return nil, fmt.Errorf("metrics line %d: bad value %q", ln+1, valText)
		}
		if b := strings.IndexByte(series, '{'); b >= 0 {
			name, labels := series[:b], series[b:]
			base, ok := strings.CutSuffix(name, "_bucket")
			if !ok {
				continue // labeled non-histogram series: not needed
			}
			le, ok := cutLabel(labels, "le")
			if !ok {
				continue
			}
			h := s.hists[base]
			if h == nil {
				h = &histData{}
				s.hists[base] = h
			}
			if le == "+Inf" {
				h.total = int64(val)
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fmt.Errorf("metrics line %d: bad le %q", ln+1, le)
			}
			h.bounds = append(h.bounds, bound)
			h.counts = append(h.counts, int64(val))
			continue
		}
		if base, ok := strings.CutSuffix(series, "_sum"); ok && s.hists[base] != nil {
			s.hists[base].sum = val
		}
		s.values[series] = val
	}
	return s, nil
}

// cutLabel extracts one label's quoted value from a {k="v",...} block.
func cutLabel(labels, key string) (string, bool) {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return "", false
	}
	rest := labels[i+len(key)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}
