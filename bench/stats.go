package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted slice: the smallest value with at least p of the
// samples at or below it. +Inf samples (failed operations) sort last,
// so they push a high percentile to +Inf instead of vanishing.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// supportedPercentile applies the reporting rule "the highest
// percentile with at least ten samples beyond it" to a tail that would
// be reported as p99: it returns the largest of p50, p90, p95 and p99
// that leaves >= 10 of n samples beyond it, the median when even p90
// has fewer.
func supportedPercentile(n int) float64 {
	best := 0.50
	for _, p := range []float64{0.90, 0.95, 0.99} {
		if float64(n)*(1-p) >= 10-1e-9 { // 100*(1-0.9) is 9.999999999999998
			best = p
		}
	}
	return best
}

// histogram is one Prometheus histogram family reassembled from its
// bucket series.
type histogram struct {
	bounds []float64 // finite le bounds, ascending
	counts []float64 // cumulative count at each bound
	total  float64   // cumulative count at +Inf
}

// quantile is the standard histogram_quantile estimate: linear
// interpolation inside the bucket containing rank q*total. ok is false
// for an empty histogram.
func (h *histogram) quantile(q float64) (v float64, ok bool) {
	if h == nil || h.total == 0 {
		return 0, false
	}
	rank := q * h.total
	prevBound, prevCount := 0.0, 0.0
	for i, b := range h.bounds {
		c := h.counts[i]
		if c >= rank {
			if c == prevCount {
				return b, true
			}
			return prevBound + (b-prevBound)*(rank-prevCount)/(c-prevCount), true
		}
		prevBound, prevCount = b, c
	}
	return prevBound, true
}

// scrape is one parsed /metrics response: unlabeled series by name
// (histogram _sum and _count included) plus the histogram families.
type scrape struct {
	values map[string]float64
	hists  map[string]*histogram
}

// value reports an unlabeled series; ok is false when the daemon does
// not export it, which callers render as "absent", never as a failure.
func (s *scrape) value(name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	v, ok := s.values[name]
	return v, ok
}

// parseScrape reads the Prometheus text format. Labeled series other
// than histogram buckets are skipped: the ledger reads totals.
func parseScrape(text string) (*scrape, error) {
	s := &scrape{values: map[string]float64{}, hists: map[string]*histogram{}}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", ln+1, line)
		}
		series, text := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: bad value %q", ln+1, text)
		}
		brace := strings.IndexByte(series, '{')
		if brace < 0 {
			s.values[series] = val
			continue
		}
		base, isBucket := strings.CutSuffix(series[:brace], "_bucket")
		le, hasLe := labelValue(series[brace:], "le")
		if !isBucket || !hasLe {
			continue
		}
		h := s.hists[base]
		if h == nil {
			h = &histogram{}
			s.hists[base] = h
		}
		if le == "+Inf" {
			h.total = val
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: bad le %q", ln+1, le)
		}
		h.bounds = append(h.bounds, bound)
		h.counts = append(h.counts, val)
	}
	return s, nil
}

// labelValue extracts one label's quoted value from a {k="v",...} block.
func labelValue(labels, key string) (string, bool) {
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
