package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, stored compactly because a
// traced run records a few per record: name indexes the recorder's
// name table, parent is the index of the span that caused this one
// (-1 for a root), times are nanoseconds since the recorder started.
type span struct {
	name, parent int32
	start, end   int64
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: begin and end return at once without reading
// the clock, which is how the overhead baseline runs the same pipeline.
type recorder struct {
	workload string
	names    []string
	t0       time.Time
	now      func() time.Time
	spans    []span
}

func newRecorder(workload string, names []string) *recorder {
	return &recorder{workload: workload, names: names, t0: time.Now(), now: time.Now}
}

// begin opens a span of names[name] under parent and returns its index.
func (r *recorder) begin(name, parent int32) int32 {
	if r == nil {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: parent, start: int64(r.now().Sub(r.t0))})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].end = int64(r.now().Sub(r.t0))
}

// layerTime aggregates every span of one name.
type layerTime struct {
	calls int
	total time.Duration // sum of span durations
	self  time.Duration // total minus the time child spans cover
}

// selfTimes computes, per span name, the call count, the summed
// duration and the summed self time: a span's duration minus the part
// of its interval that its direct children cover (overlapping children
// are merged first, and a child is clipped to its parent). Children
// are recorded after their parent, in start order.
func (r *recorder) selfTimes() map[string]layerTime {
	covered := make([]int64, len(r.spans))
	edge := make([]int64, len(r.spans)) // per parent: everything before edge is counted
	for i, s := range r.spans {
		edge[i] = s.start
		if s.parent < 0 {
			continue
		}
		p := r.spans[s.parent]
		lo, hi := max(s.start, edge[s.parent]), min(s.end, p.end)
		if hi > lo {
			covered[s.parent] += hi - lo
			edge[s.parent] = hi
		}
	}
	out := map[string]layerTime{}
	for i, s := range r.spans {
		lt := out[r.names[s.name]]
		lt.calls++
		lt.total += time.Duration(s.end - s.start)
		lt.self += time.Duration(s.end - s.start - covered[i])
		out[r.names[s.name]] = lt
	}
	return out
}

// maxSpansWritten bounds the span file. Spans are written in recording
// order and a parent always precedes its children, so the prefix is a
// complete tree of the run's beginning; the totals in the header cover
// every span.
const maxSpansWritten = 200_000

// writeSpans dumps the recorded spans as one JSON document: a header
// with per-name totals over all spans, then the first maxSpansWritten
// spans as {id, parent, name, workload, start_ns, end_ns}.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	type total struct {
		Name    string `json:"name"`
		Calls   int    `json:"calls"`
		TotalNs int64  `json:"total_ns"`
		SelfNs  int64  `json:"self_ns"`
	}
	var totals []total
	for name, lt := range r.selfTimes() {
		totals = append(totals, total{name, lt.calls, int64(lt.total), int64(lt.self)})
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i].Name < totals[j].Name })
	head, err := json.Marshal(map[string]any{
		"workload": r.workload, "spans_recorded": len(r.spans),
		"spans_written": min(len(r.spans), maxSpansWritten), "totals": totals,
	})
	if err != nil {
		f.Close()
		return err
	}
	// Splice the span array into the header object by hand: encoding
	// 200k maps through encoding/json would dominate the traced run.
	bw.Write(head[:len(head)-1])
	bw.WriteString(`,"spans":[`)
	enc := json.NewEncoder(bw)
	for i, s := range r.spans[:min(len(r.spans), maxSpansWritten)] {
		if i > 0 {
			bw.WriteByte(',')
		}
		enc.Encode(struct {
			ID       int    `json:"id"`
			Parent   int32  `json:"parent"`
			Name     string `json:"name"`
			Workload string `json:"workload"`
			StartNs  int64  `json:"start_ns"`
			EndNs    int64  `json:"end_ns"`
		}{i, s.parent, r.names[s.name], r.workload, s.start, s.end})
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
