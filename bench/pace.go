package main

import (
	"io"
	"sync/atomic"
	"time"
)

// clock is the scheduler's view of time; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule is a rendered access log with the instant each line is due,
// measured from the start of the run. Lines are in due order.
type schedule struct {
	buf  []byte          // every line, newline-terminated
	ends []int           // ends[i] is the offset just past line i
	due  []time.Duration // non-decreasing
}

// pace is the open-loop generator: it wakes at every multiple of slice
// and appends, in one write, every line that has fallen due — whether
// or not the reader of w is keeping up. A wake-up that comes late is
// not compensated by shifting later due times, so a stall shows as
// lateness on the lines it delayed and nowhere else. late[i] is how
// long after its due time line i's write completed; appended is
// advanced after every write so a sampler can compute the backlog.
func pace(c clock, w io.Writer, sch *schedule, slice time.Duration, appended *atomic.Int64) (start time.Time, late []time.Duration, err error) {
	start = c.Now()
	late = make([]time.Duration, len(sch.due))
	next := 0
	for k := 1; next < len(sch.due); k++ {
		if d := time.Duration(k)*slice - c.Now().Sub(start); d > 0 {
			c.Sleep(d)
		}
		elapsed := c.Now().Sub(start)
		hi := next
		for hi < len(sch.due) && sch.due[hi] <= elapsed {
			hi++
		}
		if hi == next {
			continue
		}
		lo := 0
		if next > 0 {
			lo = sch.ends[next-1]
		}
		if _, err := w.Write(sch.buf[lo:sch.ends[hi-1]]); err != nil {
			return start, late[:next], err
		}
		wrote := c.Now().Sub(start)
		for i := next; i < hi; i++ {
			late[i] = wrote - sch.due[i]
		}
		next = hi
		appended.Store(int64(next))
	}
	return start, late, nil
}
