package serve

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"droppackets/internal/capture"
	"droppackets/internal/core"
	"droppackets/internal/dataset"
	"droppackets/internal/has"
	"droppackets/internal/sessionid"
)

// TestAdvanceLongLivedConnection holds long-lived connections open
// across a client's traffic — sixty sessions of fifty transactions,
// each opened by a burst to new servers — so their starts pin the
// sessionizer watermark and thousands of completed transactions queue
// in the client's reorder buffer. Connection A spans sessions 0–39 and
// B sessions 20–59: closing A releases the buffered prefix up to B's
// start and leaves the rest queued; closing B releases that. The result
// must be what the offline heuristic gives on the same transactions:
// the same number of boundaries, and the last session's transactions,
// byte counts included, in start order.
func TestAdvanceLongLivedConnection(t *testing.T) {
	const (
		client   = "10.70.0.1"
		sessions = 60
		perSess  = 50
	)
	var reported int64
	c := New(6144, Hooks{Boundary: func(string, int64, int) { reported++ }})

	sessStart := func(k int) float64 { return float64(k*perSess) + 1 }
	end := sessStart(sessions) + 10
	connA := capture.TLSTransaction{SNI: "long-a.example", Start: 0, End: sessStart(40) - 0.1, UpBytes: 1, DownBytes: 10}
	connB := capture.TLSTransaction{SNI: "long-b.example", Start: sessStart(20) - 0.5, End: end, UpBytes: 2, DownBytes: 20}
	all := []capture.TLSTransaction{connA, connB}
	c.Open(client, 1, connA.Start)
	id := uint64(2)
	cl := c.clients[client]
	for k := 0; k < sessions; k++ {
		switch k {
		case 20:
			c.Open(client, 2, connB.Start)
		case 40:
			buffered := len(cl.buffer)
			c.Commit(client, 1, connA)
			released := 1 // A itself, then every transaction starting by B
			for _, txn := range all[2:] {
				if txn.Start <= connB.Start {
					released++
				}
			}
			if released == 1 || len(cl.buffer) != buffered+1-released {
				t.Fatalf("closing A left %d of %d buffered, want %d", len(cl.buffer), buffered+1, buffered+1-released)
			}
		}
		base := sessStart(k)
		for j := 0; j < perSess; j++ {
			start := base + float64(j)
			if j < 3 {
				start = base + 0.1*float64(j) // the opening burst
			}
			sni := fmt.Sprintf("s%d-%c.example", k, 'a'+j%3)
			id++
			txn := capture.TLSTransaction{SNI: sni, Start: start, End: start + 0.5, UpBytes: int64(id), DownBytes: int64(10 * id)}
			c.Open(client, id, start)
			c.Commit(client, id, txn)
			all = append(all, txn)
		}
	}
	if len(cl.buffer) < 1000 {
		t.Fatalf("only %d transactions buffered behind B", len(cl.buffer))
	}

	c.Commit(client, 2, connB)
	c.Drain(nil)

	split := sessionid.Split(all, sessionid.PaperParams)
	wantBoundaries := int64(split[len(split)-1].Index)
	if wantBoundaries < sessions {
		t.Fatalf("the offline heuristic finds %d boundaries, the trace was built with %d sessions", wantBoundaries, sessions)
	}
	if cl.boundaries != wantBoundaries || reported != wantBoundaries {
		t.Errorf("%d boundaries (reported %d), want %d", cl.boundaries, reported, wantBoundaries)
	}
	if len(cl.buffer) != 0 || len(cl.inFlight) != 0 {
		t.Errorf("%d buffered and %d in flight after the flush", len(cl.buffer), len(cl.inFlight))
	}
	tail := split[len(split)-1].Txns
	if len(cl.current) != len(tail) {
		t.Fatalf("last session holds %d transactions, want %d", len(cl.current), len(tail))
	}
	for i, txn := range cl.current {
		w := tail[i]
		// The run keeps no SNI; its times and byte counts must be the
		// transaction's own.
		if txn.start != w.Start || txn.end != w.End || txn.up != w.UpBytes || txn.down != w.DownBytes {
			t.Fatalf("last session transaction %d = %+v, want %+v", i, txn, w)
		}
	}
}

// event is one call of a Core input sequence: connection conn opens
// (open) or completes with txn.
type event struct {
	client string
	conn   uint64
	open   bool
	txn    capture.TLSTransaction
}

// feed plays events into c.
func feed(c *Core, events []event) {
	for _, e := range events {
		if e.open {
			c.Open(e.client, e.conn, e.txn.Start)
		} else {
			c.Commit(e.client, e.conn, e.txn)
		}
	}
}

// corpusEvents plays the corpus's sessions on numClients clients, each
// client's sessions back to back with a minute between them, as the
// Open and Commit calls a file source would make: every connection
// opens at its start and commits at its end, in time order. Each
// session also holds one long-lived connection open from just after
// its first transaction starts to its end, so at any point inside a
// session completed transactions wait behind an open connection.
func corpusEvents(t *testing.T, seed int64, sessions, numClients int) []event {
	t.Helper()
	traffic, err := dataset.Build(dataset.Config{Seed: seed, Sessions: sessions}, has.Svc1())
	if err != nil {
		t.Fatal(err)
	}
	next := make([]float64, numClients)
	var events []event
	for i, r := range traffic.Records {
		k := i % numClients
		client := fmt.Sprintf("10.20.0.%d", k+1)
		base, end := next[k], next[k]
		session := r.Capture.TLS
		long := capture.TLSTransaction{SNI: "long.example", Start: session[0].Start + 0.001, UpBytes: 1, DownBytes: 1}
		for _, txn := range session {
			long.End = max(long.End, txn.End)
		}
		for _, txn := range append(session[:len(session):len(session)], long) {
			txn.Start += base
			txn.End += base
			conn := uint64(len(events)/2 + 1)
			events = append(events,
				event{client: client, conn: conn, open: true, txn: txn},
				event{client: client, conn: conn, txn: txn})
			end = max(end, txn.End)
		}
		next[k] = end + 60
	}
	at := func(e event) float64 {
		if e.open {
			return e.txn.Start
		}
		return e.txn.End
	}
	sort.SliceStable(events, func(i, j int) bool { return at(events[i]) < at(events[j]) })
	return events
}

// saved returns a core's Save output sorted by client.
func saved(c *Core) []ClientState {
	st := c.Save(nil)
	sort.Slice(st, func(i, j int) bool { return st[i].Client < st[j].Client })
	return st
}

// finalView is a Final with its retained transactions, comparable.
type finalView struct {
	Final
	Recent []capture.TLSTransaction
}

// drained drains c and returns its Finals sorted by client.
func drained(c *Core) []finalView {
	var out []finalView
	for _, f := range c.Drain(nil) {
		v := finalView{Final: f, Recent: f.Transactions(nil)}
		v.Final.recent = nil
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// TestCoreDeterminism is the first row of the streaming-equals-offline
// oracle: a Core's output is a function of its call sequence. Two cores
// fed the same Open/Commit sequence Save and Drain identically; a core
// saved halfway and restored into a fresh core that takes the rest of
// the sequence ends identical to both; and every client's boundary
// count equals the offline heuristic's over the client's complete
// input.
func TestCoreDeterminism(t *testing.T) {
	events := corpusEvents(t, 23, 30, 4)
	const maxTxns = 64 // small enough that some sessions truncate

	fed := func() *Core {
		c := New(maxTxns, Hooks{})
		feed(c, events)
		return c
	}
	a, b := fed(), fed()
	wantSaved := saved(a)
	if got := saved(b); !reflect.DeepEqual(got, wantSaved) {
		t.Fatal("two cores fed the same calls Save differently")
	}
	finals := drained(a)
	if got := drained(b); !reflect.DeepEqual(got, finals) {
		t.Fatal("two cores fed the same calls Drain differently")
	}

	for _, cut := range []int{len(events) / 3, len(events) / 2, len(events) - 1} {
		first := New(maxTxns, Hooks{})
		feed(first, events[:cut])
		restored := New(maxTxns, Hooks{})
		for _, st := range first.Save(nil) {
			restored.Restore(&st, 0)
		}
		feed(restored, events[cut:])
		if got := saved(restored); !reflect.DeepEqual(got, wantSaved) {
			t.Fatalf("cut %d/%d: the restored core Saves differently from an uninterrupted one", cut, len(events))
		}
		if got := drained(restored); !reflect.DeepEqual(got, finals) {
			t.Fatalf("cut %d/%d: the restored core Drains differently from an uninterrupted one", cut, len(events))
		}
	}

	perClient := map[string][]capture.TLSTransaction{}
	for _, e := range events {
		if !e.open {
			perClient[e.client] = append(perClient[e.client], e.txn)
		}
	}
	if len(finals) != len(perClient) {
		t.Fatalf("%d clients drained, %d in the input", len(finals), len(perClient))
	}
	truncated := false
	for _, f := range finals {
		all := perClient[f.Client]
		split := sessionid.Split(all, sessionid.PaperParams)
		want := int64(split[len(split)-1].Index)
		if f.Boundaries != want || want < 2 {
			t.Errorf("client %s: %d boundaries, the offline heuristic finds %d", f.Client, f.Boundaries, want)
		}
		if f.Txns != int64(len(all)) {
			t.Errorf("client %s: %d transactions, the input has %d", f.Client, f.Txns, len(all))
		}
		truncated = truncated || len(f.Recent) < len(all)
	}
	if !truncated {
		t.Error("no client outgrew the retention cap; the truncation paths went untested")
	}
}

// pointerFree reports whether values of type t hold no pointer the GC
// would have to scan.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestRetainedRunsPointerFree pins the size and shape of what a client
// retains per transaction: the summary ring, the current session and
// the in-flight mirror hold 32-byte records with no pointer in them, so
// a resident client's transactions cost the GC nothing to scan.
func TestRetainedRunsPointerFree(t *testing.T) {
	rec := reflect.TypeOf(retained{})
	if !pointerFree(rec) {
		t.Fatalf("%v holds a pointer", rec)
	}
	if got := rec.Size(); got != 32 {
		t.Errorf("a retained transaction is %d bytes, want 32", got)
	}
	if pointerFree(reflect.TypeOf(capture.TLSTransaction{})) {
		t.Fatal("pointerFree misses the SNI string")
	}
	runs := map[string]reflect.Type{
		"txnRing.buf":     reflect.TypeOf(txnRing{}.buf),
		"client.current":  reflect.TypeOf(client{}.current),
		"client.inFlight": reflect.TypeOf(client{}.inFlight),
	}
	for name, typ := range runs {
		if typ.Kind() != reflect.Slice || typ.Elem() != rec {
			t.Errorf("%s is %v, want []%v", name, typ, rec)
		}
	}
}

// TestRestoreSnapshotWithSNIs restores the form of snapshot written
// before retained runs dropped their SNI: every saved run carries the
// SNI and HTTP count of its transactions. The restored core must build
// the same rows and drain to the same Finals as the uninterrupted one.
func TestRestoreSnapshotWithSNIs(t *testing.T) {
	events := corpusEvents(t, 29, 20, 3)
	sni := map[[2]float64]string{}
	for _, e := range events {
		sni[[2]float64{e.txn.Start, e.txn.End}] = e.txn.SNI
	}
	withSNIs := func(run []capture.TLSTransaction) {
		for i := range run {
			run[i].SNI = sni[[2]float64{run[i].Start, run[i].End}]
			run[i].HTTPCount = 1 + i%4
		}
	}
	rb := core.NewEstimator(core.Config{}).NewRowBuilder()
	const maxTxns = 64
	whole := New(maxTxns, Hooks{})
	feed(whole, events)

	cut := len(events) / 2
	first := New(maxTxns, Hooks{})
	feed(first, events[:cut])
	restored := New(maxTxns, Hooks{})
	carried := 0
	for _, st := range first.Save(nil) {
		for _, run := range [][]capture.TLSTransaction{st.InFlight, st.Current, st.Recent} {
			withSNIs(run)
			for _, t := range run {
				if t.SNI != "" {
					carried++
				}
			}
		}
		restored.Restore(&st, 0)
	}
	if carried == 0 {
		t.Fatal("no saved run carried an SNI; the old snapshot form went untested")
	}
	feed(restored, events[cut:])

	rows := 0
	for _, st := range saved(whole) {
		for _, cutoff := range []float64{math.Inf(-1), st.LastActivity - 30, st.LastActivity} {
			want := append([]float64(nil), whole.Row(rb, st.Client, cutoff)...)
			got := restored.Row(rb, st.Client, cutoff)
			if len(want) > 0 {
				rows++
			}
			if len(got) != len(want) {
				t.Fatalf("client %s cutoff %v: row of %d values, want %d", st.Client, cutoff, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("client %s cutoff %v: feature %d = %v, want %v", st.Client, cutoff, i, got[i], want[i])
				}
			}
		}
	}
	if rows == 0 {
		t.Fatal("no client had a row to compare")
	}
	if got, want := drained(restored), drained(whole); !reflect.DeepEqual(got, want) {
		t.Fatal("the core restored from an SNI-carrying snapshot drains differently from an uninterrupted one")
	}
}
