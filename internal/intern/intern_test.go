package intern

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestBytesCanonical(t *testing.T) {
	tab := NewTable()
	a, added := tab.Bytes([]byte("10.0.0.5"))
	if !added {
		t.Fatal("first sighting not reported as added")
	}
	b, added := tab.Bytes([]byte("10.0.0.5"))
	if added {
		t.Fatal("second sighting reported as added")
	}
	if a != b {
		t.Fatalf("values differ: %q vs %q", a, b)
	}
	if got := tab.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	if s, added := tab.String("10.0.0.5"); added || s != a {
		t.Fatalf("String = (%q, %v), want (%q, false)", s, added, a)
	}
	if _, added := tab.String("10.0.0.6"); !added {
		t.Fatal("String first sighting not reported as added")
	}
	if got := tab.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// TestStringCopiesFirstSighting checks that String does not keep its
// argument's backing array: interning a field sliced out of a whole
// line must not pin the line.
func TestStringCopiesFirstSighting(t *testing.T) {
	tab := NewTable()
	line := "10.0.0.5:40001,cdn.example,0,1,2,3"
	s, added := tab.String(line[:14])
	if !added || s != "10.0.0.5:40001" {
		t.Fatalf("String = (%q, %v)", s, added)
	}
	if unsafe.StringData(s) == unsafe.StringData(line) {
		t.Fatal("interned value shares the line's backing array")
	}
	if again, _ := tab.String(line[:14]); unsafe.StringData(again) != unsafe.StringData(s) {
		t.Fatal("second sighting returned a different copy")
	}
}

func TestEmptyValue(t *testing.T) {
	tab := NewTable()
	if s, added := tab.Bytes(nil); s != "" || !added {
		t.Fatalf("Bytes(nil) = (%q, %v)", s, added)
	}
	if s, added := tab.Bytes([]byte{}); s != "" || added {
		t.Fatalf("Bytes(empty) = (%q, %v)", s, added)
	}
	if got := tab.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

// TestConcurrent drives the table from many goroutines under -race:
// every distinct value must be added exactly once, and all callers must
// receive the same canonical string.
func TestConcurrent(t *testing.T) {
	const (
		goroutines = 8
		values     = 200
	)
	tab := NewTable()
	var addedTotal [goroutines]int
	var wg sync.WaitGroup
	results := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]string, values)
			buf := make([]byte, 0, 32)
			for i := 0; i < values; i++ {
				buf = fmt.Appendf(buf[:0], "client-%d", i)
				s, added := tab.Bytes(buf)
				if added {
					addedTotal[g]++
				}
				results[g][i] = s
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range addedTotal {
		total += n
	}
	if total != values {
		t.Fatalf("added %d distinct values, want %d", total, values)
	}
	if tab.Len() != values {
		t.Fatalf("Len = %d, want %d", tab.Len(), values)
	}
	for g := 1; g < goroutines; g++ {
		for i := 0; i < values; i++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d value %d: %q != %q", g, i, results[g][i], results[0][i])
			}
		}
	}
}

// TestHitPathAllocs pins the reason the table exists: looking up a
// value already in the table allocates nothing.
func TestHitPathAllocs(t *testing.T) {
	tab := NewTable()
	keys := [][]byte{
		[]byte("10.0.0.5"),
		[]byte("cdn.example"),
		[]byte("video-7.cdn.example"),
	}
	for _, k := range keys {
		tab.Bytes(k)
	}
	if n := testing.AllocsPerRun(1000, func() {
		for _, k := range keys {
			if _, added := tab.Bytes(k); added {
				t.Fatal("unexpected add on hit path")
			}
		}
	}); n != 0 {
		t.Fatalf("hit path allocates %v per %d lookups, want 0", n, len(keys))
	}
}

func TestRotateReleasesIdle(t *testing.T) {
	tab := NewTable()
	tab.Bytes([]byte("active"))
	tab.Bytes([]byte("idle"))
	tab.Rotate() // both demoted to prev
	// "active" is sighted again: promoted, not counted as new.
	if s, added := tab.Bytes([]byte("active")); added || s != "active" {
		t.Fatalf("promotion = (%q, %v), want (active, false)", s, added)
	}
	if got := tab.Len(); got != 2 {
		t.Fatalf("Len after promote = %d, want 2", got)
	}
	tab.Rotate() // "idle" idle for two generations: dropped
	if got := tab.Len(); got != 1 {
		t.Fatalf("Len after second rotate = %d, want 1", got)
	}
	// A released value resurfacing counts as a fresh sighting.
	if _, added := tab.Bytes([]byte("idle")); !added {
		t.Fatal("released value not re-added")
	}
}

// TestChurnBounded is the leak regression: a daemon interning a
// never-repeating stream of client addresses must not grow without
// bound as long as Rotate runs periodically. Growth is bounded by two
// generations of the per-interval working set.
func TestChurnBounded(t *testing.T) {
	const (
		rounds   = 50
		perRound = 500
	)
	tab := NewTable()
	buf := make([]byte, 0, 32)
	peak := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			buf = fmt.Appendf(buf[:0], "client-%d-%d", r, i)
			tab.Bytes(buf)
		}
		if n := tab.Len(); n > peak {
			peak = n
		}
		tab.Rotate()
	}
	// Without release the table would hold rounds*perRound = 25000
	// strings; with two generations it can never exceed 2 intervals.
	if limit := 2 * perRound; peak > limit {
		t.Fatalf("peak table size %d exceeds two-generation bound %d", peak, limit)
	}
	if got := tab.Len(); got > perRound {
		t.Fatalf("final Len = %d, want <= %d", got, perRound)
	}
}

// TestRestoreWaveDoesNotResurrect pins the snapshot-restore contract:
// a warm restart decodes thousands of client addresses from a snapshot
// envelope and holds them in serving state, but those externally-held
// copies must never re-enter or pin the interner — only live ingest
// sightings do. Equal-valued strings held elsewhere must not keep
// entries alive across rotations or count as prior sightings.
func TestRestoreWaveDoesNotResurrect(t *testing.T) {
	const perRound = 500
	tab := NewTable()
	buf := make([]byte, 0, 32)

	// A pre-restart working set gets interned, then released by two
	// rotations (the instance drained and its clients went quiet).
	external := make([]string, 0, perRound)
	for i := 0; i < perRound; i++ {
		buf = fmt.Appendf(buf[:0], "restored-%d", i)
		s, _ := tab.Bytes(buf)
		// Simulate the restore path: a distinct, equal-valued copy held
		// by the rebuilt serving state (JSON decode never returns the
		// interner's canonical string).
		external = append(external, string(append([]byte(nil), s...)))
	}
	tab.Rotate()
	tab.Rotate()
	if got := tab.Len(); got != 0 {
		t.Fatalf("Len after release = %d, want 0; external copies pinned the table", got)
	}

	// Post-restore churn stays inside the two-generation bound even
	// while the restored state keeps its copies alive.
	peak := 0
	for r := 0; r < 20; r++ {
		for i := 0; i < perRound; i++ {
			buf = fmt.Appendf(buf[:0], "churn-%d-%d", r, i)
			tab.Bytes(buf)
		}
		if n := tab.Len(); n > peak {
			peak = n
		}
		tab.Rotate()
	}
	if limit := 2 * perRound; peak > limit {
		t.Fatalf("peak %d exceeds two-generation bound %d during restore-wave churn", peak, limit)
	}

	// When a restored client finally sends live traffic, its address is
	// a fresh sighting — the released entry was not resurrected.
	if _, added := tab.Bytes([]byte(external[0])); !added {
		t.Fatal("released value resurfaced as a prior sighting; restore resurrected it")
	}
	if external[0] != "restored-0" {
		t.Fatalf("external copy corrupted: %q", external[0])
	}
}

// TestRotateConcurrent interleaves rotations with lookups under -race.
func TestRotateConcurrent(t *testing.T) {
	tab := NewTable()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tab.Rotate()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 0, 32)
			for i := 0; i < 5000; i++ {
				buf = fmt.Appendf(buf[:0], "client-%d", i%100)
				if s, _ := tab.Bytes(buf); s != string(buf) {
					t.Errorf("canonical mismatch: %q vs %q", s, buf)
					return
				}
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestClientHashMatchesFNV pins Hash, on strings and on bytes, to
// hash/fnv, so the intern shard, the ingest worker and the daemon shard
// of a value are the ones they always were.
func TestClientHashMatchesFNV(t *testing.T) {
	for _, client := range []string{"", "a:1", "10.0.0.5:40001", "[2001:db8::1]:443", strings.Repeat("x", 300)} {
		h := fnv.New32a()
		io.WriteString(h, client)
		want := h.Sum32()
		if got := Hash(client); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", client, got, want)
		}
		if got := Hash([]byte(client)); got != want {
			t.Errorf("Hash([]byte(%q)) = %#x, want %#x", client, got, want)
		}
	}
}

func BenchmarkBytesHit(b *testing.B) {
	tab := NewTable()
	key := []byte("video-7.cdn.example")
	tab.Bytes(key)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Bytes(key)
	}
}
