package tlsproxy

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

func testWorkload(n int) []ReplayRecord {
	recs := make([]ReplayRecord, 0, n)
	for i := 0; i < n; i++ {
		client := fmt.Sprintf("10.0.%d.%d:4%04d", i/200, i%200, i%1000)
		start := float64(i%97) * 0.01
		recs = append(recs, ReplayRecord{
			Client:    client,
			SNI:       fmt.Sprintf("video%d.example.com", i%5),
			Start:     start,
			End:       start + 0.5 + float64(i%13)*0.05,
			UpBytes:   int64(1000 + i),
			DownBytes: int64(50000 + 17*i),
		})
	}
	return recs
}

func TestWorkloadCSVRoundTrip(t *testing.T) {
	recs := testWorkload(50)
	var b strings.Builder
	if err := WriteWorkload(&b, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkload(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip returned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

// badWorkloads are workload files ReadWorkload must reject; they also
// seed FuzzReadWorkload.
var badWorkloads = map[string]string{
	"bad header":                "who,sni,start_sec,end_sec,up_bytes,down_bytes\n",
	"bad float":                 "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,zero,1,2,3\n",
	"bad int":                   "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,1,two,3\n",
	"end<start":                 "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,5,1,2,3\n",
	"empty client":              "client,sni,start_sec,end_sec,up_bytes,down_bytes\n,x,0,1,2,3\n",
	"neg start":                 "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,-1,1,2,3\n",
	"short row":                 "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,1\n",
	"nan start":                 "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,NaN,1,2,3\n",
	"nan end":                   "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,nan,2,3\n",
	"infinite end":              "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,+Inf,2,3\n",
	"end beyond duration range": "client,sni,start_sec,end_sec,up_bytes,down_bytes\na:1,x,0,1e10,2,3\n",
}

// TestReadWorkloadInterns checks that a loaded workload holds one copy
// of each distinct client and SNI: repeated values share a backing
// array instead of each pinning its own row's text.
func TestReadWorkloadInterns(t *testing.T) {
	var b strings.Builder
	if err := WriteWorkload(&b, testWorkload(600)); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadWorkload(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]*byte{}
	shared := 0
	for i, r := range recs {
		for _, v := range []string{r.Client, r.SNI} {
			p, seen := first[v]
			if !seen {
				first[v] = unsafe.StringData(v)
				continue
			}
			if p != unsafe.StringData(v) {
				t.Fatalf("record %d: %q is a second copy", i, v)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("fixture repeats no client or SNI")
	}
}

func TestReadWorkloadRejectsBadInput(t *testing.T) {
	for name, in := range badWorkloads {
		if _, err := ReadWorkload(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
