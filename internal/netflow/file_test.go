package netflow

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// sampleFlows is a small collector export, an unresolved (empty-host)
// flow included.
var sampleFlows = []ClientFlow{
	{Client: "10.0.0.1", Flow: Record{Host: "cdn-01.svc1.example", Start: 0.5, End: 60.25, UpBytes: 1000, DownBytes: 2_000_000}},
	{Client: "10.0.0.2", Flow: Record{Host: "", Start: 1, End: 2, UpBytes: 10, DownBytes: 20}},
	{Client: "10.0.0.1", Flow: Record{Host: "cdn-02.svc1.example", Start: 61.125, End: 121, UpBytes: 900, DownBytes: 1_500_000}},
}

// TestFlowFileRoundTrip pins the collector-export serialization:
// WriteFlows then ReadFlows is identity, unresolved (empty-host) flows
// included.
func TestFlowFileRoundTrip(t *testing.T) {
	flows := sampleFlows
	var buf bytes.Buffer
	if err := WriteFlows(&buf, flows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlows(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, flows) {
		t.Fatalf("round trip diverged\n got %+v\nwant %+v", got, flows)
	}
}

// TestReadFlowsRejectsBadInput pins the fail-at-load validation.
func TestReadFlowsRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"bad header":                "who,host,start_sec,end_sec,up_bytes,down_bytes\n",
		"empty client":              "client,host,start_sec,end_sec,up_bytes,down_bytes\n,h,0,1,2,3\n",
		"end<start":                 "client,host,start_sec,end_sec,up_bytes,down_bytes\nc,h,5,1,2,3\n",
		"bad number":                "client,host,start_sec,end_sec,up_bytes,down_bytes\nc,h,x,1,2,3\n",
		"nan start":                 "client,host,start_sec,end_sec,up_bytes,down_bytes\nc,h,NaN,1,2,3\n",
		"infinite end":              "client,host,start_sec,end_sec,up_bytes,down_bytes\nc,h,0,Inf,2,3\n",
		"end beyond duration range": "client,host,start_sec,end_sec,up_bytes,down_bytes\nc,h,0,1e10,2,3\n",
	}
	for name, in := range cases {
		if _, err := ReadFlows(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}

// flowHeaderLine is the header row every flow file starts with.
const flowHeaderLine = "client,host,start_sec,end_sec,up_bytes,down_bytes\n"

// flowFileInputs are flow files accepted and rejected alike: the cases
// ReadFlows is pinned against its encoding/csv reference on, and seeds
// of FuzzReadFlows.
var flowFileInputs = map[string]string{
	"empty":                     "",
	"header only":               flowHeaderLine,
	"plain rows":                flowHeaderLine + "10.0.0.1,cdn.example,0.5,60.25,1000,2000000\n10.0.0.2,,1,2,10,20\n",
	"no final nl":               flowHeaderLine + "c,h,0,1,2,3",
	"crlf":                      "client,host,start_sec,end_sec,up_bytes,down_bytes\r\nc,h,0,1,2,3\r\n",
	"blank lines":               flowHeaderLine + "\nc,h,0,1,2,3\n\n",
	"quoted host":               flowHeaderLine + "c,\"ho,st.example\",0,1,2,3\n",
	"quoted quote":              flowHeaderLine + "c,\"say \"\"hi\"\"\",0,1,2,3\n",
	"bare quote":                flowHeaderLine + "c,h\"x,0,1,2,3\n",
	"too few":                   flowHeaderLine + "c,h,0,1\n",
	"too many":                  flowHeaderLine + "c,h,0,1,2,3,4\n",
	"bad header":                "who,host,start_sec,end_sec,up_bytes,down_bytes\nc,h,0,1,2,3\n",
	"bad float":                 flowHeaderLine + "c,h,x,1,2,3\n",
	"bad int":                   flowHeaderLine + "c,h,0,1,2.5,3\n",
	"negative start":            flowHeaderLine + "c,h,-1,1,2,3\n",
	"nan start":                 flowHeaderLine + "c,h,NaN,1,2,3\n",
	"nan end":                   flowHeaderLine + "c,h,0,nan,2,3\n",
	"infinite end":              flowHeaderLine + "c,h,0,+Inf,2,3\n",
	"end beyond duration range": flowHeaderLine + "c,h,0,1e10,2,3\n",
	"exponent":                  flowHeaderLine + "c,h,6.025e1,1e2,2,3\n",
	"spaces kept":               flowHeaderLine + "c, h ,0,1,2,3\n",
}

// TestReadFlowsMatchesCSVReference pins the byte scanner against the
// encoding/csv implementation it replaced: identical flows on accepted
// inputs, errors on the same rejected inputs.
func TestReadFlowsMatchesCSVReference(t *testing.T) {
	for name, in := range flowFileInputs {
		want, wantErr := readFlowsCSV(strings.NewReader(in))
		got, gotErr := ReadFlows(strings.NewReader(in))
		if (gotErr != nil) != (wantErr != nil) {
			t.Errorf("%s: ReadFlows err=%v, reference err=%v", name, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: flows diverged\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestReadFlowsLongLine exercises the carry path for rows longer than
// the reader's internal buffer.
func TestReadFlowsLongLine(t *testing.T) {
	host := strings.Repeat("h", 100_000) + ".example"
	in := "client,host,start_sec,end_sec,up_bytes,down_bytes\n" +
		"10.0.0.1," + host + ",0,1,2,3\n"
	flows, err := ReadFlows(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 1 || flows[0].Flow.Host != host {
		t.Fatalf("long-line row mangled: %d flows", len(flows))
	}
}
