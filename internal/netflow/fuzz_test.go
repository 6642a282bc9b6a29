package netflow

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadFlows asserts ReadFlows never panics on arbitrary bytes, and
// that every file it accepts round-trips: WriteFlows of the flows read
// back through ReadFlows yields the same flows.
func FuzzReadFlows(f *testing.F) {
	var sample bytes.Buffer
	if err := WriteFlows(&sample, sampleFlows); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	for _, in := range flowFileInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		flows, err := ReadFlows(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFlows(&buf, flows); err != nil {
			t.Fatalf("WriteFlows of accepted flows: %v", err)
		}
		again, err := ReadFlows(&buf)
		if err != nil {
			t.Fatalf("re-reading written flows: %v\n%q", err, buf.String())
		}
		if !reflect.DeepEqual(again, flows) {
			t.Fatalf("round trip diverged\n got %+v\nwant %+v", again, flows)
		}
	})
}
