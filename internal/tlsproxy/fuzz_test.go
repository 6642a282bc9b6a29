package tlsproxy

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzParseClientHello asserts the parser never panics and never
// mis-frames: when it succeeds, the reported record length must lie
// within the input and re-parsing the framed slice must agree.
func FuzzParseClientHello(f *testing.F) {
	raw, err := BuildClientHello("fuzz.example", [32]byte{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:5])
	f.Add([]byte{22, 3, 1, 0, 0})
	f.Add([]byte{23, 0, 0, 0, 0})
	mut := append([]byte(nil), raw...)
	mut[9] ^= 0xFF
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		sni, n, err := ParseClientHello(data)
		if err != nil {
			if errors.Is(err, ErrNeedMore) && len(data) >= MaxRecordLen+recordHeaderLen {
				// NeedMore on an over-long buffer would loop forever in
				// readClientHello; the length guard must fire first.
				if data[0] == RecordHandshake {
					t.Fatalf("ErrNeedMore on %d-byte buffer", len(data))
				}
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("record length %d outside input %d", n, len(data))
		}
		sni2, n2, err2 := ParseClientHello(data[:n])
		if err2 != nil || sni2 != sni || n2 != n {
			t.Fatalf("re-parse disagrees: %q/%d/%v vs %q/%d", sni2, n2, err2, sni, n)
		}
	})
}

// FuzzRecordRoundTrip frames arbitrary payloads and reads them back.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte("payload"), byte(RecordApplicationData))
	f.Add([]byte{}, byte(RecordHandshake))
	f.Fuzz(func(t *testing.T, payload []byte, typ byte) {
		if len(payload) > MaxRecordLen {
			payload = payload[:MaxRecordLen]
		}
		var buf bytes.Buffer
		if err := WriteRecord(&buf, typ, payload); err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
		gotType, gotPayload, err := ReadRecord(&buf)
		if err != nil {
			t.Fatalf("ReadRecord: %v", err)
		}
		if gotType != typ || !bytes.Equal(gotPayload, payload) {
			t.Fatal("record round trip mismatch")
		}
	})
}

// FuzzReadWorkload asserts ReadWorkload (the -source replay reader)
// never panics on arbitrary bytes, and that every file it accepts
// round-trips: WriteWorkload of the records read back through
// ReadWorkload yields the same records.
func FuzzReadWorkload(f *testing.F) {
	var sample bytes.Buffer
	if err := WriteWorkload(&sample, testWorkload(5)); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	for _, in := range badWorkloads {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := ReadWorkload(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteWorkload(&buf, recs); err != nil {
			t.Fatalf("WriteWorkload of accepted records: %v", err)
		}
		again, err := ReadWorkload(&buf)
		if err != nil {
			t.Fatalf("re-reading written workload: %v\n%q", err, buf.String())
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip diverged\n got %+v\nwant %+v", again, recs)
		}
	})
}
