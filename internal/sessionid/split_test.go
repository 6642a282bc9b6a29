package sessionid

import (
	"math/rand"
	"reflect"
	"testing"

	"droppackets/internal/capture"
)

// splitFixture is three back-to-back sessions, each opening with a
// burst onto fresh servers, whose connections linger into the next.
func splitFixture() []capture.TLSTransaction {
	return []capture.TLSTransaction{
		txn(0, 130, "cdn-1"), txn(0.2, 40, "api"), txn(0.4, 90, "cdn-2"),
		txn(60, 80, "cdn-1"),
		txn(120, 300, "cdn-3"), txn(120.3, 170, "cdn-4"), txn(121, 160, "license"),
		txn(200, 230, "cdn-3"),
		txn(300, 330, "cdn-5"), txn(300.5, 320, "cdn-6"), txn(301, 310, "cdn-7"),
	}
}

func TestSplitCutsAtEveryDetectedStart(t *testing.T) {
	txns := splitFixture()
	sessions := Split(txns, PaperParams)
	if len(sessions) != 3 {
		t.Fatalf("%d sessions, want 3: %+v", len(sessions), sessions)
	}
	stream := make([]Transaction, len(txns))
	for i, x := range txns {
		stream[i] = Transaction{Start: x.Start, End: x.End, SNI: x.SNI}
	}
	marks := 0
	for _, isNew := range Detect(stream, PaperParams) {
		if isNew {
			marks++
		}
	}
	if last := sessions[len(sessions)-1]; last.Index != marks {
		t.Errorf("last session's Index = %d, Detect marks %d starts", last.Index, marks)
	}
	wantLen := []int{4, 4, 3}
	wantEnd := []float64{130, 300, 330}
	n := 0
	for k, s := range sessions {
		if len(s.Txns) != wantLen[k] || s.Start != s.Txns[0].Start || s.End != wantEnd[k] {
			t.Errorf("session %d: %d txns over [%g, %g], want %d ending %g", k, len(s.Txns), s.Start, s.End, wantLen[k], wantEnd[k])
		}
		if k > 0 && s.Index != sessions[k-1].Index+1 {
			t.Errorf("session %d: Index %d after %d", k, s.Index, sessions[k-1].Index)
		}
		if cap(s.Txns) != len(s.Txns) {
			t.Errorf("session %d: an append to Txns would overwrite the next session", k)
		}
		n += len(s.Txns)
	}
	if n != len(txns) {
		t.Errorf("sessions hold %d transactions, the input %d", n, len(txns))
	}
}

func TestSplitIgnoresInputOrder(t *testing.T) {
	txns := splitFixture()
	want := Split(txns, PaperParams)
	shuffled := append([]capture.TLSTransaction(nil), txns...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if got := Split(shuffled, PaperParams); !reflect.DeepEqual(got, want) {
		t.Errorf("shuffled input split differently:\n%+v\nwant\n%+v", got, want)
	}
	if len(Split(nil, PaperParams)) != 0 {
		t.Error("no transactions, yet a session")
	}
}

func TestSortedOrdersEqualStartsByEnd(t *testing.T) {
	in := []capture.TLSTransaction{txn(5, 9, "a"), txn(5, 7, "b"), txn(1, 2, "c"), txn(5, 7, "d")}
	var got []string
	for _, x := range Sorted(in) {
		got = append(got, x.SNI)
	}
	if want := []string{"c", "b", "d", "a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Sorted = %v, want %v", got, want)
	}
	if in[0].SNI != "a" {
		t.Error("Sorted reordered its input")
	}
}

// Truth must label the stream Split reads: its transactions, in the
// same order, each session's earliest transaction marked First.
func TestTruthMatchesSplitOrder(t *testing.T) {
	txns := splitFixture()
	groups := [][]capture.TLSTransaction{txns[8:], txns[:4], txns[4:8]}
	truth := Truth(groups)
	var flat []capture.TLSTransaction
	for _, g := range groups {
		flat = append(flat, g...)
	}
	var split []capture.TLSTransaction
	for _, s := range Split(flat, PaperParams) {
		split = append(split, s.Txns...)
	}
	if len(truth) != len(split) {
		t.Fatalf("Truth has %d transactions, Split %d", len(truth), len(split))
	}
	firsts := 0
	for i, x := range truth {
		if x.Start != split[i].Start || x.End != split[i].End || x.SNI != split[i].SNI {
			t.Fatalf("position %d: Truth %+v, Split %+v", i, x, split[i])
		}
		if x.First {
			firsts++
		}
	}
	if firsts != len(groups) {
		t.Errorf("%d first transactions, want %d", firsts, len(groups))
	}
	if c, total := SessionsRecovered(truth, PaperParams); c != 3 || total != 3 {
		t.Errorf("recovered %d/%d session starts, want 3/3", c, total)
	}
}
