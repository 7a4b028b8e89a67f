package stats

import (
	"encoding/json"
	"reflect"
	"testing"
)

// checkWire pins v's encoding to want, the bytes rcserved has always sent
// for it, and checks that want decodes back to a value equal to v.
func checkWire[T any](t *testing.T, v T, want string) T {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Fatalf("encoding changed:\n got %s\nwant %s", b, want)
	}
	var got T
	if err := json.Unmarshal([]byte(want), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip lost state: %+v vs %+v", got, v)
	}
	return got
}

// TestSampleJSONRoundTrip: every derived statistic must survive the wire.
func TestSampleJSONRoundTrip(t *testing.T) {
	var s Sample
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		s.Add(v)
	}
	got := checkWire(t, s, `{"n":8,"sum":31,"sum_sq":173,"min":1,"max":9}`)
	if got.Mean() != s.Mean() || got.CI95() != s.CI95() || got.Min() != s.Min() || got.Max() != s.Max() {
		t.Fatalf("derived stats diverge after round trip")
	}
	checkWire(t, Sample{}, `{"n":0,"sum":0,"sum_sq":0,"min":0,"max":0}`)
}

// TestHistogramJSONRoundTrip: buckets, overflow and the exact-moment
// sample all reconstruct, so remote tail-latency reports match local ones.
func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(4, 8)
	for _, v := range []int64{0, 3, 4, 17, 31, 1000, -2} {
		h.Add(v)
	}
	got := checkWire(t, h, `{"bucket_width":4,"buckets":[3,1,0,0,1,0,0,1],"overflow":1,`+
		`"sample":{"n":7,"sum":1053,"sum_sq":1001279,"min":-2,"max":1000}}`)
	if got.Count() != h.Count() || got.Overflow() != h.Overflow() || got.Mean() != h.Mean() {
		t.Fatalf("round trip lost counts: %+v vs %+v", got, h)
	}
	for i := 0; i < 8; i++ {
		if got.Bucket(i) != h.Bucket(i) {
			t.Fatalf("bucket %d = %d, want %d", i, got.Bucket(i), h.Bucket(i))
		}
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if got.Percentile(p) != h.Percentile(p) {
			t.Fatalf("p%v diverges after round trip", p)
		}
	}
	checkWire(t, Histogram{}, `{"bucket_width":0,"buckets":null,"overflow":0,`+
		`"sample":{"n":0,"sum":0,"sum_sq":0,"min":0,"max":0}}`)
}

// TestLatencyRecordJSONRoundTrip covers the composite type chip.Results
// actually embeds.
func TestLatencyRecordJSONRoundTrip(t *testing.T) {
	var l LatencyRecord
	l.Add(10, 3)
	l.Add(40, 7)
	got := checkWire(t, l, `{"Network":{"n":2,"sum":50,"sum_sq":1700,"min":10,"max":40},`+
		`"Queueing":{"n":2,"sum":10,"sum_sq":58,"min":3,"max":7}}`)
	if got.Total() != l.Total() || got.Network.N() != l.Network.N() {
		t.Fatalf("latency record diverges after round trip")
	}
}
