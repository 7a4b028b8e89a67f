package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.Variance()-2.5) > 1e-12 {
		t.Fatalf("Variance = %v, want 2.5", s.Variance())
	}
	if math.Abs(s.StdErr()-math.Sqrt(2.5/5)) > 1e-12 {
		t.Fatalf("StdErr = %v", s.StdErr())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
}

func TestSampleSingleObservation(t *testing.T) {
	var s Sample
	s.Add(7)
	if s.Variance() != 0 {
		t.Fatalf("variance of single obs = %v", s.Variance())
	}
}

func TestSampleMergeEqualsCombined(t *testing.T) {
	check := func(raw []float64) bool {
		var all, a, b Sample
		for i, v := range raw {
			v = math.Mod(v, 1000) // keep numerics tame
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			all.Add(v)
			if i%2 == 0 {
				a.Add(v)
			} else {
				b.Add(v)
			}
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSampleMergeEmpty(t *testing.T) {
	var a, b Sample
	a.Add(2)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 {
		t.Fatal("merge with empty changed sample")
	}
	b.Merge(&a)
	if b.N() != 1 || b.Mean() != 2 {
		t.Fatal("merge into empty should copy")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5)
	for _, v := range []int64{0, 5, 9, 10, 49, 50, 1000} {
		h.Add(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Bucket(0) != 3 {
		t.Fatalf("bucket 0 = %d, want 3", h.Bucket(0))
	}
	if h.Bucket(1) != 1 || h.Bucket(4) != 1 {
		t.Fatalf("buckets = %d %d", h.Bucket(1), h.Bucket(4))
	}
	if h.Overflow() != 2 {
		t.Fatalf("overflow %d", h.Overflow())
	}
}

// TestHistogramReset: a reset histogram reads as a new one of its shape,
// over the same buckets, and a nil one stays nil.
func TestHistogramReset(t *testing.T) {
	h := NewHistogram(10, 5)
	buckets := h.Buckets
	for _, v := range []int64{3, 27, 1000} {
		h.Add(v)
	}
	if h.Reset() != h || !reflect.DeepEqual(h, NewHistogram(10, 5)) || &h.Buckets[0] != &buckets[0] {
		t.Fatalf("reset histogram = %+v, want a new one over the same buckets", h)
	}
	if (*Histogram)(nil).Reset() != nil {
		t.Fatal("a nil histogram reset to non-nil")
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram(10, 2)
	h.Add(-5)
	if h.Bucket(0) != 1 {
		t.Fatal("negative value should clamp to bucket 0")
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := int64(0); i < 100; i++ {
		h.Add(i)
	}
	if p := h.Percentile(0.5); p < 49 || p > 51 {
		t.Fatalf("p50 = %d", p)
	}
	if p := h.Percentile(1.0); p != 100 {
		t.Fatalf("p100 = %d", p)
	}
	empty := NewHistogram(1, 4)
	if empty.Percentile(0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestHistogramInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0, 5)
}

func TestLatencyRecord(t *testing.T) {
	var l LatencyRecord
	l.Add(10, 2)
	l.Add(20, 4)
	if l.Network.Mean() != 15 || l.Queueing.Mean() != 3 {
		t.Fatalf("means %v/%v", l.Network.Mean(), l.Queueing.Mean())
	}
	if l.Total() != 18 {
		t.Fatalf("total %v", l.Total())
	}
	var m LatencyRecord
	m.Add(30, 6)
	l.Merge(&m)
	if l.Network.N() != 3 {
		t.Fatal("merge failed")
	}
}

// Property: variance is never negative and mean lies within [min, max].
func TestSampleInvariants(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(float64(v))
		}
		return s.Variance() >= 0 && s.Mean() >= s.Min() && s.Mean() <= s.Max()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
