package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestRNGDistinctSeedsDiverge(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from distinct seeds", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(raw uint16) bool {
		n := int(raw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) frequency %v", frac)
	}
}

// TestThresholdIsBoolExactly: Below(Threshold(p)) is Bool(p) bit for bit —
// at the draws on either side of every threshold, where a rounding slip
// would show, and over seeded streams at the workload profiles'
// probabilities and the edge values.
func TestThresholdIsBoolExactly(t *testing.T) {
	ps := []float64{0, 1, 0.5, 0.24, 0.22, 0.003, 0.95, 0.022 * 0.006, 1e-300,
		math.Nextafter(1, 0), math.Nextafter(0, 1), 1.5, -0.25, math.NaN(), math.Inf(1), math.Inf(-1)}
	r := NewRNG(11)
	for i := 0; i < 200; i++ {
		ps = append(ps, r.Float64(), r.Float64()*1e-6)
	}
	for _, p := range ps {
		th := Threshold(p)
		for k := th - min(th, 2); k <= th+1 && k < 1<<53; k++ {
			if got, want := k < th, float64(k)/(1<<53) < p; got != want {
				t.Fatalf("p=%v: draw %d below threshold %d = %v, Float64 compare %v", p, k, th, got, want)
			}
		}
		a, b := NewRNG(uint64(th)|1), NewRNG(uint64(th)|1)
		for i := 0; i < 1000; i++ {
			if got, want := a.Below(th), b.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: Below %v, Bool %v", p, i, got, want)
			}
		}
	}
}
