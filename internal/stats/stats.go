// Package stats provides the measurement plumbing every experiment uses:
// latency recorders with network/queueing splits, circuit-outcome
// classification, message-mix counters, and mean / standard-error /
// confidence-interval math for the paper's figures.
package stats

import "math"

// Sample accumulates a stream of float64 observations.
type Sample struct {
	n          int64
	sum, sumSq float64
	min, max   float64
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the number of observations.
func (s *Sample) N() int64 { return s.n }

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the sample mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	mean := s.Mean()
	v := (s.sumSq - float64(s.n)*mean*mean) / float64(s.n-1)
	if v < 0 { // numeric noise
		return 0
	}
	return v
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean, as plotted in the paper's
// Figures 8 and 9 error bars.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a 95% confidence interval on the mean
// using the normal approximation (the paper cites Jain's methodology).
func (s *Sample) CI95() float64 { return 1.96 * s.StdErr() }

// Merge folds other into s.
func (s *Sample) Merge(other *Sample) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n += other.n
	s.sum += other.sum
	s.sumSq += other.sumSq
}

// Histogram counts integer observations in fixed-width buckets with an
// overflow bucket, used for latency distributions.
type Histogram struct {
	BucketWidth int64
	buckets     []int64
	overflow    int64
	sample      Sample
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(bucketWidth int64, n int) *Histogram {
	if bucketWidth <= 0 || n <= 0 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{BucketWidth: bucketWidth, buckets: make([]int64, n)}
}

// Add records v. Negative values clamp to bucket 0.
func (h *Histogram) Add(v int64) {
	h.sample.Add(float64(v))
	if v < 0 {
		v = 0
	}
	b := v / h.BucketWidth
	if int(b) >= len(h.buckets) {
		h.overflow++
		return
	}
	h.buckets[b]++
}

// Count returns total observations.
func (h *Histogram) Count() int64 { return h.sample.N() }

// Mean returns the mean of all observations (exact, not bucketed).
func (h *Histogram) Mean() float64 { return h.sample.Mean() }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i] }

// Overflow returns observations beyond the last bucket.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Percentile returns an upper bound on the p-quantile (0 < p <= 1) from the
// bucketed data: the upper edge of the bucket containing the quantile.
func (h *Histogram) Percentile(p float64) int64 {
	total := h.sample.N()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(total)))
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			return int64(i+1) * h.BucketWidth
		}
	}
	return int64(len(h.buckets)) * h.BucketWidth
}

// LatencyRecord accumulates the paper's Figure-7 latency anatomy for one
// message class: time spent queued at the source NI before entering the
// network, and time spent inside the network.
type LatencyRecord struct {
	Network  Sample
	Queueing Sample
}

// Add records one delivered message.
func (l *LatencyRecord) Add(networkCycles, queueingCycles int64) {
	l.Network.Add(float64(networkCycles))
	l.Queueing.Add(float64(queueingCycles))
}

// Total returns mean network + mean queueing latency.
func (l *LatencyRecord) Total() float64 {
	return l.Network.Mean() + l.Queueing.Mean()
}

// Merge folds another record into l.
func (l *LatencyRecord) Merge(o *LatencyRecord) {
	l.Network.Merge(&o.Network)
	l.Queueing.Merge(&o.Queueing)
}

// WeightedMean returns the mean of values weighted by weights. Slices must
// have equal length; zero total weight yields 0.
func WeightedMean(values, weights []float64) float64 {
	if len(values) != len(weights) {
		panic("stats: WeightedMean length mismatch")
	}
	var num, den float64
	for i, v := range values {
		num += v * weights[i]
		den += weights[i]
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// GeoMean returns the geometric mean of strictly positive values, the
// conventional aggregation for per-application speedups.
func GeoMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var logSum float64
	for _, v := range values {
		if v <= 0 {
			panic("stats: GeoMean requires positive values")
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(values)))
}
