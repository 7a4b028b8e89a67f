// Package stats provides the measurement plumbing every experiment uses:
// latency recorders with network/queueing splits, circuit-outcome
// classification, message-mix counters, and mean / standard-error /
// confidence-interval math for the paper's figures.
package stats

import "math"

// Sample accumulates a stream of float64 observations.
//
// Its state travels as plain JSON fields (chip.Results crosses the wire
// between rcsweep -remote and rcserved), so encoding/json reads and writes
// them directly. The methods N, Sum, Min and Max shadow the promoted
// fields of the same names, so code outside this package cannot write
// them; SumSq stays reachable, and nothing outside this package writes it.
type Sample struct{ moments }

// moments is Sample's state, exported field by field for encoding/json.
type moments struct {
	N     int64   `json:"n"`
	Sum   float64 `json:"sum"`
	SumSq float64 `json:"sum_sq"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	m := &s.moments
	if m.N == 0 || v < m.Min {
		m.Min = v
	}
	if m.N == 0 || v > m.Max {
		m.Max = v
	}
	m.N++
	m.Sum += v
	m.SumSq += v * v
}

// N returns the number of observations.
func (s *Sample) N() int64 { return s.moments.N }

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 { return s.moments.Sum }

// Mean returns the sample mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if s.moments.N == 0 {
		return 0
	}
	return s.moments.Sum / float64(s.moments.N)
}

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() float64 { return s.moments.Min }

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() float64 { return s.moments.Max }

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 {
	m := &s.moments
	if m.N < 2 {
		return 0
	}
	mean := s.Mean()
	v := (m.SumSq - float64(m.N)*mean*mean) / float64(m.N-1)
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
	if s.moments.N == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.moments.N))
}

// CI95 returns the half-width of a 95% confidence interval on the mean
// using the normal approximation (the paper cites Jain's methodology).
func (s *Sample) CI95() float64 { return 1.96 * s.StdErr() }

// Merge folds other into s.
func (s *Sample) Merge(other *Sample) {
	m, o := &s.moments, &other.moments
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = *o
		return
	}
	if o.Min < m.Min {
		m.Min = o.Min
	}
	if o.Max > m.Max {
		m.Max = o.Max
	}
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq += o.SumSq
}

// Histogram counts integer observations in fixed-width buckets with an
// overflow bucket, used for latency distributions.
//
// Like Sample's, its state is plain JSON fields. The Overflow method
// shadows the promoted field; BucketWidth, Buckets and Sample stay
// reachable, and nothing outside this package writes them.
type Histogram struct{ hist }

// hist is Histogram's state, exported field by field for encoding/json.
type hist struct {
	BucketWidth int64   `json:"bucket_width"`
	Buckets     []int64 `json:"buckets"`
	Overflow    int64   `json:"overflow"`
	Sample      Sample  `json:"sample"`
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(bucketWidth int64, n int) *Histogram {
	if bucketWidth <= 0 || n <= 0 {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{hist{BucketWidth: bucketWidth, Buckets: make([]int64, n)}}
}

// Reset clears every observation, keeping the shape and the buckets'
// memory, and returns h (nil stays nil). It names what it keeps.
func (h *Histogram) Reset() *Histogram {
	if h != nil {
		clear(h.Buckets)
		h.hist = hist{BucketWidth: h.BucketWidth, Buckets: h.Buckets}
	}
	return h
}

// Add records v. Negative values clamp to bucket 0.
func (h *Histogram) Add(v int64) {
	h.Sample.Add(float64(v))
	if v < 0 {
		v = 0
	}
	b := v / h.BucketWidth
	if int(b) >= len(h.Buckets) {
		h.hist.Overflow++
		return
	}
	h.Buckets[b]++
}

// Count returns total observations.
func (h *Histogram) Count() int64 { return h.Sample.N() }

// Mean returns the mean of all observations (exact, not bucketed).
func (h *Histogram) Mean() float64 { return h.Sample.Mean() }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.Buckets[i] }

// Overflow returns observations beyond the last bucket.
func (h *Histogram) Overflow() int64 { return h.hist.Overflow }

// Percentile returns an upper bound on the p-quantile (0 < p <= 1) from the
// bucketed data: the upper edge of the bucket containing the quantile.
func (h *Histogram) Percentile(p float64) int64 {
	total := h.Sample.N()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(total)))
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			return int64(i+1) * h.BucketWidth
		}
	}
	return int64(len(h.Buckets)) * h.BucketWidth
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
