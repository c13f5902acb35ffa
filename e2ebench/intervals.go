package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"vats/internal/stats"
)

// intervals holds latencies grouped into consecutive intervals of a
// measured window (fixed-length slices of due time, or TPC-C rounds).
// Tail statistics are taken per interval and summarised by their median
// across intervals. On a shared host the whole process stalls now and
// then for milliseconds; a pooled p99 of a short run moves with whether
// such a stall happened to land in it, while the median interval's p99
// moves by one interval per stall.
type intervals struct {
	start time.Time
	width time.Duration
	b     [][]float64 // ms
}

func newIntervals(start time.Time, width time.Duration) *intervals {
	return &intervals{start: start, width: width}
}

// newWindowIntervals makes the intervals of a window of dur at rate
// requests/s, each with room for every latency it will likely hold, so
// that filing latencies during the window allocates nothing and the
// heap does not grow with the window's progress.
func newWindowIntervals(start time.Time, width, dur time.Duration, rate float64) *intervals {
	iv := newIntervals(start, width)
	n := int((dur + width - 1) / width)
	per := sampleCap(rate * width.Seconds())
	iv.b = make([][]float64, n)
	for i := range iv.b {
		iv.b[i] = make([]float64, 0, per)
	}
	return iv
}

// sampleCap is room for the count of a Poisson process of the given
// mean: five standard deviations above it, and a little more.
func sampleCap(mean float64) int {
	return int(mean+5*math.Sqrt(mean)) + 16
}

// bytes is the size of the intervals' sample storage.
func (iv *intervals) bytes() int64 {
	var n int64
	for _, xs := range iv.b {
		n += int64(cap(xs)) * 8
	}
	return n
}

// add files a latency under the interval its due time falls in.
func (iv *intervals) add(due time.Time, ms float64) {
	i := 0
	if d := due.Sub(iv.start); d > 0 {
		i = int(d / iv.width)
	}
	for len(iv.b) <= i {
		iv.b = append(iv.b, nil)
	}
	iv.b[i] = append(iv.b[i], ms)
}

// merge adds o's intervals to iv's, interval by interval when both
// share a start, or as further intervals otherwise.
func (iv *intervals) merge(o *intervals) {
	if o.start != iv.start {
		iv.b = append(iv.b, o.b...)
		return
	}
	for len(iv.b) < len(o.b) {
		iv.b = append(iv.b, nil)
	}
	for i, xs := range o.b {
		iv.b[i] = append(iv.b[i], xs...)
	}
}

// all returns every latency.
func (iv *intervals) all() []float64 {
	var out []float64
	for _, xs := range iv.b {
		out = append(out, xs...)
	}
	return out
}

func (iv *intervals) count() int {
	n := 0
	for _, xs := range iv.b {
		n += len(xs)
	}
	return n
}

// minIntervalSamples keeps intervals too thin for a p99 (fewer than ten
// samples beyond it) out of the per-interval statistics.
const minIntervalSamples = 1000

// median returns the median across intervals of f applied to each
// interval with at least minIntervalSamples latencies, or, if none has
// that many, f of all latencies together.
func (iv *intervals) median(f func([]float64) float64) float64 {
	var per []float64
	for _, xs := range iv.b {
		if len(xs) >= minIntervalSamples {
			per = append(per, f(xs))
		}
	}
	if len(per) == 0 {
		return f(iv.all())
	}
	return stats.Percentile(per, 0.5)
}

// last returns the final interval's latencies.
func (iv *intervals) last() []float64 {
	if len(iv.b) == 0 {
		return nil
	}
	return iv.b[len(iv.b)-1]
}

func p99(xs []float64) float64 { return stats.Percentile(xs, 0.99) }

// stddev is the population standard deviation of xs.
func stddev(xs []float64) float64 { return math.Sqrt(stats.Variance(xs)) }

// describe formats f of each interval, for diagnostics.
func (iv *intervals) describe(f func([]float64) float64) string {
	parts := make([]string, len(iv.b))
	for i, xs := range iv.b {
		parts[i] = fmt.Sprintf("%.2f", f(xs))
	}
	return "[" + strings.Join(parts, " ") + "]"
}
