package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"vats/internal/stats"
)

// The latency limit the capacity search holds, and how it searches.
const (
	// sloLimitMs is the key-value workloads' p99 latency limit, timed
	// from due time.
	sloLimitMs = 10.0
	// sloStep is the factor between rates while bracketing the limit.
	sloStep = 1.25
	// sloResolution is the bracket width at which bisection stops:
	// 1.25^(1/8) ≈ 1.028, a 2.8% step.
	sloResolution = 1.03
	// sloMaxProbes bounds a search whose probes never bracket.
	sloMaxProbes = 12
	// probeIntervals is how many intervals one probe lasts.
	probeIntervals = 3
	// probeDur is how long one probe offers its rate.
	probeDur = probeIntervals * probeInterval
)

// probeInterval is the interval width of a probe. A probe's intervals
// hold minIntervalSamples requests from 2000 requests/s up; below that
// the probe's p99 is taken over the whole probe.
const probeInterval = 500 * time.Millisecond

// probe is one search probe: its latencies (ms from due time) by
// interval, and the requests that failed or were shed.
type probe struct {
	lat    *intervals
	failed int64
}

// passes reports whether a probe met a p99 limit of limitMs: no
// failures (a failed or shed request misses the limit), the median
// interval's p99 within the limit, and no growing backlog, which would
// show as a last interval whose median latency is past the limit.
func (p probe) passes(limitMs float64) bool {
	return p.failed == 0 && p.lat.count() > 0 &&
		p.lat.median(p99) <= limitMs && stats.Percentile(p.lat.last(), 0.5) <= limitMs
}

// searchRate returns the highest rate whose probe meets limitMs. It steps
// geometrically from start until one rate passes and the next fails,
// then bisects the bracket geometrically down to sloResolution. It
// returns 0 if no probed rate passed.
func searchRate(start, limitMs float64, run func(rate float64) (probe, error)) (float64, error) {
	lo, hi := 0.0, 0.0
	r := start
	for i := 0; i < sloMaxProbes && (lo == 0 || hi == 0); i++ {
		p, err := run(r)
		if err != nil {
			return 0, err
		}
		logProbe(r, limitMs, p)
		if p.passes(limitMs) {
			lo = r
			r *= sloStep
		} else {
			hi = r
			r /= sloStep
		}
	}
	if lo == 0 || hi == 0 {
		return lo, nil
	}
	for hi/lo > sloResolution {
		mid := math.Sqrt(lo * hi)
		p, err := run(mid)
		if err != nil {
			return 0, err
		}
		logProbe(mid, limitMs, p)
		if p.passes(limitMs) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// logProbe writes one probe's outcome to standard error.
func logProbe(rate, limitMs float64, p probe) {
	fmt.Fprintf(os.Stderr, "probe rate=%.0f/s n=%d interval p99s=%s ms, last p50=%.3fms failed=%d pass=%v\n",
		rate, p.lat.count(), p.lat.describe(p99), stats.Percentile(p.lat.last(), 0.5), p.failed, p.passes(limitMs))
}
