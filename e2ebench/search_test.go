package main

import (
	"testing"
	"time"
)

// probeAt fakes a probe whose p99 is 1ms below knee and 100ms above it.
func probeAt(rate, knee float64) probe {
	lat := 1.0
	if rate > knee {
		lat = 100
	}
	iv := newIntervals(time.Time{}, time.Second)
	for i := 0; i < 3*minIntervalSamples; i++ {
		iv.add(time.Time{}.Add(time.Duration(i/minIntervalSamples)*time.Second), lat)
	}
	return probe{lat: iv}
}

func TestSearchRateFindsKneeWithinResolution(t *testing.T) {
	for _, start := range []float64{500, 3000, 20000} {
		got, err := searchRate(start, sloLimitMs, func(rate float64) (probe, error) {
			return probeAt(rate, 4321), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got > 4321 || got < 4321/sloResolution {
			t.Errorf("start %v: found %v, want within %v below 4321", start, got, sloResolution)
		}
	}
}

func TestProbeFailsOnFailuresAndBacklog(t *testing.T) {
	p := probeAt(100, 1000)
	if !p.passes(sloLimitMs) {
		t.Fatal("a fast probe failed")
	}
	p.failed = 1
	if p.passes(sloLimitMs) {
		t.Error("a probe with a failed request passed")
	}
	// A backlog that builds in the last interval: its median is late.
	q := probeAt(100, 1000)
	for i := 0; i < 2*minIntervalSamples; i++ {
		q.lat.add(time.Time{}.Add(2*time.Second), 50)
	}
	if q.lat.median(p99) > sloLimitMs {
		t.Fatal("setup: the first intervals should meet the limit")
	}
	if q.passes(sloLimitMs) {
		t.Error("a probe ending with a growing backlog passed")
	}
}

// One stalled interval moves the median interval's p99 by one rank, not
// to the stall's length.
func TestIntervalMedianShrugsOffOneStall(t *testing.T) {
	iv := newIntervals(time.Time{}, time.Second)
	for s := 0; s < 5; s++ {
		for i := 0; i < minIntervalSamples; i++ {
			ms := 1.0
			if s == 2 && i < 100 {
				ms = 80 // a 100-request stall in the third second
			}
			iv.add(time.Time{}.Add(time.Duration(s)*time.Second), ms)
		}
	}
	if got := iv.median(p99); got != 1 {
		t.Errorf("median interval p99 = %v, want 1", got)
	}
	if got := p99(iv.all()); got != 80 {
		t.Errorf("pooled p99 = %v, want the stall's 80", got)
	}
}
