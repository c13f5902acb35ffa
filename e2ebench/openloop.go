package main

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// poisson is an open-loop arrival schedule: due times of a Poisson
// process at a fixed rate, from start until end. Arrivals do not wait
// for earlier requests to finish, so a stalled system keeps receiving
// load and its queue shows in the latency of later requests.
type poisson struct {
	rng  *rand.Rand
	gap  float64 // mean inter-arrival time, ns
	next time.Time
	end  time.Time
}

func newPoisson(seed int64, rate float64, start time.Time, dur time.Duration) *poisson {
	p := &poisson{rng: rand.New(rand.NewSource(seed)), gap: 1e9 / rate, end: start.Add(dur)}
	p.next = start.Add(p.draw())
	return p
}

func (p *poisson) draw() time.Duration { return time.Duration(p.rng.ExpFloat64() * p.gap) }

// done reports whether the schedule has no arrivals left.
func (p *poisson) done() bool { return !p.next.Before(p.end) }

// pop returns the next due time and advances the schedule.
func (p *poisson) pop() time.Time {
	due := p.next
	p.next = due.Add(p.draw())
	return due
}

// pacer drives one open-loop sender: it hands every arrival to the
// sender once its due time has passed, records how late that was, and
// parks on a precise timer until the next arrival is due.
type pacer struct {
	timer   *preciseTimer
	late    []float64 // ms from due time to hand-off
	backlog *backlog
}

// run releases the arrivals of sched in order: emit is called for each
// arrival once its due time has passed, and flush after each group of
// arrivals released together. It stops at the first error either
// returns.
func (pc *pacer) run(sched *poisson, emit func(due time.Time) error, flush func() error) error {
	for !sched.done() {
		now := time.Now()
		if sched.next.After(now) {
			if err := pc.timer.sleep(sched.next.Sub(now)); err != nil {
				return err
			}
			continue
		}
		for !sched.done() && !sched.next.After(now) {
			due := sched.pop()
			pc.late = append(pc.late, float64(now.Sub(due))/1e6)
			if err := emit(due); err != nil {
				return err
			}
		}
		if err := flush(); err != nil {
			return err
		}
		pc.backlog.sample()
	}
	return nil
}

// backlog counts requests that are due but not yet answered, across all
// senders of one run, and keeps its high-water mark.
type backlog struct {
	n, max atomic.Int64
}

func (b *backlog) inc() { b.n.Add(1) }
func (b *backlog) dec() { b.n.Add(-1) }
func (b *backlog) sample() {
	n := b.n.Load()
	for {
		m := b.max.Load()
		if n <= m || b.max.CompareAndSwap(m, n) {
			return
		}
	}
}
