package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/harness"
	"vats/internal/stats"
	"vats/internal/workload"
)

const (
	// tpccWarehouses and tpccDistricts size TPC-C; its data fits the
	// buffer pool.
	tpccWarehouses = 4
	tpccDistricts  = 10
	// tpccTerminals is the closed loop's client count.
	tpccTerminals = 8
	// tpccRoundTxns is the fixed transaction count of one round. Each
	// round starts from a freshly loaded engine, so the tables grow by
	// the same amount in every round of every run.
	tpccRoundTxns = 2000
	// tpccSearchStart is the frozen rate the capacity search starts at.
	tpccSearchStart = 3000
	// tpccSLOMs is TPC-C's p99 limit for the capacity search. TPC-C's
	// own p99 sits near the key-value limit of 10ms at every rate (its
	// Delivery and StockLevel transactions, deadlock retries and commit
	// stalls under held locks), so at 10ms the search would only sample
	// noise; at 50ms it finds where the open-loop queue starts to grow.
	tpccSLOMs = 50.0
)

// tpccSpec is the benchmark's TPC-C: the workload package's standard mix
// at 4 warehouses.
var tpccSpec = workload.TPCCConfig{Warehouses: tpccWarehouses, DistrictsPerWarehouse: tpccDistricts}

// setupTPCC opens an engine on files and loads TPC-C.
func setupTPCC(o *options, trace bool) (*instance, time.Duration, error) {
	runtime.GC() // every set-up starts from the same heap, not the last one's garbage
	start := time.Now()
	in, err := openInstance(o.instanceDir(), trace)
	if err != nil {
		return nil, 0, err
	}
	if err := workload.NewTPCC(tpccSpec).Load(in.db); err != nil {
		in.close()
		return nil, 0, fmt.Errorf("load tpcc: %w", err)
	}
	return in, time.Since(start), nil
}

// runTPCC runs closed-loop rounds for the whole run. Traced, the rounds
// alternate between untraced (the latency figures) and traced (the layer
// figures), and the capacity search follows.
func runTPCC(o *options) (*result, error) {
	res := &result{}
	traced := &result{}
	var perType []map[string]stats.Summary // traced rounds
	start := time.Now()
	for round := 0; round < 4 || time.Since(start) < o.seconds; round++ {
		trace := o.trace && round%2 == 1
		into := res
		if trace {
			into = traced
		}
		hr, err := tpccRound(o, round, trace, into)
		if err != nil {
			return nil, err
		}
		if trace {
			perType = append(perType, hr.PerTag)
		}
	}
	if !o.trace {
		return res, nil
	}
	res.checks = append(res.checks, traced.checks...)
	res.layers = tpccLayers(traced, perType)
	res.tracedP50 = stats.Percentile(traced.lat.all(), 0.5)
	res.attempted += traced.attempted
	res.failed += traced.failed
	probes := 0
	max, err := searchRate(tpccSearchStart, tpccSLOMs, func(rate float64) (probe, error) {
		probes++
		return tpccProbe(o, probes, rate, res)
	})
	if err != nil {
		return nil, err
	}
	res.maxTPS = max
	return res, nil
}

// tpccRound loads a fresh engine, runs tpccRoundTxns transactions from
// tpccTerminals closed-loop terminals through the experiment harness,
// then checks the engine. Only a traced run keeps the round's latencies:
// it reports them, and an untraced run's heap should not grow with them.
func tpccRound(o *options, round int, trace bool, res *result) (harness.Result, error) {
	in, d, err := setupTPCC(o, trace)
	if err != nil {
		return harness.Result{}, err
	}
	defer in.close()
	res.setups = append(res.setups, d.Seconds())
	w := workload.NewTPCC(tpccSpec)
	clients := make([]workload.Client, tpccTerminals)
	for i := range clients {
		if clients[i], err = w.NewClient(in.db, o.seed*1_000_003+int64(round)*101+int64(i)); err != nil {
			return harness.Result{}, err
		}
	}
	if trace {
		in.log.take()
		in.data.take()
	}
	a := takeSnap(in)
	hr, err := harness.RunClients(w.Name(), in.db.Locks().Scheduler().Name(), clients,
		harness.RunConfig{Clients: tpccTerminals, Count: tpccRoundTxns})
	b := takeSnap(in)
	if err != nil {
		return harness.Result{}, err
	}
	win := between(a, b)
	if trace {
		win.logDev = in.log.take()
		win.dataDev = in.data.take()
	}
	res.attempted += tpccRoundTxns
	res.failed += int64(hr.Errors)
	res.committed += int64(len(hr.Latencies))
	res.measured += win.wall
	if o.trace {
		// Each round is one interval of the run's latencies.
		res.addLat(&intervals{start: a.at, b: [][]float64{hr.Latencies}})
	}
	res.win.add(win)
	res.check(checkInvariants(in.db))
	res.check(checkTPCCOrders(in.db, tpccWarehouses, tpccDistricts))
	return hr, nil
}

// tpccProbe offers TPC-C open loop at rate for probeDur on a fresh
// engine: a Poisson schedule hands due transactions to tpccTerminals
// executors, and each transaction is timed from its due time.
func tpccProbe(o *options, n int, rate float64, res *result) (probe, error) {
	in, d, err := setupTPCC(o, false)
	if err != nil {
		return probe{}, err
	}
	defer in.close()
	res.setups = append(res.setups, d.Seconds())
	w := workload.NewTPCC(tpccSpec)
	timer, err := newPreciseTimer()
	if err != nil {
		return probe{}, err
	}
	defer timer.close()
	jobs := make(chan time.Time, pendingCap)
	start := time.Now().Add(time.Millisecond)
	lats := make([]*intervals, tpccTerminals)
	var failed atomic.Int64
	var wg sync.WaitGroup
	bl := &backlog{}
	for i := 0; i < tpccTerminals; i++ {
		c, err := w.NewClient(in.db, o.seed*1_000_003+int64(n)*1009+int64(i)+7)
		if err != nil {
			close(jobs)
			wg.Wait()
			return probe{}, err
		}
		lats[i] = newIntervals(start, probeInterval)
		wg.Add(1)
		go func(c workload.Client, lat *intervals) {
			defer wg.Done()
			for due := range jobs {
				_, err := c.Run()
				bl.dec()
				if err != nil {
					failed.Add(1)
					continue
				}
				lat.add(due, float64(time.Since(due))/1e6)
			}
		}(c, lats[i])
	}
	sched := newPoisson(o.seed*7919+int64(n)*104729, rate, start, probeDur)
	pc := &pacer{timer: timer, backlog: bl}
	err = pc.run(sched, func(due time.Time) error {
		bl.inc()
		jobs <- due
		return nil
	}, func() error { return nil })
	close(jobs)
	wg.Wait()
	if err != nil {
		return probe{}, err
	}
	p := probe{lat: newIntervals(start, probeInterval), failed: failed.Load()}
	for _, lat := range lats {
		p.lat.merge(lat)
	}
	res.check(checkInvariants(in.db))
	res.check(checkTPCCOrders(in.db, tpccWarehouses, tpccDistricts))
	return p, nil
}

// tpccLayers computes the traced rounds' layer metrics. The per-type
// latencies are medians over the traced rounds, like p99_ms.
func tpccLayers(r *result, perType []map[string]stats.Summary) map[string]float64 {
	txns := float64(r.committed)
	m := layerMetrics(r.win, txns, txns)
	perRound := func(tag string, f func(stats.Summary) float64) float64 {
		var xs []float64
		for _, pt := range perType {
			if s, ok := pt[tag]; ok {
				xs = append(xs, f(s))
			}
		}
		return stats.Percentile(xs, 0.5)
	}
	p50 := func(s stats.Summary) float64 { return s.P50 }
	p99 := func(s stats.Summary) float64 { return s.P99 }
	m["tpcc.neworder_p50_ms"] = perRound(workload.TagNewOrder, p50)
	m["tpcc.neworder_p99_ms"] = perRound(workload.TagNewOrder, p99)
	m["tpcc.payment_p50_ms"] = perRound(workload.TagPayment, p50)
	m["tpcc.payment_p99_ms"] = perRound(workload.TagPayment, p99)
	return m
}
