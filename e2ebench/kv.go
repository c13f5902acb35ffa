package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vats/internal/engine"
	"vats/internal/server"
	"vats/internal/stats"
)

// kvSpec is one key-value workload driven over the wire.
type kvSpec struct {
	name string
	keys uint64
	// rate is the frozen offered rate of the fixed-rate window, in
	// requests per second: about a third of the knee on a 2-CPU host.
	rate float64
	// searchFrom is the frozen rate the capacity search starts at.
	searchFrom float64
	mix        mixFunc
}

// kvRead: snapshot point gets, with a few short scans and single-row
// updates, uniform over a table about six times the buffer pool.
var kvRead = kvSpec{
	name:       "kv_read",
	keys:       65536,
	rate:       20000,
	searchFrom: 40000,
	mix: func(rng *rand.Rand) (uint8, uint64, uint64) {
		key := uint64(rng.Int63n(65536)) + 1
		switch p := rng.Intn(100); {
		case p < 2:
			return server.OpScan, key, min(key+uint64(rng.Intn(scanLimit)), 65536)
		case p < 5:
			return server.OpUpdate, key, 0
		default:
			return server.OpGet, key, 0
		}
	},
}

// kvWrite: auto-commit single-row updates, uniform over a table that
// fits the buffer pool.
var kvWrite = kvSpec{
	name:       "kv_write",
	keys:       4096,
	rate:       1200,
	searchFrom: 2400,
	mix:        updateMix(4096),
}

// updateMix draws auto-commit single-row updates uniform over keys.
func updateMix(keys uint64) mixFunc {
	return func(rng *rand.Rand) (uint8, uint64, uint64) {
		return server.OpUpdate, uint64(rng.Int63n(int64(keys))) + 1, 0
	}
}

// loadKV creates the key-value table and inserts keys 1..n, each row
// carrying the loaded tag 0.
func loadKV(db *engine.DB, n uint64) error {
	t, err := db.CreateTable(kvTable)
	if err != nil {
		return err
	}
	s := db.NewSession()
	row := make([]byte, 0, kvRowSize)
	const batch = 1000
	for lo := uint64(1); lo <= n; lo += batch {
		err := s.RunTxn(3, func(tx *engine.Txn) error {
			for k := lo; k < lo+batch && k <= n; k++ {
				if err := tx.Insert(t, k, appendKVRow(row[:0], k, 0)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("load keys from %d: %w", lo, err)
		}
	}
	return nil
}

// setupKV opens an engine on files, loads the table and starts the
// server: the set-up a vatsd user waits for before it serves.
func setupKV(o *options, spec kvSpec, trace bool) (*instance, time.Duration, error) {
	runtime.GC() // every set-up starts from the same heap, not the last one's garbage
	start := time.Now()
	in, err := openInstance(o.instanceDir(), trace)
	if err != nil {
		return nil, 0, err
	}
	if err := loadKV(in.db, spec.keys); err != nil {
		in.close()
		return nil, 0, err
	}
	if err := in.serve(); err != nil {
		in.close()
		return nil, 0, err
	}
	return in, time.Since(start), nil
}

// kvSetups is how many times a key-value run sets the engine up, each on
// fresh files; set-up time is the fastest of them.
const kvSetups = 15

// runKV runs a key-value workload over nproc connections, each phase on
// an engine of its own. It first sets the engine up and tears it down
// until kvSetups set-ups are timed, counting the ones the phases below
// will make, so that no set-up runs while a phase's samples are held.
// Untraced, one engine then serves the frozen rate for the whole run.
// Traced, a second engine serves it traced for the other half (the
// layer figures), and a third serves the capacity search.
func runKV(o *options, spec kvSpec) (*result, error) {
	conns := runtime.NumCPU()
	res := &result{}
	phases := 1
	window := o.seconds
	if o.trace {
		phases = 3
		window = o.seconds / 2
	}
	for len(res.setups)+phases < kvSetups {
		if err := kvPhase(o, spec, res, false, nil); err != nil {
			return nil, err
		}
	}
	err := kvPhase(o, spec, res, false, func(in *instance) error {
		_, err := kvFixedRate(o, spec, in, conns, window, res)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !o.trace {
		return res, nil
	}
	traced := &result{}
	err = kvPhase(o, spec, res, true, func(in *instance) (err error) {
		res.layers, err = kvFixedRate(o, spec, in, conns, o.seconds-window, traced)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.checks = append(res.checks, traced.checks...)
	res.tracedP50 = stats.Percentile(traced.lat.all(), 0.5)
	res.attempted += traced.attempted
	res.failed += traced.failed
	err = kvPhase(o, spec, res, false, func(in *instance) (err error) {
		res.maxTPS, err = kvSearch(o, spec, in, conns, res)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// kvPhase sets up a fresh engine, records the set-up time, runs fn (if
// any) on it and tears it down.
func kvPhase(o *options, spec kvSpec, res *result, trace bool, fn func(*instance) error) error {
	in, d, err := setupKV(o, spec, trace)
	if err != nil {
		return err
	}
	defer in.close()
	res.setups = append(res.setups, d.Seconds())
	if fn == nil {
		return nil
	}
	return fn(in)
}

// kvFixedRate offers the workload's frozen rate for a one-second warm-up
// and then for a measured window of dur, and checks the engine after.
// On a traced instance it also pings an idle connection first and
// interleaves pings with the load, and returns the layer metrics.
func kvFixedRate(o *options, spec kvSpec, in *instance, conns int, dur time.Duration, res *result) (map[string]float64, error) {
	trace := in.log != nil
	var idle []float64
	if trace {
		var err error
		if idle, err = pingIdle(in.addr, 200); err != nil {
			return nil, err
		}
	}
	wl, err := newWireLoad(in.addr, conns, spec.keys, o.seed, spec.mix)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	warm, err := wl.run(spec.rate, time.Second, time.Second, 0, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.check(checkProtocol(warm))

	pingEach := 0
	if trace {
		// About one ping per 10ms on each connection.
		pingEach = max(1, int(spec.rate/float64(conns)/100))
		in.log.take()
		in.data.take()
	}
	sampler := startAdmitSampler(in)
	var a, b snap
	run, err := wl.run(spec.rate, dur, time.Second, pingEach,
		func() { a = takeSnap(in) }, func() { b = takeSnap(in) })
	admitP99s := sampler.finish()
	if err != nil {
		return nil, err
	}
	win := between(a, b)
	win.admitWaitP99s = admitP99s
	if trace {
		win.logDev = in.log.take()
		win.dataDev = in.data.take()
	}
	res.attempted += run.attempted
	res.failed += run.failed()
	res.committed += run.ok
	res.measured += win.wall
	res.addLat(run.lat)
	res.win.add(win)
	res.check(checkProtocol(run))
	res.check(checkInvariants(in.db))
	res.check(checkKVState(in.db, spec.keys, wl.acked))
	if !trace {
		return nil, nil
	}
	m := layerMetrics(win, float64(run.ok), float64(run.writes))
	m["loadgen.late_p99_ms"] = stats.Percentile(run.late, 0.99)
	m["loadgen.backlog_max"] = float64(run.backlogMax)
	m["server.ping_idle_p50_us"] = stats.Percentile(idle, 0.5) * 1e3
	m["server.ping_hol_p50_us"] = stats.Percentile(run.ping, 0.5) * 1e3
	m["server.ping_hol_p99_us"] = stats.Percentile(run.ping, 0.99) * 1e3
	return m, nil
}

// kvSearch finds the highest offered rate that meets the latency limit,
// starting from the workload's frozen rate.
func kvSearch(o *options, spec kvSpec, in *instance, conns int, res *result) (float64, error) {
	wl, err := newWireLoad(in.addr, conns, spec.keys, o.seed+1, spec.mix)
	if err != nil {
		return 0, err
	}
	defer wl.close()
	if _, err := wl.run(spec.searchFrom, 500*time.Millisecond, time.Second, 0, nil, nil); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	max, err := searchRate(spec.searchFrom, sloLimitMs, func(rate float64) (probe, error) {
		run, err := wl.run(rate, probeDur, probeInterval, 0, nil, nil)
		if err != nil {
			return probe{}, err
		}
		res.check(checkProtocol(run))
		return probe{lat: run.lat, failed: run.failed()}, nil
	})
	if err != nil {
		return 0, err
	}
	res.check(checkInvariants(in.db))
	res.check(checkKVState(in.db, spec.keys, wl.acked))
	return max, nil
}

// pingIdle times n sequential OpPing round trips on a fresh connection
// before any load, in ms.
func pingIdle(addr string, n int) ([]float64, error) {
	c, err := dialWire(0, addr)
	if err != nil {
		return nil, err
	}
	defer c.nc.Close()
	frame := server.AppendFrame(nil, 0, server.OpPing, 0, nil)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := c.nc.Write(frame); err != nil {
			return nil, fmt.Errorf("ping: %w", err)
		}
		f, err := c.readFrame()
		if err != nil || f.Op != server.StatusOK {
			return nil, fmt.Errorf("ping: bad reply (%v)", err)
		}
		out = append(out, float64(time.Since(start))/1e6)
	}
	return out, nil
}
