package main

import (
	"strings"
	"sync"
	"time"

	"vats/internal/stats"
)

// layerNames lists every per-layer metric a traced run prints. A metric
// that does not apply to a workload (TPC-C's per-type latencies on the
// key-value mixes, the wire layers on in-process TPC-C) reads 0.
var layerNames = []string{
	"tps", "p50_ms", "p99_ms", "sd_ms", "max_tps_at_slo", "fail_frac", "latency.samples", "latency.pooled_p99_ms",
	"loadgen.late_p99_ms", "loadgen.backlog_max",
	"server.ping_idle_p50_us", "server.ping_hol_p50_us", "server.ping_hol_p99_us",
	"admit.wait_p99_us", "admit.shed_frac",
	"tpcc.neworder_p50_ms", "tpcc.neworder_p99_ms", "tpcc.payment_p50_ms", "tpcc.payment_p99_ms",
	"lock.acquires_per_txn", "lock.wait_frac", "lock.wait_us_per_txn", "lock.deadlocks_per_ktxn", "lock.timeouts",
	"buffer.hit_ratio", "buffer.misses_per_txn", "buffer.evictions_per_txn", "buffer.writebacks_per_txn",
	"buffer.mutex_wait_us_per_txn",
	"wal.appends_per_txn", "wal.flushes_per_commit", "wal.grouped_frac", "wal.bytes_per_txn",
	"disk.log.syncs_per_commit", "disk.log.sync_p50_us", "disk.log.sync_p99_us", "disk.log.busy_frac",
	"disk.log.write_bytes_per_txn", "disk.data.reads_per_txn", "disk.data.read_p99_us", "disk.data.writes_per_txn",
	"runtime.cpu_us_per_txn", "runtime.gc_cycles_per_ktxn", "runtime.gc_pause_p99_us", "runtime.heap_max_mb",
	"trace.overhead_frac",
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case name == "tps" || name == "max_tps_at_slo":
		return "1/s"
	case strings.HasSuffix(name, "_us") || strings.HasSuffix(name, "_us_per_txn"):
		return "us"
	case strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.Contains(name, "bytes"):
		return "B"
	default:
		return "count"
	}
}

// layerMetrics turns a traced window into the per-layer metrics every
// workload shares. txns is the number of committed transactions,
// commits those that wrote the log.
func layerMetrics(w window, txns, commits float64) map[string]float64 {
	m := make(map[string]float64, len(layerNames))
	for _, n := range layerNames {
		m[n] = 0
	}
	m["admit.wait_p99_us"] = stats.Percentile(w.admitWaitP99s, 0.5)
	m["admit.shed_frac"] = ratio(float64(w.shed), float64(w.admitted+w.shed))

	m["lock.acquires_per_txn"] = ratio(float64(w.lock.Acquires), txns)
	m["lock.wait_frac"] = ratio(float64(w.lock.Waits), float64(w.lock.Acquires))
	m["lock.wait_us_per_txn"] = ratio(float64(w.lock.WaitTime)/1e3, txns)
	m["lock.deadlocks_per_ktxn"] = ratio(float64(w.lock.Deadlocks)*1e3, txns)
	m["lock.timeouts"] = float64(w.lock.Timeouts)

	m["buffer.hit_ratio"] = ratio(float64(w.buf.Hits), float64(w.buf.Hits+w.buf.Misses))
	m["buffer.misses_per_txn"] = ratio(float64(w.buf.Misses), txns)
	m["buffer.evictions_per_txn"] = ratio(float64(w.buf.Evictions), txns)
	m["buffer.writebacks_per_txn"] = ratio(float64(w.buf.WriteBacks), txns)
	m["buffer.mutex_wait_us_per_txn"] = ratio(float64(w.buf.Mutex.WaitTime)/1e3, txns)

	m["wal.appends_per_txn"] = ratio(float64(w.wal.Appends), txns)
	m["wal.flushes_per_commit"] = ratio(float64(w.wal.Flushes), commits)
	m["wal.grouped_frac"] = ratio(float64(w.wal.GroupedCommits), commits)
	m["wal.bytes_per_txn"] = ratio(float64(w.wal.Bytes), txns)

	m["disk.log.syncs_per_commit"] = ratio(float64(w.logDev.sync.n), commits)
	m["disk.log.sync_p50_us"] = stats.Percentile(w.logDev.sync.lat, 0.5)
	m["disk.log.sync_p99_us"] = stats.Percentile(w.logDev.sync.lat, 0.99)
	m["disk.log.busy_frac"] = ratio(float64(w.logDev.sync.busy+w.logDev.writeData.busy), float64(w.wall))
	m["disk.log.write_bytes_per_txn"] = ratio(float64(w.logDev.writeData.bytes), txns)
	m["disk.data.reads_per_txn"] = ratio(float64(w.dataDev.readBlock.n), txns)
	m["disk.data.read_p99_us"] = stats.Percentile(w.dataDev.readBlock.lat, 0.99)
	m["disk.data.writes_per_txn"] = ratio(float64(w.dataDev.writeBlock.n), txns)

	m["runtime.cpu_us_per_txn"] = ratio(float64(w.cpu)/1e3, txns)
	m["runtime.gc_cycles_per_ktxn"] = ratio(float64(w.gcs)*1e3, txns)
	m["runtime.gc_pause_p99_us"] = stats.Percentile(w.gcPausesUs, 0.99)
	return m
}

// admitSampler reads the admission controller's last-window queue-wait
// p99 once per controller window while a measured window runs.
type admitSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64 // µs
}

func startAdmitSampler(in *instance) *admitSampler {
	s := &admitSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(100 * time.Millisecond) // admit.Config's default window
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.samples = append(s.samples, float64(in.srv.Admitter().Stats().WindowP99)/1e3)
			}
		}
	}()
	return s
}

func (s *admitSampler) finish() []float64 {
	close(s.stop)
	s.done.Wait()
	return s.samples
}
