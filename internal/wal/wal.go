// Package wal implements the redo-log manager: LSN allocation, group
// commit, the three durability policies MySQL exposes through
// innodb_flush_log_at_trx_commit (eager flush, lazy flush, lazy write —
// see the paper's Appendix B), and the single-stream vs. parallel logging
// modes from §4.2/§6.2.
//
// In single-stream mode all committers serialize on one log device — the
// Postgres WALWriteLock pathology TProfiler identifies as 76.8% of overall
// latency variance. In parallel mode two (or more) log devices hold
// independent sets of redo logs and a committing transaction picks the
// stream with fewer waiters, waiting only when none is free (§6.2).
//
// The log is stored as *batches*, not individual records: a transaction
// hands the manager all of its redo records in one AppendBatch call (one
// lock acquisition per transaction instead of one per statement), the
// batch travels through buffered → written → durable as a unit, and the
// commit-path durability check is an O(1) per-transaction outstanding-
// batch counter plus durable-LSN watermarks — never a log scan.
//
// There is one write path, whatever the device: a flush serializes its
// batches into checksummed frames (codec.go), appends them to a log
// device's write cache with WriteData and makes them durable with Sync.
// A simulated device charges the frames' blocks and the fsync at Sync;
// a real file pwrites and fdatasyncs them. After a device crash,
// recovery decodes the devices' durable byte images.
package wal

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/disk"
	"vats/internal/faultfs"
	"vats/internal/obs"
)

// LSN is a log sequence number; LSNs are dense and strictly increasing.
type LSN uint64

// FlushPolicy selects when redo records become durable relative to
// commit. The names mirror the paper's Appendix B.
type FlushPolicy int

const (
	// EagerFlush writes and fsyncs a transaction's redo records on its
	// commit path (innodb_flush_log_at_trx_commit = 1). Durable but the
	// full disk-latency variance lands on the transaction.
	EagerFlush FlushPolicy = iota
	// LazyFlush writes records on the commit path but defers fsync to a
	// background flusher (= 2). A crash can lose transactions that
	// committed since the last flush.
	LazyFlush
	// LazyWrite defers both write and fsync to the background flusher
	// (= 0). Fastest and most predictable commit; largest crash window.
	LazyWrite
)

// String names the policy.
func (p FlushPolicy) String() string {
	switch p {
	case LazyFlush:
		return "LazyFlush"
	case LazyWrite:
		return "LazyWrite"
	default:
		return "EagerFlush"
	}
}

// ErrCrashed is returned by operations after Crash.
var ErrCrashed = errors.New("wal: simulated crash")

// Config configures a Manager.
type Config struct {
	// Devices are the log devices. One device = single-stream logging
	// (the Postgres WALWriteLock model); two or more enable parallel
	// logging when Parallel is set.
	Devices []disk.Device
	// Parallel allows committers to use any device concurrently; when
	// false only Devices[0] is used.
	Parallel bool
	// Policy is the durability policy.
	Policy FlushPolicy
	// FlushInterval is the background flusher period for the lazy
	// policies (the paper's engines use ~1s; scaled default 5ms).
	FlushInterval time.Duration
	// Obs, when non-nil, receives live metrics (flush latency,
	// group-commit batch size, bytes, per-stream flush counts).
	Obs *obs.Obs
}

// Stats reports log-manager activity.
type Stats struct {
	Appends     int64
	Flushes     int64
	RecordsSync int64 // records made durable
	Bytes       int64
	// GroupedCommits counts commits satisfied by another transaction's
	// flush (group commit piggybacking).
	GroupedCommits int64
}

// batch is the unit of log storage and of durability: the redo records
// one AppendBatch call delivered for one transaction. Payloads live in a
// single contiguous buffer with per-record end offsets, so a batch of n
// records costs two allocations, not n. A batch becomes durable as a
// whole — after a crash it is either fully recovered or fully absent.
type batch struct {
	txn   uint64
	first LSN    // LSN of record 0; records are dense through last()
	data  []byte // concatenated payload bytes
	ends  []int  // ends[i] = end offset of record i in data
	// stream is the log stream whose device cache holds this batch's
	// frame (-1 until written): the fsync must go to the same device as
	// the write.
	stream int
}

func (b *batch) last() LSN  { return b.first + LSN(len(b.ends)) - 1 }
func (b *batch) bytes() int { return len(b.data) }

// Manager is the redo-log manager.
type Manager struct {
	cfg     Config
	streams []*stream
	met     *obs.WALMetrics

	// next is the last allocated LSN; allocation is a lock-free atomic
	// add, so concurrent appenders never serialize on LSN assignment.
	next atomic.Uint64

	mu   sync.Mutex
	cond *sync.Cond
	// buffered holds appended batches not yet claimed by any flush;
	// written holds batches whose frames sit in a device's write cache,
	// awaiting an fsync; durable holds everything fsynced.
	// A claim moves whole batches out of buffered/written, performs the
	// device I/O without m.mu, then completes them into durable — so
	// claiming is O(batches taken), never O(log length).
	buffered      []*batch
	bufferedBytes int
	written       []*batch
	durable       []*batch
	durableRecs   int
	// pending counts, per transaction, how many of its batches are not
	// yet durable: the commit-path durability check is pending[txn] == 0.
	pending map[uint64]int
	// kicked counts resurrections: every path that puts a claimed batch
	// back into buffered/written after a transient I/O error bumps it
	// and broadcasts. A committer parked in commitEager's waiter branch
	// watches the counter — its batch may be among the resurrected, and
	// under EagerFlush nothing else is obligated to re-claim buffered
	// batches, so the waiter must wake and drive a Flush itself rather
	// than sleep for a wakeup that will never come.
	kicked uint64
	// marks[i] is the highest LSN stream i has made durable; contig is
	// the global durable watermark — every LSN ≤ contig is durable. ooo
	// holds completed ranges waiting for a gap to fill (out-of-order
	// completion across parallel streams), sorted by first LSN.
	marks   []LSN
	contig  LSN
	ooo     []lsnRange
	crashed bool
	// truncLow is the highest Truncate bound applied so far: LSNs
	// below it are durable-but-reclaimed (CheckInvariants uses it).
	truncLow LSN

	appends atomic.Int64
	flushes atomic.Int64
	synced  atomic.Int64
	bytes   atomic.Int64
	grouped atomic.Int64

	stopFlusher chan struct{}
	flusherDone chan struct{}
}

type lsnRange struct{ first, last LSN }

type stream struct {
	idx     int
	dev     disk.Device
	mu      sync.Mutex
	waiters atomic.Int32
}

// New builds a Manager. At least one device is required.
func New(cfg Config) *Manager {
	if len(cfg.Devices) == 0 {
		panic("wal: need at least one device")
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Millisecond
	}
	m := &Manager{cfg: cfg, pending: make(map[uint64]int)}
	m.met = obs.NewWALMetrics(cfg.Obs, len(cfg.Devices))
	m.cond = sync.NewCond(&m.mu)
	m.marks = make([]LSN, len(cfg.Devices))
	for i, d := range cfg.Devices {
		m.streams = append(m.streams, &stream{idx: i, dev: d})
	}
	if cfg.Policy != EagerFlush {
		m.stopFlusher = make(chan struct{})
		m.flusherDone = make(chan struct{})
		go m.flushLoop()
	}
	return m
}

// Append buffers one redo record for txn and returns its LSN. The record
// is not durable until Commit (eager) or a background flush (lazy).
func (m *Manager) Append(txn uint64, payload []byte) (LSN, error) {
	bt := &batch{txn: txn, data: append([]byte(nil), payload...), ends: []int{len(payload)}, stream: -1}
	return m.appendBatch(txn, bt, 1)
}

// AppendBatch buffers all of txn's payloads as one atomic batch and
// returns the LSN of its first record; the rest follow densely. The
// payload bytes are copied once into a single contiguous buffer, and the
// whole batch takes one lock acquisition regardless of record count.
// Durability is all-or-nothing: after a crash either every record in the
// batch is recovered or none is.
func (m *Manager) AppendBatch(txn uint64, payloads [][]byte) (LSN, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	bt := &batch{txn: txn, data: make([]byte, 0, total), ends: make([]int, len(payloads)), stream: -1}
	for i, p := range payloads {
		bt.data = append(bt.data, p...)
		bt.ends[i] = len(bt.data)
	}
	return m.appendBatch(txn, bt, len(payloads))
}

// NextLSN returns the highest LSN allocated so far; the next Append
// will receive an LSN strictly greater. The checkpointer's active-
// transaction registry reads this *before* a transaction appends to
// get a lower bound on where that transaction's records will land.
func (m *Manager) NextLSN() LSN {
	return LSN(m.next.Load())
}

func (m *Manager) appendBatch(txn uint64, bt *batch, n int) (LSN, error) {
	last := LSN(m.next.Add(uint64(n)))
	bt.first = last - LSN(n) + 1
	m.mu.Lock()
	if m.crashed {
		m.mu.Unlock()
		return 0, ErrCrashed
	}
	m.buffered = append(m.buffered, bt)
	m.bufferedBytes += bt.bytes()
	m.pending[txn]++
	m.mu.Unlock()
	m.appends.Add(int64(n))
	m.met.AppendN(n)
	return bt.first, nil
}

// Commit makes txn's records durable according to the policy and returns
// when the policy's commit-path obligation is met: for EagerFlush that
// means fsynced; for LazyFlush, written; for LazyWrite, immediately.
func (m *Manager) Commit(txn uint64) error {
	switch m.cfg.Policy {
	case EagerFlush:
		return m.commitEager(txn)
	case LazyFlush:
		return m.commitLazyFlush(txn)
	default: // LazyWrite
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.crashed {
			return ErrCrashed
		}
		return nil
	}
}

// CommitSync makes txn's records durable NOW, regardless of the
// configured policy — the forced-durability primitive two-phase commit
// needs for prepare and decision records. Under the lazy policies the
// batch may already have been claimed by the background flusher; the
// group-commit loop handles that by waiting for the in-flight flush and
// re-checking the pending count.
func (m *Manager) CommitSync(txn uint64) error {
	return m.commitEager(txn)
}

// Release moves txn's buffered records toward the device WITHOUT a
// durability barrier — the page-cache write of the LazyFlush commit
// obligation, available under any policy. It exists for bulk streamers
// like checkpoints: releasing each chunk keeps the buffered set
// bounded without forcing an fsync per chunk (under EagerFlush a plain
// Commit would), so background streaming adds exactly one barrier —
// the final Flush — to the live group-commit traffic. Released records
// become durable at the next Flush or background flusher pass.
func (m *Manager) Release(txn uint64) error {
	return m.commitLazyFlush(txn)
}

func (m *Manager) commitEager(txn uint64) error {
	for {
		m.mu.Lock()
		if m.crashed {
			m.mu.Unlock()
			return ErrCrashed
		}
		if m.pending[txn] == 0 {
			m.mu.Unlock()
			return nil
		}
		m.mu.Unlock()

		// Queue on a log stream. Whoever gets the stream lock becomes
		// the group-commit leader and flushes everything buffered at
		// that moment; committers queued behind it find their batches
		// already durable when they get the lock.
		st := m.pickStream()
		st.waiters.Add(1)
		st.mu.Lock()
		m.mu.Lock()
		if m.crashed {
			m.mu.Unlock()
			st.mu.Unlock()
			st.waiters.Add(-1)
			return ErrCrashed
		}
		if m.pending[txn] == 0 {
			m.mu.Unlock()
			st.mu.Unlock()
			st.waiters.Add(-1)
			m.grouped.Add(1)
			m.met.Grouped()
			return nil
		}
		claim, bytes := m.claimBufferedLocked()
		m.mu.Unlock()

		if len(claim) == 0 {
			// Our batches are in flight with a leader or flusher; wait
			// for its broadcast. Stop waiting if a transient I/O error
			// resurrects batches (kicked moves) or — when no background
			// flusher runs (EagerFlush) — if batches sit written-but-
			// unsynced, since then nobody is obligated to sync them. In
			// either case our batch may be stranded, so we drive a
			// flush pass ourselves and re-check.
			st.mu.Unlock()
			st.waiters.Add(-1)
			m.mu.Lock()
			gen := m.kicked
			for !m.crashed && m.pending[txn] != 0 && m.kicked == gen &&
				(m.stopFlusher != nil || len(m.written) == 0) {
				m.cond.Wait()
			}
			crashed := m.crashed
			done := m.pending[txn] == 0
			m.mu.Unlock()
			if crashed {
				return ErrCrashed
			}
			if done {
				m.grouped.Add(1)
				m.met.Grouped()
				return nil
			}
			if err := m.Flush(); errors.Is(err, faultfs.ErrCrashed) || errors.Is(err, ErrCrashed) {
				return ErrCrashed
			}
			continue
		}

		var flushStart time.Time
		if m.met.FlushEnabled() {
			flushStart = time.Now()
		}
		ferr := st.writeSync(claim)
		if ferr == nil && !flushStart.IsZero() {
			m.met.FlushDone(time.Since(flushStart), recordCount(claim), bytes, st.idx)
		}

		m.mu.Lock()
		if m.crashed || errors.Is(ferr, faultfs.ErrCrashed) {
			// Crash raced with (or was) the flush; do not resurrect
			// batches — the devices' durable images are the truth now.
			m.crashed = true
			m.cond.Broadcast()
			m.mu.Unlock()
			st.mu.Unlock()
			st.waiters.Add(-1)
			return ErrCrashed
		}
		if ferr != nil {
			// Transient I/O error: nothing durable happened. Resurrect
			// the claim and retry; a duplicate frame from a write that
			// preceded a failed fsync is deduplicated at decode time.
			// The kick wakes parked waiters whose batches are in the
			// resurrected claim — we retry, but they must not assume so.
			m.buffered = append(claim, m.buffered...)
			m.bufferedBytes += bytes
			m.kicked++
			m.cond.Broadcast()
			m.mu.Unlock()
			st.mu.Unlock()
			st.waiters.Add(-1)
			continue
		}
		m.completeLocked(claim, st.idx)
		m.cond.Broadcast()
		m.mu.Unlock()
		st.mu.Unlock()
		st.waiters.Add(-1)
		m.flushes.Add(1)
		m.bytes.Add(int64(bytes))
	}
}

// frameBufs recycles frame-encoding buffers: a device does not retain
// what WriteData is given, so the buffer is free once the write returns.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrameBuf bounds the buffers frameBufs keeps; a larger claim
// (a checkpoint chunk, say) encodes into a buffer that is then dropped.
const maxPooledFrameBuf = 64 << 10

// write frames claim and appends the frames to the stream device's
// write cache.
func (st *stream) write(claim []*batch) error {
	bp := frameBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, bt := range claim {
		buf = appendFrame(buf, bt)
	}
	err := st.dev.WriteData(buf)
	if cap(buf) <= maxPooledFrameBuf {
		*bp = buf
		frameBufs.Put(bp)
	}
	return err
}

// writeSync frames a claim and pushes it through one device write +
// fsync. Caller holds st.mu.
func (st *stream) writeSync(claim []*batch) error {
	if err := st.write(claim); err != nil {
		return err
	}
	if err := st.dev.Sync(); err != nil {
		return err
	}
	for _, bt := range claim {
		bt.stream = st.idx
	}
	return nil
}

func (m *Manager) commitLazyFlush(txn uint64) error {
	m.mu.Lock()
	if m.crashed {
		m.mu.Unlock()
		return ErrCrashed
	}
	var moved []*batch
	movedBytes := 0
	kept := m.buffered[:0]
	for _, bt := range m.buffered {
		if bt.txn == txn {
			moved = append(moved, bt)
			movedBytes += bt.bytes()
			continue
		}
		kept = append(kept, bt)
	}
	for i := len(kept); i < len(m.buffered); i++ {
		m.buffered[i] = nil
	}
	m.buffered = kept
	m.bufferedBytes -= movedBytes
	m.mu.Unlock()
	if len(moved) == 0 {
		return nil
	}

	// The commit-path write pushes the frames into a device's volatile
	// cache (no fsync — that is the flusher's job, which is the whole
	// point of the policy). It does not take the stream lock, so it
	// never queues behind a group commit's or the flusher's fsync. The
	// batches are in neither buffered nor written while the I/O is in
	// flight, so a concurrent flusher pass cannot double-claim them;
	// a concurrent fsync of the stream at worst persists them early.
	st := m.pickStream()
	for attempt := 0; ; attempt++ {
		err := st.write(moved)
		if err == nil {
			break
		}
		if errors.Is(err, faultfs.ErrCrashed) {
			m.markCrashed()
			return ErrCrashed
		}
		// Transient write error: retry with fresh plan ops. Bail only
		// after an absurd run of failures (the plan would need
		// IOErrorP ≈ 1) and hand the batches to the flusher.
		if attempt >= 100 {
			m.mu.Lock()
			if m.crashed {
				m.mu.Unlock()
				return ErrCrashed
			}
			m.buffered = append(moved, m.buffered...)
			m.bufferedBytes += movedBytes
			m.kicked++
			m.cond.Broadcast()
			m.mu.Unlock()
			return err
		}
	}
	m.mu.Lock()
	if m.crashed {
		m.mu.Unlock()
		return ErrCrashed
	}
	for _, bt := range moved {
		bt.stream = st.idx
	}
	m.written = append(m.written, moved...)
	m.mu.Unlock()
	return nil
}

// claimBufferedLocked claims every buffered batch for flushing, leaving
// the buffered list empty. Caller holds m.mu; the claim is completed (or
// abandoned on crash) without re-scanning the log.
func (m *Manager) claimBufferedLocked() ([]*batch, int) {
	claim := m.buffered
	bytes := m.bufferedBytes
	m.buffered = nil
	m.bufferedBytes = 0
	return claim, bytes
}

// claimWrittenLocked claims every written-but-unsynced batch.
func (m *Manager) claimWrittenLocked() []*batch {
	claim := m.written
	m.written = nil
	return claim
}

// completeLocked marks claimed batches durable: appends them to the
// durable log, settles each transaction's outstanding-batch counter, and
// advances the stream's and the global durable-LSN watermarks. Caller
// holds m.mu.
func (m *Manager) completeLocked(claim []*batch, stream int) {
	recs := 0
	var hi LSN
	for _, bt := range claim {
		m.durable = append(m.durable, bt)
		recs += len(bt.ends)
		if l := bt.last(); l > hi {
			hi = l
		}
		if c := m.pending[bt.txn] - 1; c == 0 {
			delete(m.pending, bt.txn)
		} else {
			m.pending[bt.txn] = c
		}
		m.advanceWatermarkLocked(bt.first, bt.last())
	}
	m.durableRecs += recs
	m.synced.Add(int64(recs))
	if stream >= 0 && stream < len(m.marks) && hi > m.marks[stream] {
		m.marks[stream] = hi
	}
}

// advanceWatermarkLocked merges one newly durable LSN range into the
// global watermark. Ranges complete out of order across parallel
// streams; completed ranges beyond a gap park in m.ooo until the gap
// fills. Caller holds m.mu.
func (m *Manager) advanceWatermarkLocked(first, last LSN) {
	if first != m.contig+1 {
		i := sort.Search(len(m.ooo), func(i int) bool { return m.ooo[i].first > first })
		m.ooo = append(m.ooo, lsnRange{})
		copy(m.ooo[i+1:], m.ooo[i:])
		m.ooo[i] = lsnRange{first, last}
		return
	}
	m.contig = last
	for len(m.ooo) > 0 && m.ooo[0].first == m.contig+1 {
		m.contig = m.ooo[0].last
		m.ooo = m.ooo[1:]
	}
}

func recordCount(claim []*batch) int {
	n := 0
	for _, bt := range claim {
		n += len(bt.ends)
	}
	return n
}

// pickStream returns the log stream with the fewest waiters (§6.2); in
// single-stream mode it always returns stream 0.
func (m *Manager) pickStream() *stream {
	if !m.cfg.Parallel || len(m.streams) == 1 {
		return m.streams[0]
	}
	best := m.streams[0]
	bestW := best.waiters.Load()
	for _, s := range m.streams[1:] {
		if w := s.waiters.Load(); w < bestW {
			best, bestW = s, w
		}
	}
	return best
}

func (m *Manager) flushLoop() {
	defer close(m.flusherDone)
	ticker := time.NewTicker(m.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stopFlusher:
			return
		case <-ticker.C:
			m.backgroundFlush()
		}
	}
}

// backgroundFlush performs one flusher pass: write any still-buffered
// batches (LazyWrite) and fsync everything written but not yet durable.
func (m *Manager) backgroundFlush() {
	m.mu.Lock()
	if m.crashed {
		m.mu.Unlock()
		return
	}
	var toWrite []*batch
	if m.cfg.Policy == LazyWrite {
		toWrite, _ = m.claimBufferedLocked()
	}
	toSync := m.claimWrittenLocked()
	m.mu.Unlock()

	if len(toWrite) == 0 && len(toSync) == 0 {
		return
	}
	m.flushClaims(toWrite, toSync)
}

// Flush forces one synchronous flush pass (clean shutdown, checkpoint
// completion). The error matters: a checkpoint that truncates the log
// after an unflushed (or failed) pass would discard records it never
// made durable.
func (m *Manager) Flush() error {
	m.mu.Lock()
	if m.crashed {
		m.mu.Unlock()
		return ErrCrashed
	}
	toWrite, _ := m.claimBufferedLocked()
	toSync := m.claimWrittenLocked()
	m.mu.Unlock()
	if len(toWrite) == 0 && len(toSync) == 0 {
		return nil
	}
	return m.flushClaims(toWrite, toSync)
}

// flushClaims is one flush pass, shared by the background flusher and
// manual Flush. A written batch's frame sits in the cache of one
// specific device, so the fsync must go to that device: the claim is
// grouped by stream, still-buffered batches are first written to the
// least-loaded stream, and each involved stream gets one fsync.
// Transient errors resurrect the affected batches for the next pass; a
// crash outcome kills the manager and abandons the claim — the device
// images are the truth. Returns the first error encountered (the pass
// still visits every stream so transient errors on one stream don't
// strand another's batches).
func (m *Manager) flushClaims(toWrite, toSync []*batch) error {
	var firstErr error
	groups := make(map[int][]*batch)
	for _, bt := range toSync {
		groups[bt.stream] = append(groups[bt.stream], bt)
	}
	if len(toWrite) > 0 {
		st := m.pickStream()
		err := st.write(toWrite)
		switch {
		case errors.Is(err, faultfs.ErrCrashed):
			m.markCrashed()
			return ErrCrashed
		case err != nil:
			if firstErr == nil {
				firstErr = err
			}
			m.mu.Lock()
			if !m.crashed {
				// Resurrect and kick: under EagerFlush no background
				// pass claims buffered batches, so a committer parked
				// on one of these must wake and flush it itself.
				m.buffered = append(toWrite, m.buffered...)
				for _, bt := range toWrite {
					m.bufferedBytes += bt.bytes()
				}
				m.kicked++
				m.cond.Broadcast()
			}
			m.mu.Unlock()
		default:
			for _, bt := range toWrite {
				bt.stream = st.idx
			}
			groups[st.idx] = append(groups[st.idx], toWrite...)
		}
	}
	idxs := make([]int, 0, len(groups))
	for i := range groups {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		grp := groups[i]
		st := m.streams[i]
		var syncStart time.Time
		st.mu.Lock()
		if m.met.FlushEnabled() {
			syncStart = time.Now()
		}
		err := st.dev.Sync()
		st.mu.Unlock()
		switch {
		case errors.Is(err, faultfs.ErrCrashed):
			m.markCrashed()
			return ErrCrashed
		case err != nil:
			// The frames are still in the device cache, so the batches
			// go back on written unchanged: the next pass re-syncs the
			// same stream without rewriting anything.
			if firstErr == nil {
				firstErr = err
			}
			m.mu.Lock()
			if !m.crashed {
				m.written = append(grp, m.written...)
				m.kicked++
				m.cond.Broadcast()
			}
			m.mu.Unlock()
			continue
		}
		gbytes := 0
		for _, bt := range grp {
			gbytes += bt.bytes()
		}
		if !syncStart.IsZero() {
			m.met.FlushDone(time.Since(syncStart), recordCount(grp), gbytes, i)
		}
		m.flushes.Add(1)
		m.bytes.Add(int64(gbytes))
		m.mu.Lock()
		if m.crashed {
			m.mu.Unlock()
			return ErrCrashed
		}
		m.completeLocked(grp, i)
		m.cond.Broadcast()
		m.mu.Unlock()
	}
	return firstErr
}

// markCrashed transitions the manager to the crashed state and wakes
// every waiting committer. Background goroutines are not joined here —
// the caller may be the background flusher itself; Crash/Close own the
// join.
func (m *Manager) markCrashed() {
	m.mu.Lock()
	m.crashed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Crash simulates a crash: all non-durable batches are lost and the
// manager refuses further work. Use Recovered to inspect the surviving
// prefix. The paper's Appendix B: lazy policies "risk losing forward
// progress in the event of a crash".
func (m *Manager) Crash() {
	m.mu.Lock()
	m.crashed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.stopBackground()
}

// Close stops the flusher and flushes until nothing is pending (clean
// shutdown). A single flush is not enough on fault-capable devices: a
// transient write error resurrects the claimed batches into the buffer,
// and returning at that point would strand acked lazy-policy commits in
// memory forever — the torture harness caught exactly that. Close
// therefore retries until the log drains, the device crashes, or a
// generous retry bound trips (only reachable at error rates far beyond
// the harness's worst case).
func (m *Manager) Close() {
	m.stopBackground()
	for attempt := 0; attempt < 1000; attempt++ {
		_ = m.Flush() // drain-loop retry; the done check below decides
		m.mu.Lock()
		done := m.crashed || (len(m.buffered) == 0 && len(m.written) == 0)
		m.mu.Unlock()
		if done {
			return
		}
	}
}

func (m *Manager) stopBackground() {
	if m.stopFlusher == nil {
		return
	}
	select {
	case <-m.stopFlusher:
	default:
		close(m.stopFlusher)
	}
	<-m.flusherDone
}

// Entry is one durable log record as seen by recovery.
type Entry struct {
	LSN     LSN
	Txn     uint64
	Payload []byte
}

// sortedDurableLocked returns the durable batches in LSN order. Parallel
// streams complete batches out of order, so the durable list is sorted
// lazily at read time (recovery/inspection), never on the commit path.
func (m *Manager) sortedDurableLocked() []*batch {
	out := append([]*batch(nil), m.durable...)
	sort.Slice(out, func(i, j int) bool { return out[i].first < out[j].first })
	return out
}

// RecoveredEntries returns the durable records with their transaction
// ids in LSN order — the input to the engine's redo recovery.
func (m *Manager) RecoveredEntries() []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Entry
	for _, bt := range m.sortedDurableLocked() {
		start := 0
		for i, end := range bt.ends {
			out = append(out, Entry{LSN: bt.first + LSN(i), Txn: bt.txn, Payload: bt.data[start:end:end]})
			start = end
		}
	}
	return out
}

// Truncate discards durable records with LSN below `before` — the log
// reclamation step after a checkpoint. Non-durable records are never
// discarded regardless of LSN. Surviving records of a partially
// truncated batch are copied into a fresh buffer so the discarded
// payload bytes are actually released, not pinned by the old backing
// array.
func (m *Manager) Truncate(before LSN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if before > m.truncLow {
		m.truncLow = before
	}
	kept := make([]*batch, 0, len(m.durable))
	recs := 0
	for _, bt := range m.durable {
		switch {
		case bt.last() < before:
			continue // fully truncated; batch memory is released
		case bt.first >= before:
			kept = append(kept, bt)
			recs += len(bt.ends)
		default:
			drop := int(before - bt.first)
			start := bt.ends[drop-1]
			nb := &batch{
				txn:   bt.txn,
				first: before,
				data:  append([]byte(nil), bt.data[start:]...),
				ends:  make([]int, len(bt.ends)-drop),
			}
			for i := range nb.ends {
				nb.ends[i] = bt.ends[drop+i] - start
			}
			kept = append(kept, nb)
			recs += len(nb.ends)
		}
	}
	m.durable = kept
	m.durableRecs = recs
	return nil
}

// Recovered returns the payloads of durable records in LSN order — what
// crash recovery would replay.
func (m *Manager) Recovered() [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out [][]byte
	for _, bt := range m.sortedDurableLocked() {
		start := 0
		for _, end := range bt.ends {
			out = append(out, bt.data[start:end:end])
			start = end
		}
	}
	return out
}

// DurableCount returns how many records are durable.
func (m *Manager) DurableCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.durableRecs
}

// DurableWatermark returns the global durable watermark: the highest LSN
// W such that every record with LSN ≤ W has been made durable. It is
// monotone non-decreasing and advances only when out-of-order stream
// completions close their gaps.
func (m *Manager) DurableWatermark() LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.contig
}

// StreamWatermarks returns, per log stream, the highest LSN that stream
// has made durable (0 if it has flushed nothing). Each entry is monotone
// non-decreasing.
func (m *Manager) StreamWatermarks() []LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]LSN(nil), m.marks...)
}

// CheckInvariants audits the manager's bookkeeping and returns the
// first violation found. The torture harness calls it after every
// workload round and after recovery; it must hold at any quiescent
// point regardless of policy, stream count, or injected faults.
//
// Invariants checked:
//
//   - durable batches are well-formed and non-overlapping in LSN space;
//   - durableRecs equals the record count of the durable set;
//   - every LSN in [max(1,truncate bound), DurableWatermark] is covered
//     by exactly one durable batch (the watermark promise);
//   - parked out-of-order ranges are sorted, disjoint, and strictly
//     above the watermark with a real gap below them;
//   - bufferedBytes matches the buffered list;
//   - outstanding-batch counters are positive.
func (m *Manager) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sorted := m.sortedDurableLocked()
	recs := 0
	var prevLast LSN
	for i, bt := range sorted {
		if len(bt.ends) == 0 || bt.first == 0 {
			return fmt.Errorf("wal: durable batch %d malformed (first=%d nrec=%d)", i, bt.first, len(bt.ends))
		}
		if i > 0 && bt.first <= prevLast {
			return fmt.Errorf("wal: durable batches overlap: batch %d first=%d <= prev last=%d", i, bt.first, prevLast)
		}
		prevLast = bt.last()
		recs += len(bt.ends)
	}
	if recs != m.durableRecs {
		return fmt.Errorf("wal: durableRecs=%d but durable batches hold %d records", m.durableRecs, recs)
	}
	low := LSN(1)
	if m.truncLow > low {
		low = m.truncLow
	}
	if m.contig >= low {
		want := low
		for _, bt := range sorted {
			if bt.last() < low {
				continue
			}
			if bt.first > m.contig {
				break
			}
			first := bt.first
			if first < low {
				first = low
			}
			if first != want {
				return fmt.Errorf("wal: durable gap below watermark: want LSN %d, next batch starts at %d (watermark=%d)", want, first, m.contig)
			}
			want = bt.last() + 1
			if want > m.contig {
				break
			}
		}
		if want <= m.contig {
			return fmt.Errorf("wal: durable coverage ends at %d but watermark is %d", want-1, m.contig)
		}
	}
	for i, r := range m.ooo {
		if r.last < r.first {
			return fmt.Errorf("wal: ooo range %d inverted (%d-%d)", i, r.first, r.last)
		}
		if r.first <= m.contig+1 {
			return fmt.Errorf("wal: ooo range %d (%d-%d) should have merged into watermark %d", i, r.first, r.last, m.contig)
		}
		if i > 0 && r.first <= m.ooo[i-1].last {
			return fmt.Errorf("wal: ooo ranges %d and %d overlap", i-1, i)
		}
	}
	bb := 0
	for _, bt := range m.buffered {
		bb += bt.bytes()
	}
	if bb != m.bufferedBytes {
		return fmt.Errorf("wal: bufferedBytes=%d, buffered batches sum to %d", m.bufferedBytes, bb)
	}
	for txn, n := range m.pending {
		if n <= 0 {
			return fmt.Errorf("wal: pending[%d]=%d, want > 0", txn, n)
		}
	}
	return nil
}

// Devices returns the manager's log devices (for the torture harness
// to reach the fault-capable byte images).
func (m *Manager) Devices() []disk.Device {
	return append([]disk.Device(nil), m.cfg.Devices...)
}

// Crashed reports whether the manager has observed a crash — either an
// explicit Crash call or a crash outcome from a fault-capable device.
func (m *Manager) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Appends:        m.appends.Load(),
		Flushes:        m.flushes.Load(),
		RecordsSync:    m.synced.Load(),
		Bytes:          m.bytes.Load(),
		GroupedCommits: m.grouped.Load(),
	}
}
