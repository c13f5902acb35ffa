package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
	"unsafe"

	"vats/internal/server"
)

// kvTable is the table the key-value workloads load and drive.
const kvTable = "kv"

// kvRowSize is the size of every key-value row: the key, the tag of the
// write that produced the row (0 for the loaded row), then padding.
const kvRowSize = 100

// request is one open-loop request: due is when the schedule wanted it
// sent, which is where its latency is timed from.
type request struct {
	due     time.Time
	op      uint8
	key, hi uint64 // hi: the last key of a scan
	tag     uint64 // update: the tag the new row carries
}

// scanLimit is the row limit of every OpScan the workloads send.
const scanLimit = 10

// wireConn is one load connection. Requests are pipelined: a sender
// writes frames as they fall due and a reader matches responses to
// requests in FIFO order (the server answers each connection in order).
type wireConn struct {
	id   int
	nc   net.Conn
	br   *bufio.Reader
	rbuf []byte
	wbuf []byte
	pay  []byte
	seq  uint64
}

func dialWire(id int, addr string) (*wireConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &wireConn{id: id, nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	// Handshake: the server must echo the protocol version.
	if _, err := nc.Write(server.AppendFrame(nil, 0, server.OpHello, 0, []byte{server.ProtoVersion})); err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	f, err := c.readFrame()
	if err != nil || f.Op != server.StatusOK || len(f.Payload) != 1 || f.Payload[0] != server.ProtoVersion {
		nc.Close()
		return nil, fmt.Errorf("hello: bad reply (%v)", err)
	}
	return c, nil
}

// readFrame reads and CRC-checks one frame; its payload aliases rbuf.
func (c *wireConn) readFrame() (server.Frame, error) {
	const header = 14
	if cap(c.rbuf) < header {
		c.rbuf = make([]byte, 0, 4096)
	}
	c.rbuf = c.rbuf[:header]
	if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
		return server.Frame{}, err
	}
	plen := int(binary.LittleEndian.Uint32(c.rbuf[10:]))
	if plen > server.MaxPayload {
		return server.Frame{}, server.ErrFrameTooBig
	}
	total := header + plen + 4
	if cap(c.rbuf) < total {
		nb := make([]byte, header, total)
		copy(nb, c.rbuf)
		c.rbuf = nb
	}
	c.rbuf = c.rbuf[:total]
	if _, err := io.ReadFull(c.br, c.rbuf[header:]); err != nil {
		return server.Frame{}, err
	}
	f, _, err := server.DecodeFrame(c.rbuf)
	return f, err
}

// appendRequest encodes r as a frame onto wbuf, on stream 0 (auto-commit).
func (c *wireConn) appendRequest(r request) {
	p := c.pay[:0]
	switch r.op {
	case server.OpGet:
		p = server.AppendStr16(p, kvTable)
		p = server.AppendU64(p, r.key)
	case server.OpScan:
		p = server.AppendStr16(p, kvTable)
		p = server.AppendU64(p, r.key)
		p = server.AppendU64(p, r.hi)
		p = server.AppendU32(p, scanLimit)
	case server.OpUpdate:
		p = server.AppendStr16(p, kvTable)
		p = server.AppendU64(p, r.key)
		p = binary.LittleEndian.AppendUint32(p, kvRowSize)
		p = appendKVRow(p, r.key, r.tag)
	}
	c.pay = p
	c.wbuf = server.AppendFrame(c.wbuf, 0, r.op, 0, p)
}

// appendKVRow appends the row a write of tag to key stores.
func appendKVRow(dst []byte, key, tag uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, key)
	dst = binary.LittleEndian.AppendUint64(dst, tag)
	for i := 16; i < kvRowSize; i++ {
		dst = append(dst, byte(key+uint64(i)))
	}
	return dst
}

// rowKey decodes the key and tag a row carries.
func rowKey(row []byte) (key, tag uint64, ok bool) {
	if len(row) != kvRowSize {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(row), binary.LittleEndian.Uint64(row[8:]), true
}

// acked records, per key, the tag of the last write each connection saw
// acknowledged. The last committed write to a key is its connection's
// last acknowledged write to that key, so the key's final row must carry
// one of these tags (or the loaded tag 0 if no write was acknowledged).
type acked struct {
	last [][]uint64 // [conn][key]
}

func newAcked(conns int, keys uint64) *acked {
	a := &acked{last: make([][]uint64, conns)}
	for i := range a.last {
		a.last[i] = make([]uint64, keys+1)
	}
	return a
}

// wireRun is what one open-loop run over the wire observed.
type wireRun struct {
	lat        *intervals // ms from due time, answered requests
	ping       []float64  // ms from due time, interleaved pings
	late       []float64  // ms from due time to hand-off
	backlogMax int64
	attempted  int64
	ok         int64
	writes     int64 // acknowledged updates
	shed       int64
	retry      int64
	errs       int64
	proto      int64 // undecodable frames, StatusBad, lost responses
	wrong      []string
}

func (r *wireRun) failed() int64 { return r.shed + r.retry + r.errs + r.proto }

func (r *wireRun) merge(o *wireRun) {
	r.lat.merge(o.lat)
	r.ping = append(r.ping, o.ping...)
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.ok += o.ok
	r.writes += o.writes
	r.shed += o.shed
	r.retry += o.retry
	r.errs += o.errs
	r.proto += o.proto
	r.wrong = append(r.wrong, o.wrong...)
}

// wireLoad drives a fixed set of connections with an open-loop mix.
type wireLoad struct {
	conns []*wireConn
	mix   mixFunc
	acked *acked
	seed  int64
	runs  int64
}

// mixFunc draws the next request of a workload's mix: an opcode, a key
// and, for scans, the last key of the range.
type mixFunc func(rng *rand.Rand) (op uint8, key, hi uint64)

func newWireLoad(addr string, conns int, keys uint64, seed int64, mix mixFunc) (*wireLoad, error) {
	w := &wireLoad{mix: mix, acked: newAcked(conns, keys), seed: seed}
	for i := 0; i < conns; i++ {
		c, err := dialWire(i, addr)
		if err != nil {
			w.close()
			return nil, err
		}
		w.conns = append(w.conns, c)
	}
	return w, nil
}

func (w *wireLoad) close() {
	for _, c := range w.conns {
		c.nc.Close()
	}
}

// pendingCap bounds the requests one connection may have in flight.
// It is far above any backlog a run that meets the latency limit can
// build (rate × 10ms), so a sender only waits on it when the server has
// stalled, and that shows as lateness.
const pendingCap = 1 << 14

// run offers rate requests/s, split evenly over the connections, for
// dur, then waits for every response. Latencies are grouped by due time
// into intervals of width. With pingEach > 0 every pingEach-th request
// of a connection is followed by an OpPing due at the same time, which
// waits behind it on the connection.
//
// Every buffer the run records into is allocated before begin is called
// (just before the first request falls due), and the connections'
// records are merged only after end is called (once every response has
// arrived), so snapshots taken in begin and end see the program's
// allocations and not the generator's. Either may be nil.
func (w *wireLoad) run(rate float64, dur, width time.Duration, pingEach int, begin, end func()) (*wireRun, error) {
	w.runs++
	n := len(w.conns)
	perConn := rate / float64(n)
	bl := &backlog{}
	res := make([]*wireRun, n)
	pacers := make([]*pacer, n)
	pends := make([]chan request, n)
	var held int64
	for i := range w.conns {
		t, err := newPreciseTimer()
		if err != nil {
			for _, pc := range pacers[:i] {
				pc.timer.close()
			}
			return nil, err
		}
		res[i] = &wireRun{lat: newWindowIntervals(time.Time{}, width, dur, perConn)}
		if pingEach > 0 {
			res[i].ping = make([]float64, 0, sampleCap(perConn*dur.Seconds()/float64(pingEach)))
		}
		pacers[i] = &pacer{timer: t, backlog: bl, late: make([]float64, 0, sampleCap(perConn*dur.Seconds()))}
		pends[i] = make(chan request, pendingCap)
		held += res[i].lat.bytes() + 8*int64(cap(res[i].ping)+cap(pacers[i].late)) +
			pendingCap*int64(unsafe.Sizeof(request{}))
	}
	generatorHeap.Store(held)
	defer generatorHeap.Store(0)
	if begin != nil {
		begin()
	}
	start := time.Now().Add(time.Millisecond)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for i, c := range w.conns {
		c, pc, pend, res := c, pacers[i], pends[i], res[i]
		res.lat.start = start
		runSeed := w.seed*7919 + w.runs*104729 + int64(c.id)*31
		sched := newPoisson(runSeed, perConn, start, dur)
		rng := rand.New(rand.NewSource(runSeed + 1))
		flush := func() error {
			_, err := c.nc.Write(c.wbuf)
			c.wbuf = c.wbuf[:0]
			return err
		}
		send := func(r request) error {
			c.appendRequest(r)
			bl.inc()
			select {
			case pend <- r:
				return nil
			default:
			}
			// pend is full of requests the receiver is waiting on. Some
			// may still sit unwritten in wbuf: write them before waiting
			// for room, or their responses could never come.
			if err := flush(); err != nil {
				return err
			}
			pend <- r
			return nil
		}
		c.nc.SetReadDeadline(time.Now().Add(dur + 30*time.Second))
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(pend)
			defer pc.timer.close()
			n := 0
			err := pc.run(sched, func(due time.Time) error {
				r := request{due: due}
				r.op, r.key, r.hi = w.mix(rng)
				if r.op == server.OpUpdate {
					c.seq++
					r.tag = uint64(c.id+1)<<48 | c.seq
				}
				if err := send(r); err != nil {
					return err
				}
				if n++; pingEach > 0 && n%pingEach == 0 {
					return send(request{due: due, op: server.OpPing})
				}
				return nil
			}, flush)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("conn %d send: %w", c.id, err)
				}
				mu.Unlock()
			}
		}()
		go func() {
			defer wg.Done()
			w.receive(c, pend, bl, res)
		}()
	}
	wg.Wait()
	if end != nil {
		end()
	}
	out := &wireRun{lat: newIntervals(start, width), backlogMax: bl.max.Load()}
	for i := range res {
		out.merge(res[i])
		out.late = append(out.late, pacers[i].late...)
	}
	return out, firstErr
}

// receive matches responses to the requests in pend and classifies them.
// After a read error it keeps draining pend, counting each request as a
// protocol failure.
func (w *wireLoad) receive(c *wireConn, pend <-chan request, bl *backlog, res *wireRun) {
	var readErr error
	for r := range pend {
		if r.op != server.OpPing {
			res.attempted++
		}
		if readErr != nil {
			res.proto++
			bl.dec()
			continue
		}
		f, err := c.readFrame()
		now := time.Now()
		bl.dec()
		if err != nil {
			readErr = err
			res.proto++
			res.wrong = append(res.wrong, fmt.Sprintf("conn %d: read: %v", c.id, err))
			continue
		}
		ms := float64(now.Sub(r.due)) / 1e6
		switch {
		case f.Stream != 0:
			res.proto++
			res.wrong = append(res.wrong, fmt.Sprintf("conn %d: reply on stream %d", c.id, f.Stream))
		case f.Op == server.StatusOK:
			if msg := w.checkReply(c, r, f.Payload); msg != "" {
				res.wrong = append(res.wrong, msg)
				res.errs++
				continue
			}
			if r.op == server.OpPing {
				res.ping = append(res.ping, ms)
				continue
			}
			res.ok++
			if r.op == server.OpUpdate {
				res.writes++
			}
			res.lat.add(r.due, ms)
		case f.Op == server.StatusShed:
			res.shed++
		case f.Op == server.StatusRetry:
			res.retry++
		case f.Op == server.StatusErr:
			res.errs++
		default:
			res.proto++
			res.wrong = append(res.wrong, fmt.Sprintf("conn %d: op %d: status %#x %q", c.id, r.op, f.Op, f.Payload))
		}
	}
}

// checkReply validates an OK reply against its request and records
// acknowledged writes; it returns a description of any wrong output.
func (w *wireLoad) checkReply(c *wireConn, r request, p []byte) string {
	switch r.op {
	case server.OpGet:
		if k, _, ok := rowKey(p); !ok || k != r.key {
			return fmt.Sprintf("get %d: wrong row (%d bytes, key %d)", r.key, len(p), k)
		}
	case server.OpScan:
		want := r.hi - r.key + 1
		if want > scanLimit {
			want = scanLimit
		}
		if len(p) < 4 || uint64(binary.LittleEndian.Uint32(p)) != want {
			return fmt.Sprintf("scan [%d,%d]: wrong row count", r.key, r.hi)
		}
		p = p[4:]
		for i := uint64(0); i < want; i++ {
			if len(p) < 12 {
				return fmt.Sprintf("scan [%d,%d]: short reply", r.key, r.hi)
			}
			key := binary.LittleEndian.Uint64(p)
			n := binary.LittleEndian.Uint32(p[8:])
			if uint64(len(p)) < 12+uint64(n) {
				return fmt.Sprintf("scan [%d,%d]: short row", r.key, r.hi)
			}
			if k, _, ok := rowKey(p[12 : 12+n]); !ok || key != r.key+i || k != key {
				return fmt.Sprintf("scan [%d,%d]: row %d has key %d", r.key, r.hi, i, key)
			}
			p = p[12+n:]
		}
	case server.OpUpdate:
		w.acked.last[c.id][r.key] = r.tag
	}
	return ""
}
