package main

import (
	"bufio"
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"vats/internal/server"
	"vats/internal/stats"
)

// stallingServer answers OpHello and OpGet like vatsd, except that it
// stops for stall when the first OpGet of a connection arrives. It reads
// nothing while stalled. A readBuffer above 0 sets its sockets' receive
// buffers, and a small one makes the client's sends back up behind the
// stall too.
func stallingServer(t *testing.T, stall time.Duration, readBuffer int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if readBuffer > 0 {
				nc.(*net.TCPConn).SetReadBuffer(readBuffer)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				c := &wireConn{nc: nc, br: bufio.NewReaderSize(nc, 64)}
				stalled := false
				for {
					f, err := c.readFrame()
					if err != nil {
						return
					}
					var reply []byte
					switch f.Op {
					case server.OpHello:
						reply = server.AppendFrame(nil, f.Stream, server.StatusOK, 0, []byte{server.ProtoVersion})
					case server.OpGet:
						if !stalled {
							stalled = true
							time.Sleep(stall)
						}
						key := binary.LittleEndian.Uint64(f.Payload[len(f.Payload)-8:])
						reply = server.AppendFrame(nil, f.Stream, server.StatusOK, 0, appendKVRow(nil, key, 0))
					default:
						reply = server.AppendFrame(nil, f.Stream, server.StatusBad, 0, nil)
					}
					if _, err := nc.Write(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// Requests due while the server stalls are charged the wait until the
// stall ends, timed from when they were due, not from when they could be
// sent: no coordinated omission.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		stall = 300 * time.Millisecond
		width = 50 * time.Millisecond
	)
	addr := stallingServer(t, stall, 1024)
	getMix := func(rng *rand.Rand) (uint8, uint64, uint64) {
		return server.OpGet, uint64(rng.Int63n(100)) + 1, 0
	}
	wl, err := newWireLoad(addr, 1, 100, 1, getMix)
	if err != nil {
		t.Fatal(err)
	}
	defer wl.close()
	wl.conns[0].nc.(*net.TCPConn).SetWriteBuffer(1024)
	run, err := wl.run(2000, 600*time.Millisecond, width, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkProtocol(run); err != nil {
		t.Fatal(err)
	}
	if run.ok != run.attempted || run.ok < 1000 {
		t.Fatalf("answered %d of %d requests", run.ok, run.attempted)
	}
	// The stall began with the first request, due just after the run's
	// start, so a request due in interval i waited at least until
	// stall - (i+1)·width after its due time.
	const slackMs = 5
	for i := 0; i < 4; i++ {
		fastest := stats.Percentile(run.lat.b[i], 0)
		want := float64(stall-time.Duration(i+1)*width)/1e6 - slackMs
		if fastest < want {
			t.Errorf("interval %d: fastest request took %.1fms from its due time, want >= %.1fms", i, fastest, want)
		}
	}
	// The sender itself was held up behind the stall; those requests
	// still count from their due times above.
	if late := stats.Percentile(run.late, 1); late < 10 {
		t.Logf("sender never blocked (max lateness %.1fms); socket buffers absorbed the stall", late)
	}
	if run.backlogMax < 100 {
		t.Errorf("backlog peaked at %d, want the requests queued behind the stall", run.backlogMax)
	}
}

// A stall long enough that more requests fall due than may be in flight
// on a connection: the sender waits for room, and then releases more
// requests at once than fit. It must write what it has buffered before
// it waits again, or the receiver waits for responses to requests never
// sent and the run hangs until its read deadline.
func TestSenderFlushesWhenInFlightIsFull(t *testing.T) {
	const (
		stall = 400 * time.Millisecond
		rate  = 2.5 * pendingCap / 0.4 // 2.5 × pendingCap fall due during the stall
	)
	addr := stallingServer(t, stall, 0)
	getMix := func(rng *rand.Rand) (uint8, uint64, uint64) {
		return server.OpGet, uint64(rng.Int63n(100)) + 1, 0
	}
	wl, err := newWireLoad(addr, 1, 100, 1, getMix)
	if err != nil {
		t.Fatal(err)
	}
	defer wl.close()
	start := time.Now()
	run, err := wl.run(rate, stall, 100*time.Millisecond, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkProtocol(run); err != nil {
		t.Fatalf("after %v: %v", time.Since(start), err)
	}
	// The backlog is sampled between batches of sends, within a few
	// requests of the queue's capacity when it was full.
	if run.ok != run.attempted || run.backlogMax < pendingCap-8 {
		t.Fatalf("answered %d of %d requests, backlog peaked at %d: the stall did not fill the in-flight queue",
			run.ok, run.attempted, run.backlogMax)
	}
}

// The pacer's timer must never wake early.
func TestPreciseTimerNeverWakesEarly(t *testing.T) {
	tm, err := newPreciseTimer()
	if err != nil {
		t.Fatal(err)
	}
	defer tm.close()
	for _, d := range []time.Duration{50 * time.Microsecond, 300 * time.Microsecond, 2 * time.Millisecond} {
		start := time.Now()
		if err := tm.sleep(d); err != nil {
			t.Fatal(err)
		}
		if got := time.Since(start); got < d {
			t.Errorf("sleep(%v) returned after %v", d, got)
		}
	}
}
