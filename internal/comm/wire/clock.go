package wire

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/parres/picprk/internal/telemetry"
)

// Clock-offset estimation and per-peer wire accounting.
//
// Every node estimates the offset between its own monotonic-ish wall clock
// (time.Now().UnixNano()) and node 0's, using the classic NTP four-timestamp
// exchange: the origin stamps t1 into a PING, node 0 stamps its receive time
// t2 and transmit time t3 into the PONG, and the origin stamps t4 on
// receipt. Then
//
//	offset = ((t2-t1) + (t3-t4)) / 2      rtt = (t4-t1) - (t3-t2)
//
// and the estimate from the minimum-RTT sample wins (asymmetric queueing
// inflates RTT, so the tightest round trip is the most trustworthy). The
// first samples ride on the mesh handshake — a node dialing node 0 runs
// clockSyncRounds synchronous exchanges on the fresh connection before its
// reader/writer goroutines exist — and a background loop re-pings node 0
// every resyncInterval for the lifetime of the world, so long runs track
// drift. Node 0's offset is identically zero; every other node's offset maps
// its local clock onto node 0's, which is the common timeline the wall-clock
// Chrome trace renders.

const (
	clockSyncRounds = 4
	resyncInterval  = 250 * time.Millisecond
)

func nowNS() int64 { return time.Now().UnixNano() }

// WallClockNS returns the local clock corrected onto node 0's clock.
func (n *Node) WallClockNS() int64 { return nowNS() + atomic.LoadInt64(&n.clockOff) }

// ClockOffsetNS returns the current estimate of node 0's clock minus this
// node's clock, in nanoseconds (zero on node 0).
func (n *Node) ClockOffsetNS() int64 { return atomic.LoadInt64(&n.clockOff) }

// observeClockSample folds one NTP-style sample into the offset estimate,
// keeping the estimate from the minimum-RTT sample seen so far.
func (n *Node) observeClockSample(t1, t2, t3, t4 int64) {
	rtt := (t4 - t1) - (t3 - t2)
	if rtt < 0 {
		return
	}
	off := ((t2 - t1) + (t3 - t4)) / 2
	n.clockMu.Lock()
	if n.clockRTT == 0 || rtt < n.clockRTT {
		n.clockRTT = rtt
		atomic.StoreInt64(&n.clockOff, off)
	}
	n.clockMu.Unlock()
}

func encodePong(t1, t2 int64) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b[0:], uint64(t1))
	binary.LittleEndian.PutUint64(b[8:], uint64(t2))
	return b
}

func decodePong(b []byte) (t1, t2 int64, ok bool) {
	if len(b) != 16 {
		return 0, 0, false
	}
	return int64(binary.LittleEndian.Uint64(b[0:])), int64(binary.LittleEndian.Uint64(b[8:])), true
}

// syncClockDial runs the handshake's synchronous ping/pong rounds on a fresh
// mesh connection to node 0 (called by the dialer before the connection's
// reader/writer goroutines are spawned, so it owns the socket exclusively).
func (n *Node) syncClockDial(conn net.Conn) error {
	_ = conn.SetDeadline(time.Now().Add(n.hsTimeout))
	defer conn.SetDeadline(time.Time{})
	for i := 0; i < clockSyncRounds; i++ {
		f := frame{typ: framePing, src: uint32(n.index), sendNS: nowNS()}
		if _, err := conn.Write(f.encode(nil)); err != nil {
			return fmt.Errorf("wire: node %d clock-sync ping to node 0: %w", n.index, err)
		}
		rf, err := readFrame(conn)
		if err != nil || rf.typ != framePong {
			return fmt.Errorf("wire: node %d clock-sync pong from node 0: %v (frame type %d)", n.index, err, rf.typ)
		}
		t4 := nowNS()
		t1, t2, ok := decodePong(rf.payload)
		if !ok {
			return fmt.Errorf("wire: node %d: malformed clock-sync pong", n.index)
		}
		n.observeClockSample(t1, t2, rf.sendNS, t4)
	}
	return nil
}

// answerClockSync serves the dialer's handshake pings on node 0's accept
// side: exactly clockSyncRounds of them, synchronously, before the
// connection joins the mesh.
func answerClockSync(conn net.Conn, index int, timeout time.Duration) error {
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	for i := 0; i < clockSyncRounds; i++ {
		f, err := readFrame(conn)
		if err != nil || f.typ != framePing {
			return fmt.Errorf("wire: clock sync expected ping: %v (frame type %d)", err, f.typ)
		}
		t2 := nowNS()
		pong := frame{typ: framePong, src: uint32(index), payload: encodePong(f.sendNS, t2), sendNS: nowNS()}
		if _, err := conn.Write(pong.encode(nil)); err != nil {
			return fmt.Errorf("wire: clock sync pong: %w", err)
		}
	}
	return nil
}

// resyncLoop re-pings node 0 periodically so the offset estimate tracks
// clock drift over long runs. Replies are consumed by readLoop. Runs only on
// nodes other than 0; stops at shutdown, abort, or closeAll.
func (n *Node) resyncLoop() {
	t := time.NewTicker(resyncInterval)
	defer t.Stop()
	for {
		select {
		case <-n.resyncStop:
			return
		case <-n.bye:
			return
		case <-n.abortedCh:
			return
		case <-t.C:
			f := frame{typ: framePing, src: uint32(n.index), sendNS: nowNS()}
			n.peers[0].enqueue(f.encode(nil))
		}
	}
}

func (n *Node) stopResync() {
	n.resyncOnce.Do(func() { close(n.resyncStop) })
}

// recordData accounts one received data frame: per-peer frame counter and
// one-way latency histogram (receiver's corrected clock minus the send
// stamp, clamped at zero — the estimate includes the sender's writer-queue
// wait by design).
func (n *Node) recordData(src int, sendNS int64) {
	atomic.AddInt64(&n.recvFrames[src], 1)
	lat := nowNS() + atomic.LoadInt64(&n.clockOff) - sendNS
	if lat < 0 {
		lat = 0
	}
	atomic.AddInt64(&n.latCounts[src*telemetry.LatencyBuckets+telemetry.LatencyBucket(lat)], 1)
	atomic.AddInt64(&n.latSums[src], lat)
}

// recordControl accounts one received control frame (src is a node index).
func (n *Node) recordControl(src int) {
	if src >= 0 && src < len(n.recvFrames) {
		atomic.AddInt64(&n.recvFrames[src], 1)
	}
}

// WireReport snapshots this node's per-peer frame counters, writer-queue
// gauges, latency histograms, and clock offset: one row per other node. The
// atomics stay readable after the world shuts down, so callers can collect
// the report post-run.
func (n *Node) WireReport() telemetry.WireReport {
	rep := telemetry.WireReport{Offsets: map[int]int64{n.index: atomic.LoadInt64(&n.clockOff)}}
	for j, p := range n.peers {
		if p == nil {
			continue // this node itself: no connection, no row
		}
		pw := telemetry.PeerWire{Node: n.index, Peer: j}
		pw.FramesSent, pw.QueueDepth, pw.QueuePeak, pw.Writes = p.stats()
		pw.FramesRecv = atomic.LoadInt64(&n.recvFrames[j])
		pw.OneWay.SumNS = atomic.LoadInt64(&n.latSums[j])
		for i := 0; i < telemetry.LatencyBuckets; i++ {
			pw.OneWay.Counts[i] = atomic.LoadInt64(&n.latCounts[j*telemetry.LatencyBuckets+i])
		}
		rep.Peers = append(rep.Peers, pw)
	}
	return rep
}
