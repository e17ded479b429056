package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/parres/picprk/internal/memtest"
)

// Bootstrap failure paths: every way a world can fail to assemble must
// produce a prompt, descriptive error — never a hang. Joins in these tests
// carry a short JoinOptions.Timeout so a regression shows up as a test
// timeout measured in seconds, not minutes.

// TestJoinRendezvousUnresponsive: the rendezvous address accepts the TCP
// connection (listen backlog) but never answers the hello. The join must
// give up after its timeout.
func TestJoinRendezvousUnresponsive(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	start := time.Now()
	_, err = Join("tcp", ln.Addr().String(), JoinOptions{Timeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("join to a mute listener succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("join took %v to fail; the timeout did not bound it", elapsed)
	}
	if !strings.Contains(err.Error(), "welcome") {
		t.Errorf("error %q does not say which handshake step failed", err)
	}
}

// TestJoinRendezvousGone: no listener at the address at all — the dial
// itself must fail immediately with a clear error.
func TestJoinRendezvousGone(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	_, err = Join("tcp", addr, JoinOptions{Timeout: 2 * time.Second})
	if err == nil {
		t.Fatal("join to a closed address succeeded")
	}
	if !strings.Contains(err.Error(), "dial rendezvous") {
		t.Errorf("error %q does not name the dial step", err)
	}
}

// TestRendezvousClosedMidBootstrap: a joiner is connected and waiting for
// the rest of the world when the rendezvous goes away. Both the joiner and
// Wait must return errors instead of hanging.
func TestRendezvousClosedMidBootstrap(t *testing.T) {
	rv, err := StartRendezvous("tcp", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}

	joinErr := make(chan error, 1)
	go func() {
		_, err := Join("tcp", rv.Addr(), JoinOptions{Timeout: 5 * time.Second})
		joinErr <- err
	}()
	// Give the joiner a moment to be admitted, then kill the bootstrap while
	// it waits for the missing second joiner.
	time.Sleep(100 * time.Millisecond)
	if err := rv.Close(); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-joinErr:
		if err == nil {
			t.Fatal("join succeeded with a one-joiner world of size 2")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("join hung after the rendezvous closed")
	}
	if err := rv.Wait(); err == nil {
		t.Fatal("Wait reported a successful bootstrap after Close")
	}
}

// TestJoinDuplicateBaseRank: two joiners both claiming rank 0 is an
// impossible world; both joins and Wait must fail with an error naming the
// conflict.
func TestJoinDuplicateBaseRank(t *testing.T) {
	rv, err := StartRendezvous("tcp", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()

	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Join("tcp", rv.Addr(), JoinOptions{Rank: 0, Timeout: 10 * time.Second})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("joiner %d with the duplicate rank succeeded", i)
		}
		if !strings.Contains(err.Error(), "rank 0 is already taken") {
			t.Errorf("joiner %d error %q does not name the conflicting rank", i, err)
		}
	}
	if err := rv.Wait(); err == nil {
		t.Fatal("Wait reported success for an unsatisfiable world")
	}
}

// TestJoinWantedRankOutOfRange: a joiner wanting a rank outside
// [-1, worldSize) fails the bootstrap at once, and both its Join and Wait
// name the rank it wanted.
func TestJoinWantedRankOutOfRange(t *testing.T) {
	for _, want := range []int{2, -2} {
		rv, err := StartRendezvous("tcp", "127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Join("tcp", rv.Addr(), JoinOptions{Rank: want, Timeout: 10 * time.Second})
		name := fmt.Sprintf("rank %d,", want)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("join wanting rank %d: error %v, want one naming %q", want, err, name)
		}
		if err := rv.Wait(); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("rendezvous with a joiner wanting rank %d: Wait %v, want an error naming %q", want, err, name)
		}
	}
}

// fakeRendezvous answers the first hello it receives with w, as a broken or
// hostile rendezvous would, and returns its address.
func fakeRendezvous(t *testing.T, w welcomePayload) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	body, err := packPayload(w.pup)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			return
		}
		f := frame{typ: frameHello, payload: body}
		_, _ = conn.Write(f.encode(nil))
	}()
	return ln.Addr().String()
}

// TestJoinMalformedWelcome: a welcome whose rank is outside its address
// table, or whose table is larger than MaxWorldSize, is refused with a
// WelcomeError before Join sizes anything from it.
func TestJoinMalformedWelcome(t *testing.T) {
	for _, w := range []welcomePayload{
		{Rank: 1, Addrs: []string{"127.0.0.1:1"}},
		{Rank: -1, Addrs: []string{"127.0.0.1:1", "127.0.0.1:2"}},
		{Rank: 0, Addrs: make([]string, MaxWorldSize+1)},
		{Rank: 0},
	} {
		_, err := Join("tcp", fakeRendezvous(t, w), JoinOptions{Timeout: 5 * time.Second})
		var we *WelcomeError
		if !errors.As(err, &we) {
			t.Errorf("welcome rank %d of %d: error %v, want a WelcomeError", w.Rank, len(w.Addrs), err)
		}
	}
}

// FuzzWelcomePayload feeds arbitrary bytes to the welcome decoder and its
// validation, the first thing a joining node reads from the rendezvous
// socket. Neither may panic, and a welcome they accept must re-pack to
// exactly the bytes it came from.
func FuzzWelcomePayload(f *testing.F) {
	for _, w := range []welcomePayload{
		{Rank: 1, Addrs: []string{"127.0.0.1:1", "/tmp/x.sock"}},
		{Rank: 1, Addrs: []string{"127.0.0.1:1"}},
		{Err: "wire: wanted rank 0 is already taken"},
	} {
		body, err := packPayload(w.pup)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add(corruptWelcome(4096))
	f.Fuzz(func(t *testing.T, in []byte) {
		var w welcomePayload
		var err error
		limit := welcomeAllocLimit(len(in))
		if got := memtest.Least(limit, func() { w = welcomePayload{} }, func() { err = unpackPayload(in, w.pup) }); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(in), got)
		}
		if err != nil || w.validate() != nil {
			return
		}
		again, err := packPayload(w.pup)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, in) {
			t.Fatalf("accepted welcome re-packs differently:\n in % x\nout % x", in, again)
		}
	})
}

// corruptWelcome returns a size-byte welcome whose address count claims one
// address per byte behind it: an empty error, rank 0, the count, and zeros.
func corruptWelcome(size int) []byte {
	in := make([]byte, size)
	binary.LittleEndian.PutUint64(in[16:], uint64(size-24))
	return in
}

// welcomeAllocLimit is what decoding an n-byte welcome may allocate: about
// twice its length, plus slack for the decoder's own small allocations.
func welcomeAllocLimit(n int) uint64 { return uint64(2*n + 64<<10) }

// TestWelcomeCorruptCountAllocation pins that the welcome decoder sizes the
// address table against the bytes present at a string's least wire width
// (its 8-byte length prefix): a 1 MB welcome claiming one address per byte
// is refused before the table is sized, instead of allocating a 16-byte
// string header per claimed address first.
func TestWelcomeCorruptCountAllocation(t *testing.T) {
	in := corruptWelcome(1 << 20)
	limit := welcomeAllocLimit(len(in))
	var err error
	if got := memtest.Least(limit, nil, func() { err = unpackPayload(in, new(welcomePayload).pup) }); got > limit {
		t.Errorf("decoding a %d-byte welcome allocated %d bytes, want at most %d", len(in), got, limit)
	}
	if err == nil {
		t.Error("a welcome claiming more addresses than its bytes can hold was accepted")
	}
}

// FuzzHelloPayload feeds arbitrary bytes to the hello decoder, the first
// thing the rendezvous reads from whatever dials it. It may not panic, every
// hello a joiner can send must decode to itself, and a hello it accepts must
// re-pack to exactly the bytes it came from.
func FuzzHelloPayload(f *testing.F) {
	for _, h := range []helloPayload{
		{Want: -1, Addr: "127.0.0.1:4242"},
		{Want: 3, Addr: "/tmp/picprk-1-1.sock"},
		{Want: 1 << 40},
	} {
		body, err := packPayload(h.pup)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, h.Want, h.Addr)
	}
	f.Add([]byte{}, -2, "")
	f.Fuzz(func(t *testing.T, in []byte, want int, addr string) {
		h := helloPayload{Want: want, Addr: addr}
		body, err := packPayload(h.pup)
		if err != nil {
			t.Fatal(err)
		}
		var back helloPayload
		if err := unpackPayload(body, back.pup); err != nil || back != h {
			t.Fatalf("hello %+v decodes to %+v (%v)", h, back, err)
		}
		var got helloPayload
		if unpackPayload(in, got.pup) != nil {
			return
		}
		again, err := packPayload(got.pup)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, in) {
			t.Fatalf("accepted hello re-packs differently:\n in % x\nout % x", in, again)
		}
	})
}
