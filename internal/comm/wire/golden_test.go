package wire

import (
	"bytes"
	"errors"
	"testing"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/memtest"
	"github.com/parres/picprk/internal/pup"
)

// TestFrameGolden pins the framed wire layout byte for byte: the 28-byte
// little-endian header documented in frame.go and DESIGN.md. If this test
// fails, the on-the-wire format changed — bump frameVersion and update the
// docs rather than silently breaking cross-version worlds.
func TestFrameGolden(t *testing.T) {
	f := frame{
		typ:     frameData,
		kind:    11, // pup.KindF64s
		src:     0x0102,
		tag:     -5,
		sendNS:  0x0102030405060708,
		payload: []byte{0xde, 0xad, 0xbe, 0xef},
	}
	got := f.encode(nil)
	want := []byte{
		// length of the rest: 24 header bytes + 4 payload = 28 (LE u32)
		0x1c, 0x00, 0x00, 0x00,
		// version
		0x03,
		// frame type: data
		0x01,
		// kind (LE u16)
		0x0b, 0x00,
		// src world rank (LE u32)
		0x02, 0x01, 0x00, 0x00,
		// tag -5 (two's complement LE i64)
		0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		// send timestamp ns (two's complement LE i64)
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
		// payload
		0xde, 0xad, 0xbe, 0xef,
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame encoding drifted:\n got %#v\nwant %#v", got, want)
	}

	back, err := readFrame(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if back.typ != f.typ || back.kind != f.kind || back.src != f.src ||
		back.tag != f.tag || back.sendNS != f.sendNS || !bytes.Equal(back.payload, f.payload) {
		t.Fatalf("frame did not round-trip: %+v vs %+v", back, f)
	}
}

// TestFrameHeaderSize pins the header size constant the docs promise.
func TestFrameHeaderSize(t *testing.T) {
	f := frame{typ: frameBye}
	if n := len(f.encode(nil)); n != headerBytes {
		t.Fatalf("empty frame is %d bytes, want %d", n, headerBytes)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	// Implausible length.
	if _, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})); err == nil {
		t.Fatal("accepted an implausible frame length")
	}
	// Wrong version.
	f := frame{typ: frameData}
	b := f.encode(nil)
	b[4] = 99
	if _, err := readFrame(bytes.NewReader(b)); err == nil {
		t.Fatal("accepted a wrong protocol version")
	}
	// Truncated payload.
	g := frame{typ: frameData, payload: []byte{1, 2, 3, 4}}
	gb := g.encode(nil)
	if _, err := readFrame(bytes.NewReader(gb[:len(gb)-2])); err == nil {
		t.Fatal("accepted a truncated frame")
	}
}

// FuzzDecodeAbort: decoding an abort payload never panics, every payload
// encodeAbort produces round-trips, and only a lost rank inside the world
// becomes a typed peer loss — an out-of-range rank is a plain abort.
func FuzzDecodeAbort(f *testing.F) {
	const size = 3
	f.Add(encodeAbort(2, "node 1 lost node 2"), 2, "node 1 lost node 2")
	f.Add(encodeAbort(-1, "verification failed"), -1, "verification failed")
	f.Add(encodeAbort(size, "bogus"), size, "bogus")
	f.Add(encodeAbort(1<<40, "huge"), -7, "")
	f.Add([]byte{}, 0, "")
	f.Fuzz(func(t *testing.T, in []byte, lost int, msg string) {
		got, gotMsg, err := decodeAbort(encodeAbort(lost, msg))
		if err != nil || got != lost || gotMsg != msg {
			t.Fatalf("encodeAbort(%d, %q) decodes to (%d, %q, %v)", lost, msg, got, gotMsg, err)
		}
		dl, dm, derr := decodeAbort(in)
		var pl comm.ErrPeerLost
		typed := errors.As(abortError(in, size), &pl)
		if want := derr == nil && dm != "" && dl >= 0 && dl < size; typed != want {
			t.Fatalf("payload (%d, %q, %v): typed peer loss %v, want %v", dl, dm, derr, typed, want)
		}
		if typed && pl.Rank != dl {
			t.Fatalf("payload names rank %d, peer loss names %d", dl, pl.Rank)
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to what a socket reaches first: the
// frame reader (readHeader, then the payload) and, for a data frame, the
// stream decoder readLoop runs over its payload. Neither may panic or
// allocate more than a small multiple of the bytes actually given — a
// corrupt length must not size an allocation — and a frame the reader
// accepts must re-encode to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	data := frame{typ: frameData, kind: 11, src: 0x0102, tag: -5, sendNS: 9}
	data.payload, _, _ = pup.EncodePayload(nil, []float64{1.5, -2})
	f.Add(data.encode(nil))
	f.Add(data.encode(nil)[:headerBytes+3])
	abort := frame{typ: frameAbort, src: 1, payload: encodeAbort(2, "node 1 lost node 2")}
	f.Add(abort.encode(nil))
	shard := frame{typ: frameData, kind: core.KindColumnsPtr}
	shard.payload, _, _ = pup.EncodePayload(nil, testShard(3, 1))
	f.Add(shard.encode(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0x3f, frameVersion}) // 1 GB claimed, nothing behind it
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		limit := uint64(2*len(in) + 8<<10)
		var fr frame
		var err error
		if got := memtest.Least(limit, func() { r.Reset(in) }, func() { fr, err = readFrame(r) }); got > limit {
			t.Fatalf("reading %d bytes allocated %d", len(in), got)
		}
		if err != nil {
			return
		}
		if again := fr.encode(nil); !bytes.Equal(again, in[:len(in)-r.Len()]) {
			t.Fatalf("accepted frame re-encodes differently:\n in % x\nout % x", in[:len(in)-r.Len()], again)
		}
		if fr.typ == frameData {
			var d pup.Decoder
			var pr *bytes.Reader
			arm := func() { d, pr = pup.Decoder{}, bytes.NewReader(fr.payload) }
			if got := memtest.Least(limit, arm, func() { _, _ = d.Decode(fr.kind, pr, len(fr.payload)) }); got > limit {
				t.Fatalf("decoding a %d-byte kind %d payload allocated %d", len(fr.payload), fr.kind, got)
			}
		}
	})
}
