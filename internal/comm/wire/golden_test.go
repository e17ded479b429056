package wire

import (
	"bytes"
	"testing"
)

// TestFrameGolden pins the framed wire layout byte for byte: the 40-byte
// little-endian header documented in frame.go and DESIGN.md. If this test
// fails, the on-the-wire format changed — bump frameVersion and update the
// docs rather than silently breaking cross-version worlds.
func TestFrameGolden(t *testing.T) {
	f := frame{
		typ:     frameData,
		kind:    11, // pup.KindF64s
		dst:     3,
		src:     0x0102,
		ctx:     0x1122334455667788,
		tag:     -5,
		sendNS:  0x0102030405060708,
		payload: []byte{0xde, 0xad, 0xbe, 0xef},
	}
	got := f.encode(nil)
	want := []byte{
		// length of the rest: 36 header bytes + 4 payload = 40 (LE u32)
		0x28, 0x00, 0x00, 0x00,
		// version
		0x02,
		// frame type: data
		0x01,
		// kind (LE u16)
		0x0b, 0x00,
		// dst world rank (LE u32)
		0x03, 0x00, 0x00, 0x00,
		// src world rank (LE u32)
		0x02, 0x01, 0x00, 0x00,
		// communicator context (LE u64)
		0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
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

	back, err := readFrame(bytes.NewReader(got), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if back.typ != f.typ || back.kind != f.kind || back.dst != f.dst ||
		back.src != f.src || back.ctx != f.ctx || back.tag != f.tag ||
		back.sendNS != f.sendNS || !bytes.Equal(back.payload, f.payload) {
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
	if _, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}), nil); err == nil {
		t.Fatal("accepted an implausible frame length")
	}
	// Wrong version.
	f := frame{typ: frameData}
	b := f.encode(nil)
	b[4] = 99
	if _, err := readFrame(bytes.NewReader(b), nil); err == nil {
		t.Fatal("accepted a wrong protocol version")
	}
	// Truncated payload.
	g := frame{typ: frameData, payload: []byte{1, 2, 3, 4}}
	gb := g.encode(nil)
	if _, err := readFrame(bytes.NewReader(gb[:len(gb)-2]), nil); err == nil {
		t.Fatal("accepted a truncated frame")
	}
}
