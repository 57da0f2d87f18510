package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// frameFor encodes m as a complete frame (prefix + payload).
func frameFor(t testing.TB, m *wireMsg) []byte {
	t.Helper()
	buf := appendMsg(make([]byte, 4), m)
	var w bytes.Buffer
	if err := writeFrame(&w, buf); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	return w.Bytes()
}

func TestWireRoundTrip(t *testing.T) {
	msgs := []wireMsg{
		{op: opHello, node: 3},
		{op: opFetch, table: 2, rows: []int32{0, 7, 1 << 20}},
		{op: opRows, table: 1, dim: 2, rows: []int32{5, 9},
			vals: []float32{1, -2.5, float32(math.Inf(1)), 0}},
		{op: opPush, table: 0, dim: 1, rows: []int32{42}, vals: []float32{3.25}},
		{op: opAck},
		{op: opError, code: wireErrUnknownRow, text: "row 9 of table 1"},
	}
	for _, want := range msgs {
		frame := frameFor(t, &want)

		payload, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("op %d: readFrame: %v", want.op, err)
		}

		var got wireMsg
		if err := decodeMsg(payload, &got); err != nil {
			t.Fatalf("op %d: decodeMsg: %v", want.op, err)
		}
		if got.op != want.op || got.node != want.node || got.table != want.table ||
			got.dim != want.dim || got.code != want.code || got.text != want.text {
			t.Fatalf("op %d: scalar mismatch: got %+v want %+v", want.op, got, want)
		}
		if len(got.rows) != len(want.rows) {
			t.Fatalf("op %d: rows %v want %v", want.op, got.rows, want.rows)
		}
		for i := range want.rows {
			if got.rows[i] != want.rows[i] {
				t.Fatalf("op %d: rows %v want %v", want.op, got.rows, want.rows)
			}
		}
		if len(got.vals) != len(want.vals) {
			t.Fatalf("op %d: %d vals want %d", want.op, len(got.vals), len(want.vals))
		}
		for i := range want.vals {
			if math.Float32bits(got.vals[i]) != math.Float32bits(want.vals[i]) {
				t.Fatalf("op %d: vals differ at %d: %v want %v", want.op, i, got.vals[i], want.vals[i])
			}
		}
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF}, // a clean hang-up, not a cut frame
		{"short prefix", []byte{0, 0, 1}, ErrTruncatedFrame},
		{"oversized", []byte{0xff, 0xff, 0xff, 0xff}, ErrFrameTooLarge},
		{"just over max", []byte{0, 0x10, 0, 1}, ErrFrameTooLarge},
		{"empty payload", []byte{0, 0, 0, 0}, ErrBadFrame},
		{"truncated payload", []byte{0, 0, 0, 4, opAck}, ErrTruncatedFrame},
	}
	for _, c := range cases {
		if _, err := readFrame(bytes.NewReader(c.in), nil); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

func TestDecodeMsgRejects(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"unknown opcode", []byte{0x7f}, ErrBadFrame},
		{"hello short varint", []byte{opHello, 0x80}, ErrBadFrame},
		{"hello trailing", []byte{opHello, 1, 9}, ErrBadFrame},
		{"fetch lying count", []byte{opFetch, 0, 60, 1, 2}, ErrBadFrame},
		{"push dim too big", []byte{opPush, 0, 1, 0xff, 0xff, 0xff, 0x07}, ErrBadFrame},
		{"push lying geometry", []byte{opPush, 0, 2, 4, 1, 0, 0, 0}, ErrBadFrame},
		{"ack trailing", []byte{opAck, 0}, ErrBadFrame},
		{"error no code", []byte{opError}, ErrBadFrame},
		// Opcodes 7-9 were the quantized wire formats (rows16, rows8,
		// fetchq); a well-formed frame of the old fetchq is now unknown.
		{"retired fetchq opcode", []byte{9, 0, 2, 1, 3}, ErrBadFrame},
	}
	var m wireMsg
	for _, c := range cases {
		if err := decodeMsg(c.in, &m); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

// FuzzDecodeFrame asserts the codec's safety contract on arbitrary input, on
// the reader the fabric runs: readFrame + decodeMsg either fail with a typed
// error (io.EOF only for an empty stream) or yield a message that re-encodes
// to a payload decoding identically — never a panic, and never an
// allocation beyond the bytes that actually arrived (decodeMsg validates
// every count against the remaining payload before sizing anything; the
// size assertions below would catch a lying header).
func FuzzDecodeFrame(f *testing.F) {
	seed := []wireMsg{
		{op: opHello, node: 1},
		{op: opFetch, table: 0, rows: []int32{1, 2, 3}},
		{op: opRows, table: 1, dim: 2, rows: []int32{4, 5}, vals: []float32{1, 2, 3, 4}},
		{op: opPush, table: 2, dim: 1, rows: []int32{6}, vals: []float32{-1}},
		{op: opAck},
		{op: opError, code: wireErrUnknownRow, text: "row 7"},
	}
	for i := range seed {
		f.Add(frameFor(f, &seed[i]))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})         // oversized prefix
	f.Add([]byte{0, 0, 0, 16, opFetch, 0})        // truncated payload
	f.Add([]byte{0, 0, 0, 2, opPush, 0x80})       // short varint
	f.Add([]byte{0, 0, 0, 5, opPush, 0, 9, 1, 0}) // lying count

	f.Fuzz(func(t *testing.T, b []byte) {
		payload, err := readFrame(bytes.NewReader(b), nil)
		if err != nil {
			if err == io.EOF && len(b) == 0 {
				return
			}
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrTruncatedFrame) {
				t.Fatalf("untyped frame error: %v", err)
			}
			return
		}
		if len(payload)+4 > len(b) || int(binary.BigEndian.Uint32(b)) != len(payload) {
			t.Fatalf("read a %d-byte payload from %d bytes", len(payload), len(b))
		}
		var m wireMsg
		if err := decodeMsg(payload, &m); err != nil {
			if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrTruncatedFrame) {
				t.Fatalf("untyped payload error: %v", err)
			}
			return
		}
		// No over-allocation: decoded slices are bounded by what arrived.
		if len(m.rows) > len(payload) || len(m.vals)*4 > len(payload) {
			t.Fatalf("decoded %d rows / %d vals from a %d-byte payload", len(m.rows), len(m.vals), len(payload))
		}
		// Round-trip: a message the decoder accepted must re-encode to a
		// payload the decoder reads back identically.
		re := appendMsg(make([]byte, 4), &m)[4:]
		var m2 wireMsg
		if err := decodeMsg(re, &m2); err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if m2.op != m.op || m2.node != m.node || m2.table != m.table || m2.dim != m.dim ||
			m2.code != m.code || m2.text != m.text || len(m2.rows) != len(m.rows) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", m2, m)
		}
		for i := range m.rows {
			if m2.rows[i] != m.rows[i] {
				t.Fatalf("round-trip row %d: %d vs %d", i, m2.rows[i], m.rows[i])
			}
		}
		for i := range m.vals {
			if math.Float32bits(m2.vals[i]) != math.Float32bits(m.vals[i]) {
				t.Fatalf("round-trip val %d differs", i)
			}
		}
	})
}
