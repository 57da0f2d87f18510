//hotline:typed-errors

package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Wire protocol of the socket fabric.
//
// Every message travels as one frame: a 4-byte big-endian u32 length prefix
// followed by that many payload bytes. The payload is a 1-byte opcode and an
// opcode-specific body; integers are unsigned varints, row values are
// little-endian IEEE-754 float32s. A frame never exceeds MaxFrame — senders
// chunk larger row lists, receivers reject the prefix before allocating.
//
//	hello  node                              coordinator → node, once per conn
//	fetch  table count row*                  coordinator → node
//	rows   table count dim (row f32*dim)*    node → coordinator (fetch reply)
//	push   table count dim (row f32*dim)*    coordinator → node
//	ack                                      node → coordinator (hello / push reply)
//	error  code text                         node → coordinator (any reply)
//
// The stream is ordered and untagged: the node answers every frame with
// exactly one reply, in arrival order, so the coordinator may have several
// requests outstanding on one connection and match replies by counting (the
// transport's owed-ack FIFO and its write-all-then-read chunked fetch).
// Rows always travel at full precision; the narrow fp16/int8 formats are a
// cache tier of the coordinator (Staging.fillQuant), not a wire format.
const (
	opHello byte = 1
	opFetch byte = 2
	opRows  byte = 3
	opPush  byte = 4
	opAck   byte = 5
	opError byte = 6
)

// MaxFrame bounds a frame's payload. Large pushes and fetch replies are
// chunked under it, and a decoder rejects any length prefix above it before
// allocating — a malformed or hostile prefix cannot balloon memory.
const MaxFrame = 1 << 20

// maxWireDim bounds the per-row dimension a decoder accepts; real embedding
// dims are a few hundred, so anything near the frame bound is garbage.
const maxWireDim = 1 << 16

// Codec errors (a malformed peer surfaces as ErrPeerDead wrapping one of
// these; the fuzz target asserts they are returned, never panicked).
var (
	// ErrBadFrame reports a structurally invalid payload: unknown opcode,
	// short varint, or counts inconsistent with the payload length.
	ErrBadFrame = errors.New("shard: malformed frame")
	// ErrFrameTooLarge reports a length prefix above MaxFrame.
	ErrFrameTooLarge = errors.New("shard: frame exceeds MaxFrame")
	// ErrTruncatedFrame reports a frame cut short of its declared length.
	ErrTruncatedFrame = errors.New("shard: truncated frame")
)

// wire error codes carried by opError bodies.
const (
	wireErrUnknownRow byte = 1
	wireErrBadFrame   byte = 2
	wireErrInternal   byte = 3
)

// wireMsg is one decoded fabric message. Rows and Vals alias scratch owned
// by the decoder's caller; they are consumed before the next decode.
type wireMsg struct {
	op    byte
	node  int       // hello
	table int       // fetch / rows / push
	dim   int       // rows / push
	rows  []int32   // fetch / rows / push
	vals  []float32 // rows / push: len(rows)*dim values, row-major
	code  byte      // error
	text  string    // error
}

// DecodeFrame splits one length-prefixed frame off the front of b, returning
// its payload and the remaining bytes. It never panics and never allocates:
// a prefix above MaxFrame is rejected (ErrFrameTooLarge), anything shorter
// than its declared length is ErrTruncatedFrame, and an empty payload —
// which could carry no opcode — is ErrBadFrame.
func DecodeFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: %d-byte prefix", ErrTruncatedFrame, len(b))
	}
	n := binary.BigEndian.Uint32(b[:4])
	if n > MaxFrame {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	if uint32(len(b)-4) < n {
		return nil, nil, fmt.Errorf("%w: want %d payload bytes, have %d", ErrTruncatedFrame, n, len(b)-4)
	}
	return b[4 : 4+n], b[4+n:], nil
}

// readFrame reads one frame payload from r into buf (grown if needed),
// applying the same bounds as DecodeFrame before allocating.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	n, buf, err := readFrameLen(r, buf)
	if err != nil {
		return nil, err
	}
	return readFramePayload(r, n, buf)
}

// readFrameLen reads a frame's 4-byte length prefix into the front of buf —
// the caller's payload scratch, which readFramePayload then overwrites — so
// the prefix never needs a buffer of its own (a local array would escape
// through io.ReadFull's interface argument, one heap allocation per frame).
// It returns the declared length and buf, grown to hold at least the prefix.
func readFrameLen(r io.Reader, buf []byte) (uint32, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 512)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return 0, buf, err
	}
	return binary.BigEndian.Uint32(buf[:4]), buf, nil
}

// readFramePayload reads the n-byte body of a frame whose length prefix has
// already arrived (the NodeServer splits the read there to arm its IO
// deadline only once a frame has started).
func readFramePayload(r io.Reader, n uint32, buf []byte) ([]byte, error) {
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return nil, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
		}
		return nil, err
	}
	return buf, nil
}

// writeFrame fills buf's reserved 4-byte prefix with the payload length
// (buf[4:]) and writes the whole frame.
func writeFrame(w io.Writer, buf []byte) error {
	n := len(buf) - 4
	if n <= 0 {
		return fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	_, err := w.Write(buf)
	return err
}

// uvarint decodes one unsigned varint, rejecting values above max.
func uvarint(b []byte, max uint64) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrBadFrame)
	}
	if v > max {
		return 0, nil, fmt.Errorf("%w: varint %d exceeds %d", ErrBadFrame, v, max)
	}
	return v, b[n:], nil
}

// appendMsg encodes m as a frame payload appended to dst. The caller leaves
// the 4-byte prefix in dst[:4] for writeFrame to fill.
func appendMsg(dst []byte, m *wireMsg) []byte {
	dst = append(dst, m.op)
	switch m.op {
	case opHello:
		dst = binary.AppendUvarint(dst, uint64(m.node))
	case opFetch:
		dst = binary.AppendUvarint(dst, uint64(m.table))
		dst = binary.AppendUvarint(dst, uint64(len(m.rows)))
		for _, r := range m.rows {
			dst = binary.AppendUvarint(dst, uint64(uint32(r)))
		}
	case opRows, opPush:
		dst = appendRowsHeader(dst, m.table, len(m.rows), m.dim)
		for i, r := range m.rows {
			dst = appendRow(dst, r, m.vals[i*m.dim:(i+1)*m.dim])
		}
	case opAck:
	case opError:
		dst = append(dst, m.code)
		dst = append(dst, m.text...)
	default:
		panic(fmt.Sprintf("shard: appendMsg of unknown op %d", m.op))
	}
	return dst
}

// appendPush encodes a push of rows straight from their source: each row's
// dim values go from src(r) into the frame with no staging copy in between.
// src may hand back one reused buffer, so every row is consumed before the
// next is asked for.
func appendPush(dst []byte, table, dim int, rows []int32, src RowAt) []byte {
	dst = appendRowsHeader(append(dst, opPush), table, len(rows), dim)
	for _, r := range rows {
		dst = appendRow(dst, r, src(r)[:dim])
	}
	return dst
}

// appendRowsHeader encodes the body prefix the rows and push messages share.
func appendRowsHeader(dst []byte, table, count, dim int) []byte {
	dst = binary.AppendUvarint(dst, uint64(table))
	dst = binary.AppendUvarint(dst, uint64(count))
	return binary.AppendUvarint(dst, uint64(dim))
}

// appendRow encodes one row id and its values.
func appendRow(dst []byte, row int32, vals []float32) []byte {
	dst = binary.AppendUvarint(dst, uint64(uint32(row)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// decodeMsg parses a frame payload into m, reusing m.rows / m.vals scratch.
// Every count is validated against the remaining payload length BEFORE the
// matching slice is sized, so a lying header cannot over-allocate: the
// decoder's footprint is bounded by the payload actually received.
func decodeMsg(payload []byte, m *wireMsg) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty payload", ErrBadFrame)
	}
	m.op = payload[0]
	b := payload[1:]
	var err error
	var v uint64
	switch m.op {
	case opHello:
		if v, b, err = uvarint(b, math.MaxInt32); err != nil {
			return err
		}
		m.node = int(v)
		if len(b) != 0 {
			return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(b))
		}
	case opFetch:
		if v, b, err = uvarint(b, math.MaxInt32); err != nil {
			return err
		}
		m.table = int(v)
		if v, b, err = uvarint(b, uint64(len(b))); err != nil {
			// Each row needs at least one varint byte, so a count above the
			// remaining length is structurally impossible.
			return err
		}
		count := int(v)
		m.rows = sizeRows(m.rows, count)
		for i := 0; i < count; i++ {
			if v, b, err = uvarint(b, math.MaxUint32); err != nil {
				return err
			}
			m.rows[i] = int32(uint32(v))
		}
		if len(b) != 0 {
			return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(b))
		}
	case opRows, opPush:
		if v, b, err = uvarint(b, math.MaxInt32); err != nil {
			return err
		}
		m.table = int(v)
		if v, b, err = uvarint(b, uint64(len(b))); err != nil {
			return err
		}
		count := int(v)
		if v, b, err = uvarint(b, maxWireDim); err != nil {
			return err
		}
		m.dim = int(v)
		// Bounds check before allocating: count rows of (≥1 varint byte +
		// dim*4 value bytes) must fit in what actually arrived.
		if need := uint64(count) * (1 + 4*uint64(m.dim)); need > uint64(len(b)) {
			return fmt.Errorf("%w: %d rows×dim %d need %d bytes, have %d",
				ErrBadFrame, count, m.dim, need, len(b))
		}
		m.rows = sizeRows(m.rows, count)
		m.vals = sizeVals(m.vals, count*m.dim)
		for i := 0; i < count; i++ {
			if v, b, err = uvarint(b, math.MaxUint32); err != nil {
				return err
			}
			m.rows[i] = int32(uint32(v))
			if len(b) < 4*m.dim {
				return fmt.Errorf("%w: row %d values cut short", ErrTruncatedFrame, i)
			}
			for k := 0; k < m.dim; k++ {
				m.vals[i*m.dim+k] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*k:]))
			}
			b = b[4*m.dim:]
		}
		if len(b) != 0 {
			return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(b))
		}
	case opAck:
		if len(b) != 0 {
			return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(b))
		}
	case opError:
		if len(b) < 1 {
			return fmt.Errorf("%w: error frame without code", ErrBadFrame)
		}
		m.code = b[0]
		m.text = string(b[1:])
	default:
		return fmt.Errorf("%w: unknown opcode %d", ErrBadFrame, m.op)
	}
	return nil
}

// sizeRows returns s resized to n, reusing capacity.
func sizeRows(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// sizeVals returns s resized to n, reusing capacity.
func sizeVals(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// wireErr maps an opError body to the fabric's typed errors.
func wireErr(code byte, text string) error {
	switch code {
	case wireErrUnknownRow:
		return fmt.Errorf("%w: %s", ErrUnknownRow, text)
	case wireErrBadFrame:
		return fmt.Errorf("%w: %s", ErrBadFrame, text)
	default:
		// An error code this build does not know is a protocol-version
		// mismatch — unintelligible protocol, same class as a bad frame.
		return fmt.Errorf("%w: peer error %d: %s", ErrBadFrame, code, text)
	}
}
