package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Float64sToBytes encodes a float64 slice little-endian.
func Float64sToBytes(x []float64) []byte {
	out := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// BytesToFloat64s decodes a little-endian float64 slice; the byte
// length must be a multiple of 8 (it panics otherwise — use
// BytesToFloat64sChecked on paths that can receive corrupt payloads).
func BytesToFloat64s(b []byte) []float64 {
	out, err := BytesToFloat64sChecked(b)
	if err != nil {
		panic("mpi: " + err.Error())
	}
	return out
}

// BytesToFloat64sChecked is the non-panicking decoder used on receive
// paths that can see injected-corrupt payloads (leak-mode fault plans
// tear one byte off a message): a torn buffer yields a typed error
// instead of a panic, like decodeBlocks.
func BytesToFloat64sChecked(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("float64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// Int64sToBytes encodes an int64 slice little-endian.
func Int64sToBytes(x []int64) []byte {
	out := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// BytesToInt64s decodes a little-endian int64 slice (panics on a torn
// buffer — use BytesToInt64sChecked where corruption is possible).
func BytesToInt64s(b []byte) []int64 {
	out, err := BytesToInt64sChecked(b)
	if err != nil {
		panic("mpi: " + err.Error())
	}
	return out
}

// BytesToInt64sChecked is the non-panicking int64 decoder.
func BytesToInt64sChecked(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("int64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// SendFloat64s sends a float64 slice.
func (c *Comm) SendFloat64s(dst, tag int, x []float64) {
	c.Send(dst, tag, Float64sToBytes(x))
}

// RecvFloat64s receives a float64 slice.
func (c *Comm) RecvFloat64s(src, tag int) []float64 {
	raw, _, _ := c.Recv(src, tag)
	return BytesToFloat64s(raw)
}

// AllgatherFloat64s is Allgather over float64 slices through the
// checked decoder: a torn block raises an ErrTornPayload comm failure
// instead of the unchecked decoder's panic.
func (c *Comm) AllgatherFloat64s(x []float64) [][]float64 {
	all := c.Allgather(Float64sToBytes(x))
	out := make([][]float64, len(all))
	for r, raw := range all {
		v, err := BytesToFloat64sChecked(raw)
		if err != nil {
			panic(c.tornPayload("Allgather", r, len(raw)))
		}
		out[r] = v
	}
	return out
}

// Reader is a checked reader over the block that member rank of the
// communicator delivered to collective op: a caller that decodes a
// received block record by record takes each record with Next, and a
// block that ends inside a record (torn by leak-mode corruption)
// raises the same ErrTornPayload comm failure as the collectives'
// own decoders, instead of dropping the record or misreading it.
type Reader struct {
	c          *Comm
	op         string
	rank, size int
	rest       []byte
}

// Reader returns a checked reader over block raw, which member rank
// delivered to collective op ("Alltoall", "Allgather").
func (c *Comm) Reader(op string, rank int, raw []byte) Reader {
	return Reader{c: c, op: op, rank: rank, size: len(raw), rest: raw}
}

// More reports whether bytes are left to read.
func (r *Reader) More() bool { return len(r.rest) > 0 }

// Next returns the next n bytes of the block. Fewer than n left
// raises an ErrTornPayload comm failure.
func (r *Reader) Next(n int) []byte {
	if n < 0 || n > len(r.rest) {
		panic(r.c.tornPayload(r.op, r.rank, r.size))
	}
	b := r.rest[:n]
	r.rest = r.rest[n:]
	return b
}

// encodeBlocks serializes the blocks one Bruck allgather round sends:
// [count, (len, bytes)...] with 8-byte headers.
func encodeBlocks(blocks [][]byte) []byte {
	total := 8
	for _, v := range blocks {
		total += 8 + len(v)
	}
	out := make([]byte, 0, total)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(blocks)))
	for _, v := range blocks {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(v)))
		out = append(out, v...)
	}
	return out
}

// decodeBlocks appends the blocks of a gather frame to dst, as views
// into raw, with full bounds checking: the claimed block count must
// fit the payload (so the growth of dst is bounded by the frame size)
// and every block header and body must lie inside the buffer.
func decodeBlocks(dst [][]byte, raw []byte) ([][]byte, error) {
	if len(raw) < 8 {
		return nil, fmt.Errorf("frame too short for count header: %d bytes", len(raw))
	}
	n := binary.LittleEndian.Uint64(raw)
	raw = raw[8:]
	if n > uint64(len(raw))/8 {
		return nil, fmt.Errorf("claimed %d blocks exceeds %d payload bytes", n, len(raw))
	}
	for i := uint64(0); i < n; i++ {
		if len(raw) < 8 {
			return nil, fmt.Errorf("block %d: truncated header (%d bytes left)", i, len(raw))
		}
		l := binary.LittleEndian.Uint64(raw)
		raw = raw[8:]
		if l > uint64(len(raw)) {
			return nil, fmt.Errorf("block %d: length %d exceeds %d remaining bytes", i, l, len(raw))
		}
		dst = append(dst, raw[:l:l])
		raw = raw[l:]
	}
	return dst, nil
}
