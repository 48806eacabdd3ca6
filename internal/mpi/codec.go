package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Float64sToBytes encodes a float64 slice little-endian.
func Float64sToBytes(x []float64) []byte {
	out := make([]byte, 8*len(x))
	words{f: x}.put(out)
	return out
}

// Int64sToBytes encodes an int64 slice little-endian.
func Int64sToBytes(x []int64) []byte {
	out := make([]byte, 8*len(x))
	words{i: x}.put(out)
	return out
}

// words is the operand of a typed message: a float64 or an int64
// slice (at most one of the two is non-empty), carried as
// little-endian 8-byte words.
type words struct {
	f []float64
	i []int64
}

func (x words) len() int { return len(x.f) + len(x.i) }

// put encodes x into b, which holds 8·len(x) bytes.
func (x words) put(b []byte) {
	for k, v := range x.f {
		binary.LittleEndian.PutUint64(b[8*k:], math.Float64bits(v))
	}
	for k, v := range x.i {
		binary.LittleEndian.PutUint64(b[8*k:], uint64(v))
	}
}

// fold combines the words encoded in b into x elementwise with op
// (opSet overwrites). It reports false, leaving x untouched, when b is
// not exactly 8·len(x) bytes long: the payload is torn.
func (x words) fold(op Op, b []byte) bool {
	if len(b) != 8*x.len() {
		return false
	}
	for k := range x.f {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
		switch op {
		case opSet:
			x.f[k] = v
		case OpSum:
			x.f[k] += v
		case OpMax:
			x.f[k] = math.Max(x.f[k], v)
		case OpMin:
			x.f[k] = math.Min(x.f[k], v)
		}
	}
	for k := range x.i {
		v := int64(binary.LittleEndian.Uint64(b[8*k:]))
		switch op {
		case opSet:
			x.i[k] = v
		case OpSum:
			x.i[k] += v
		case OpMax:
			if v > x.i[k] {
				x.i[k] = v
			}
		case OpMin:
			if v < x.i[k] {
				x.i[k] = v
			}
		}
	}
	return true
}

// SendFloat64s sends a float64 slice, encoded into a buffer from the
// world's free list (x itself may be rewritten at once).
func (c *Comm) SendFloat64s(dst, tag int, x []float64) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tags must be >= 0, got %d", tag))
	}
	c.postWords(dst, tag, words{f: x})
}

// RecvFloat64s receives a float64 slice into a fresh slice. A payload
// whose length is not a multiple of 8 (a torn one) raises an
// ErrTornPayload comm failure.
func (c *Comm) RecvFloat64s(src, tag int) []float64 {
	m, cr := c.recvUser(src, tag)
	x := make([]float64, len(m.data)/8)
	c.decode("Recv", cr, m, words{f: x}, opSet)
	return x
}

// RecvFloat64sInto receives a float64 slice of len(dst) values into
// dst. A payload of any other length (a torn one) raises an
// ErrTornPayload comm failure.
func (c *Comm) RecvFloat64sInto(dst []float64, src, tag int) {
	m, cr := c.recvUser(src, tag)
	c.decode("Recv", cr, m, words{f: dst}, opSet)
}

// recvUser is recv behind Recv's tag check.
func (c *Comm) recvUser(src, tag int) (message, int) {
	if tag < 0 && tag != AnyTag {
		panic(fmt.Sprintf("mpi: Recv tag %d invalid", tag))
	}
	return c.recv(src, tag)
}

// AllgatherFloat64s is Allgather over float64 slices, each block
// decoded into a fresh slice: a torn block raises an ErrTornPayload
// comm failure.
func (c *Comm) AllgatherFloat64s(x []float64) [][]float64 {
	all := c.Allgather(Float64sToBytes(x))
	out := make([][]float64, len(all))
	for r, raw := range all {
		out[r] = make([]float64, len(raw)/8)
		if !(words{f: out[r]}).fold(opSet, raw) {
			panic(c.tornPayload("Allgather", r, len(raw)))
		}
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
