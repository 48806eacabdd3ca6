package mpi

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeBlocks hardens the gather-frame decoder: arbitrary bytes
// must yield a clean error or a valid block list, never a panic, an
// out-of-range slice, or a runaway pre-allocation. Frames the decoder
// accepts must survive an encode/decode round trip unchanged.
func FuzzDecodeBlocks(f *testing.F) {
	f.Add(encodeBlocks([][]byte{[]byte("abc"), nil, {1, 2}}))
	f.Add(encodeBlocks(nil))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// A header claiming 2^60 blocks with no payload.
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint64(huge, 1<<60)
	f.Add(huge)
	// One block whose claimed length runs past the buffer.
	overrun := encodeBlocks([][]byte{bytes.Repeat([]byte{9}, 32)})
	f.Add(overrun[:len(overrun)-16])
	f.Fuzz(func(t *testing.T, data []byte) {
		held := [][]byte{[]byte("held")}
		blocks, err := decodeBlocks(held, data)
		if err != nil {
			return
		}
		if len(blocks) > 1+len(data)/8 {
			t.Fatalf("%d blocks out of a %d-byte frame", len(blocks)-1, len(data))
		}
		if string(blocks[0]) != "held" {
			t.Fatalf("decoding rewrote the blocks already held: %q", blocks[0])
		}
		blocks = blocks[1:]
		again, err2 := decodeBlocks(nil, encodeBlocks(blocks))
		if err2 != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err2)
		}
		if len(again) != len(blocks) {
			t.Fatalf("round trip changed block count: %d -> %d", len(blocks), len(again))
		}
		for k, v := range blocks {
			if !bytes.Equal(again[k], v) {
				t.Fatalf("round trip changed block %d: %v -> %v", k, v, again[k])
			}
		}
	})
}

// FuzzFloat64Codec checks the scalar payload codec: any 8-byte-aligned
// buffer must round-trip bit-exactly (including NaN payloads), and the
// decoder must reject misaligned buffers without slicing out of range.
func FuzzFloat64Codec(f *testing.F) {
	f.Add(Float64sToBytes([]float64{0, 1.5, -2.25e300}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}) // misaligned
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data)%8 != 0 {
			defer func() {
				if recover() == nil {
					t.Fatal("misaligned payload must be rejected")
				}
			}()
			BytesToFloat64s(data)
			return
		}
		vals := BytesToFloat64s(data)
		if back := Float64sToBytes(vals); !bytes.Equal(back, data) {
			t.Fatalf("float64 payload not bit-stable: %x -> %x", data, back)
		}
		ints := BytesToInt64s(data)
		if back := Int64sToBytes(ints); !bytes.Equal(back, data) {
			t.Fatalf("int64 payload not bit-stable: %x -> %x", data, back)
		}
	})
}
