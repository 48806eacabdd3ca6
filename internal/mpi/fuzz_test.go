package mpi

import (
	"bytes"
	"testing"
)

// FuzzFloat64Codec checks the scalar payload codec: any 8-byte-aligned
// buffer must round-trip bit-exactly (including NaN payloads), and the
// decoder must reject misaligned buffers without slicing out of range.
func FuzzFloat64Codec(f *testing.F) {
	f.Add(Float64sToBytes([]float64{0, 1.5, -2.25e300}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}) // misaligned
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		ints := make([]int64, len(data)/8)
		okF := (words{f: vals}).fold(opSet, data)
		okI := (words{i: ints}).fold(opSet, data)
		if len(data)%8 != 0 {
			if okF || okI {
				t.Fatal("misaligned payload must be rejected")
			}
			return
		}
		if !okF || !okI {
			t.Fatalf("aligned %d-byte payload rejected", len(data))
		}
		if back := Float64sToBytes(vals); !bytes.Equal(back, data) {
			t.Fatalf("float64 payload not bit-stable: %x -> %x", data, back)
		}
		if back := Int64sToBytes(ints); !bytes.Equal(back, data) {
			t.Fatalf("int64 payload not bit-stable: %x -> %x", data, back)
		}
	})
}
