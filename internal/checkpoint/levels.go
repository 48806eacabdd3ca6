package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
)

// Block-restart checkpoints for the resilient PFASST loop.
//
// Format (little-endian): magic "NBLV", version u32, block u64,
// stepsDone u64, timeRanks u64, t f64, nLevels u64, then per level:
// dim u64 + dim×f64, then (version ≥ 2) a diagnostics block of
// count u64 + count×f64 — and a trailing FNV-1a checksum over
// everything before it, like the particle format. Version 1 files
// (no diagnostics block) still read back with a nil Diag.
const (
	levelMagic   = "NBLV"
	levelVersion = 2

	// Bounds on untrusted header fields, enforced before the checksum
	// can verify so a corrupt file can't drive huge allocations.
	maxLevels   = 64
	maxLevelDim = 1 << 28
	maxDiag     = 64
)

// LevelState is a PFASST block-restart checkpoint: the solver's
// position in the time loop plus the level solution vectors needed to
// restart the block. Every time rank holds the identical block-start
// state (the block-end broadcast invariant), so any survivor's
// checkpoint can restart the whole communicator. TimeRanks records the
// communicator size at checkpoint time; a resume with a different size
// repartitions the remaining steps rather than trusting stale block
// indices.
type LevelState struct {
	Block     int     // block index about to run
	StepsDone int     // time steps fully committed before this block
	TimeRanks int     // time-communicator size at checkpoint time
	T         float64 // physical time at block start
	// U holds the per-level solution at block start, finest level
	// first. The grid loop checkpoints only the fine vector
	// (coarse levels are rebuilt by restriction), but the format
	// carries the full hierarchy for solvers that need it.
	U [][]float64
	// Diag is an optional diagnostics block (the guard layer stores
	// the nine conserved invariants Ω, I, A of the fine state here):
	// a resume can then detect body corruption that slipped past the
	// file checksum by recomputing the invariants from U. Nil for
	// version 1 files and saves without a guard.
	Diag []float64
}

// WriteLevels serializes st to w.
func WriteLevels(w io.Writer, st *LevelState) error {
	if len(st.U) > maxLevels {
		return fmt.Errorf("checkpoint: %d levels exceeds limit %d", len(st.U), maxLevels)
	}
	if len(st.Diag) > maxDiag {
		return fmt.Errorf("checkpoint: %d diagnostics exceed limit %d", len(st.Diag), maxDiag)
	}
	h := fnv.New64a()
	mw := io.MultiWriter(w, h)

	if _, err := mw.Write([]byte(levelMagic)); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var hdr [44]byte
	binary.LittleEndian.PutUint32(hdr[0:], levelVersion)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(int64(st.Block)))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(int64(st.StepsDone)))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(int64(st.TimeRanks)))
	binary.LittleEndian.PutUint64(hdr[28:], math.Float64bits(st.T))
	binary.LittleEndian.PutUint64(hdr[36:], uint64(len(st.U)))
	if _, err := mw.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var b8 [8]byte
	for _, u := range st.U {
		binary.LittleEndian.PutUint64(b8[:], uint64(len(u)))
		if _, err := mw.Write(b8[:]); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		buf := make([]byte, 8*len(u))
		for i, v := range u {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if _, err := mw.Write(buf); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	binary.LittleEndian.PutUint64(b8[:], uint64(len(st.Diag)))
	if _, err := mw.Write(b8[:]); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, v := range st.Diag {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
		if _, err := mw.Write(b8[:]); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], h.Sum64())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// ReadLevels deserializes a state written by WriteLevels, verifying
// the magic, version, structural bounds and checksum. Corruption of
// any kind returns an error — never a panic — so a recovery path can
// fall back to an older checkpoint.
func ReadLevels(r io.Reader) (*LevelState, error) {
	h := fnv.New64a()
	tr := io.TeeReader(r, h)

	head := make([]byte, 4+44)
	if _, err := io.ReadFull(tr, head); err != nil {
		return nil, fmt.Errorf("checkpoint: short level header: %w: %w", ErrCorrupt, err)
	}
	if string(head[:4]) != levelMagic {
		return nil, fmt.Errorf("checkpoint: bad level magic %q: %w", head[:4], ErrCorrupt)
	}
	version := binary.LittleEndian.Uint32(head[4:])
	if version < 1 || version > levelVersion {
		return nil, fmt.Errorf("checkpoint: unsupported level version %d: %w", version, ErrCorrupt)
	}
	st := &LevelState{
		Block:     int(int64(binary.LittleEndian.Uint64(head[8:]))),
		StepsDone: int(int64(binary.LittleEndian.Uint64(head[16:]))),
		TimeRanks: int(int64(binary.LittleEndian.Uint64(head[24:]))),
		T:         math.Float64frombits(binary.LittleEndian.Uint64(head[32:])),
	}
	if st.Block < 0 || st.StepsDone < 0 || st.TimeRanks < 0 {
		return nil, fmt.Errorf("checkpoint: negative level header field (block=%d steps=%d ranks=%d): %w",
			st.Block, st.StepsDone, st.TimeRanks, ErrCorrupt)
	}
	nLevels := binary.LittleEndian.Uint64(head[40:])
	if nLevels > maxLevels {
		return nil, fmt.Errorf("checkpoint: %d levels exceeds limit %d: %w", nLevels, maxLevels, ErrCorrupt)
	}
	st.U = make([][]float64, 0, nLevels)
	var b8 [8]byte
	for l := uint64(0); l < nLevels; l++ {
		if _, err := io.ReadFull(tr, b8[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: level %d: short dim: %w: %w", l, ErrCorrupt, err)
		}
		dim := binary.LittleEndian.Uint64(b8[:])
		if dim > maxLevelDim {
			return nil, fmt.Errorf("checkpoint: level %d: dim %d exceeds limit %d: %w", l, dim, maxLevelDim, ErrCorrupt)
		}
		// The dim is untrusted until the checksum verifies: read in
		// bounded chunks rather than pre-allocating dim outright.
		u := make([]float64, 0, min64(dim, 1<<16))
		buf := make([]byte, 8*min64(dim, 1<<13))
		for got := uint64(0); got < dim; {
			n := min64(dim-got, uint64(len(buf)/8))
			if _, err := io.ReadFull(tr, buf[:8*n]); err != nil {
				return nil, fmt.Errorf("checkpoint: level %d: short data at %d/%d: %w: %w", l, got, dim, ErrCorrupt, err)
			}
			for i := uint64(0); i < n; i++ {
				u = append(u, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
			}
			got += n
		}
		st.U = append(st.U, u)
	}
	if version >= 2 {
		if _, err := io.ReadFull(tr, b8[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: short diagnostics count: %w: %w", ErrCorrupt, err)
		}
		nd := binary.LittleEndian.Uint64(b8[:])
		if nd > maxDiag {
			return nil, fmt.Errorf("checkpoint: %d diagnostics exceed limit %d: %w", nd, maxDiag, ErrCorrupt)
		}
		for i := uint64(0); i < nd; i++ {
			if _, err := io.ReadFull(tr, b8[:]); err != nil {
				return nil, fmt.Errorf("checkpoint: short diagnostics: %w: %w", ErrCorrupt, err)
			}
			st.Diag = append(st.Diag, math.Float64frombits(binary.LittleEndian.Uint64(b8[:])))
		}
	}
	want := h.Sum64()
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: missing level checksum: %w: %w", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint64(sum[:]); got != want {
		return nil, fmt.Errorf("checkpoint: level checksum mismatch (file %x, computed %x): %w", got, want, ErrCorrupt)
	}
	return st, nil
}

// SaveLevels writes a block checkpoint to a file atomically (see
// WriteFile): a crash mid-save leaves the previous checkpoint valid.
func SaveLevels(path string, st *LevelState) error {
	return WriteFile(path, func(w io.Writer) error { return WriteLevels(w, st) })
}

// LoadLevels reads a block checkpoint from a file.
func LoadLevels(path string) (*LevelState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return ReadLevels(f)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
