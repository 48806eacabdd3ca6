package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Grid checkpoints (format v3) of core's grid loop, at every PS: the
// fine state is partitioned over the spatial communicator, so one NBLV
// shard per spatial column (one shard at PS = 1) is written by that
// column's rank in the first live time slice, and a single checksummed
// NBLM manifest binds the shards of one committed block together. The
// manifest is written atomically and LAST, after every shard of its
// block is durable and re-verified — so at any instant the manifest on
// disk names a complete, consistent set of shards: a crash mid-commit
// leaves the previous manifest (and its block-numbered shards, which
// are never overwritten) intact.
//
// Restore returns the full concatenated state, so a resume onto a
// DIFFERENT spatial width — or the shrink-recovery path, which is the
// same code — just re-partitions it (hot.BlockPartition).
//
// Manifest format (little-endian): magic "NBLM", version u32, block
// u64, stepsDone u64, timeRanks u64, spaceRanks u64, t f64, diag
// count u64 + count×f64 (the guard's global invariants of the full
// state), then per column: fine dim u64 + shard-file FNV-1a u64 — and
// a trailing FNV-1a checksum over everything before it.
const (
	gridMagic   = "NBLM"
	gridVersion = 1

	// maxCols bounds the untrusted column count of a manifest before
	// the checksum can verify.
	maxCols = 1 << 16
)

// GridState is the metadata of one committed grid checkpoint.
type GridState struct {
	Block      int     // block index about to run
	StepsDone  int     // time steps fully committed before this block
	TimeRanks  int     // PT at checkpoint time
	SpaceRanks int     // PS at checkpoint time == number of shards
	T          float64 // physical time at block start
	// Dims holds the fine-state length of each column's shard.
	Dims []int
	// ShardSums holds the FNV-1a checksum of each shard file's bytes.
	ShardSums []uint64
	// Diag carries the guard's conserved invariants of the FULL
	// (concatenated) state, so a resume onto any PS can revalidate.
	Diag []float64
}

// ManifestPath returns the manifest location under dir.
func ManifestPath(dir string) string { return filepath.Join(dir, "grid.nblm") }

// ShardPath returns the shard location of one (block, column) pair.
// Shard names carry the block index, so a new block's shards never
// overwrite the committed ones — the multi-file commit stays atomic.
func ShardPath(dir string, block, col int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-b%d-c%d.nblv", block, col))
}

// SaveGridShard atomically writes one column's block-restart state as
// a standard NBLV shard. st.Block names the block; the shard lands at
// ShardPath(dir, st.Block, col).
func SaveGridShard(dir string, col int, st *LevelState) error {
	return SaveLevels(ShardPath(dir, st.Block, col), st)
}

// WriteGridManifest serializes the manifest to w.
func WriteGridManifest(w io.Writer, g *GridState) error {
	if len(g.Dims) != g.SpaceRanks || len(g.ShardSums) != g.SpaceRanks {
		return fmt.Errorf("checkpoint: manifest wants %d dims and sums, got %d/%d",
			g.SpaceRanks, len(g.Dims), len(g.ShardSums))
	}
	if g.SpaceRanks > maxCols {
		return fmt.Errorf("checkpoint: %d columns exceed limit %d", g.SpaceRanks, maxCols)
	}
	if len(g.Diag) > maxDiag {
		return fmt.Errorf("checkpoint: %d diagnostics exceed limit %d", len(g.Diag), maxDiag)
	}
	h := fnv.New64a()
	mw := io.MultiWriter(w, h)
	if _, err := mw.Write([]byte(gridMagic)); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var hdr [44]byte
	binary.LittleEndian.PutUint32(hdr[0:], gridVersion)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(int64(g.Block)))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(int64(g.StepsDone)))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(int64(g.TimeRanks)))
	binary.LittleEndian.PutUint64(hdr[28:], uint64(int64(g.SpaceRanks)))
	binary.LittleEndian.PutUint64(hdr[36:], math.Float64bits(g.T))
	if _, err := mw.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(len(g.Diag)))
	if _, err := mw.Write(b8[:]); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, v := range g.Diag {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
		if _, err := mw.Write(b8[:]); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	for i := 0; i < g.SpaceRanks; i++ {
		binary.LittleEndian.PutUint64(b8[:], uint64(int64(g.Dims[i])))
		if _, err := mw.Write(b8[:]); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		binary.LittleEndian.PutUint64(b8[:], g.ShardSums[i])
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

// ReadGridManifest deserializes a manifest, verifying magic, version,
// structural bounds and checksum. Corruption returns an error — never
// a panic.
func ReadGridManifest(r io.Reader) (*GridState, error) {
	h := fnv.New64a()
	tr := io.TeeReader(r, h)
	head := make([]byte, 4+44)
	if _, err := io.ReadFull(tr, head); err != nil {
		return nil, fmt.Errorf("checkpoint: short manifest header: %w: %w", ErrCorrupt, err)
	}
	if string(head[:4]) != gridMagic {
		return nil, fmt.Errorf("checkpoint: bad manifest magic %q: %w", head[:4], ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != gridVersion {
		return nil, fmt.Errorf("checkpoint: unsupported manifest version %d: %w", v, ErrCorrupt)
	}
	g := &GridState{
		Block:      int(int64(binary.LittleEndian.Uint64(head[8:]))),
		StepsDone:  int(int64(binary.LittleEndian.Uint64(head[16:]))),
		TimeRanks:  int(int64(binary.LittleEndian.Uint64(head[24:]))),
		SpaceRanks: int(int64(binary.LittleEndian.Uint64(head[32:]))),
		T:          math.Float64frombits(binary.LittleEndian.Uint64(head[40:])),
	}
	if g.Block < 0 || g.StepsDone < 0 || g.TimeRanks < 1 {
		return nil, fmt.Errorf("checkpoint: bad manifest header (block=%d steps=%d timeRanks=%d): %w",
			g.Block, g.StepsDone, g.TimeRanks, ErrCorrupt)
	}
	if g.SpaceRanks < 1 || g.SpaceRanks > maxCols {
		return nil, fmt.Errorf("checkpoint: manifest column count %d outside [1, %d]: %w", g.SpaceRanks, maxCols, ErrCorrupt)
	}
	var b8 [8]byte
	if _, err := io.ReadFull(tr, b8[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: short manifest diagnostics count: %w: %w", ErrCorrupt, err)
	}
	nd := binary.LittleEndian.Uint64(b8[:])
	if nd > maxDiag {
		return nil, fmt.Errorf("checkpoint: %d diagnostics exceed limit %d: %w", nd, maxDiag, ErrCorrupt)
	}
	for i := uint64(0); i < nd; i++ {
		if _, err := io.ReadFull(tr, b8[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: short manifest diagnostics: %w: %w", ErrCorrupt, err)
		}
		g.Diag = append(g.Diag, math.Float64frombits(binary.LittleEndian.Uint64(b8[:])))
	}
	for i := 0; i < g.SpaceRanks; i++ {
		if _, err := io.ReadFull(tr, b8[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: column %d: short dim: %w: %w", i, ErrCorrupt, err)
		}
		dim := int(int64(binary.LittleEndian.Uint64(b8[:])))
		if dim < 0 || dim > maxLevelDim {
			return nil, fmt.Errorf("checkpoint: column %d: dim %d outside [0, %d]: %w", i, dim, maxLevelDim, ErrCorrupt)
		}
		if _, err := io.ReadFull(tr, b8[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: column %d: short shard checksum: %w: %w", i, ErrCorrupt, err)
		}
		g.Dims = append(g.Dims, dim)
		g.ShardSums = append(g.ShardSums, binary.LittleEndian.Uint64(b8[:]))
	}
	want := h.Sum64()
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: missing manifest checksum: %w: %w", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint64(sum[:]); got != want {
		return nil, fmt.Errorf("checkpoint: manifest checksum mismatch (file %x, computed %x): %w", got, want, ErrCorrupt)
	}
	return g, nil
}

// fileSum returns the FNV-1a checksum of a file's raw bytes along
// with the bytes themselves.
func fileSum(path string) ([]byte, uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	h := fnv.New64a()
	h.Write(raw)
	return raw, h.Sum64(), nil
}

// CommitGridManifest finishes a grid checkpoint: it re-reads every
// shard of the block from disk (verifying parseability, block index
// and fine dimension against what the committing rank was told),
// records the shard-file checksums, writes the manifest atomically,
// and finally garbage-collects shards of other blocks (best effort —
// stale shards are harmless, the manifest is the source of truth).
// Call it from ONE rank, after every shard writer has completed; any
// failure leaves the previous manifest and its shards untouched.
func CommitGridManifest(dir string, g *GridState) error {
	if len(g.Dims) != g.SpaceRanks {
		return fmt.Errorf("checkpoint: manifest wants %d dims, got %d", g.SpaceRanks, len(g.Dims))
	}
	g.ShardSums = make([]uint64, g.SpaceRanks)
	for col := 0; col < g.SpaceRanks; col++ {
		path := ShardPath(dir, g.Block, col)
		raw, sum, err := fileSum(path)
		if err != nil {
			return fmt.Errorf("checkpoint: commit: shard %d: %w", col, err)
		}
		st, err := ReadLevels(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("checkpoint: commit: shard %d unreadable: %w", col, err)
		}
		if st.Block != g.Block {
			return fmt.Errorf("checkpoint: commit: shard %d holds block %d, want %d", col, st.Block, g.Block)
		}
		if len(st.U) == 0 || len(st.U[0]) != g.Dims[col] {
			return fmt.Errorf("checkpoint: commit: shard %d fine dim mismatch", col)
		}
		g.ShardSums[col] = sum
	}
	if err := WriteFile(ManifestPath(dir), func(w io.Writer) error {
		return WriteGridManifest(w, g)
	}); err != nil {
		return err
	}
	gcGridShards(dir, g.Block)
	return nil
}

// gcGridShards removes shards of blocks other than keep. Best effort:
// removal errors are ignored (a stale shard wastes disk, nothing else).
func gcGridShards(dir string, keep int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	prefix := fmt.Sprintf("shard-b%d-c", keep)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "shard-b") || !strings.HasSuffix(name, ".nblv") {
			continue
		}
		if strings.HasPrefix(name, prefix) {
			continue
		}
		os.Remove(filepath.Join(dir, name))
	}
}

// GridLoad is a restored grid checkpoint: the manifest metadata plus
// the full concatenated fine state, ready to re-partition onto any
// spatial width.
type GridLoad struct {
	Block     int
	StepsDone int
	TimeRanks int
	T         float64
	// U is the full fine state, columns concatenated in order.
	U []float64
	// Diag carries the manifest's global invariants (nil without a
	// guard).
	Diag []float64
}

// LoadGrid restores a grid checkpoint from dir: the manifest is read
// and verified, then every shard it names is read, checked against
// the manifest's per-shard checksum, dimension and block index, and
// concatenated. Any inconsistency — a missing or truncated shard, a
// shard/manifest checksum mismatch, a dimension mismatch — returns an
// error naming the shard; the caller treats it like a missing
// checkpoint or aborts, never restarts from partial state.
func LoadGrid(dir string) (*GridLoad, error) {
	mf, err := os.Open(ManifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	g, err := ReadGridManifest(mf)
	mf.Close()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, d := range g.Dims {
		if d > maxLevelDim-total {
			return nil, fmt.Errorf("checkpoint: manifest total dim overflows limit %d", maxLevelDim)
		}
		total += d
	}
	out := &GridLoad{
		Block:     g.Block,
		StepsDone: g.StepsDone,
		TimeRanks: g.TimeRanks,
		T:         g.T,
		U:         make([]float64, 0, total),
		Diag:      g.Diag,
	}
	for col := 0; col < g.SpaceRanks; col++ {
		path := ShardPath(dir, g.Block, col)
		raw, sum, err := fileSum(path)
		if err != nil {
			// A shard the committed manifest names is gone: that is a
			// damaged checkpoint SET, not an absent checkpoint, so the
			// os error's ErrNotExist must not leak (a resume would treat
			// it as "no checkpoint" and silently restart from t0).
			return nil, fmt.Errorf("checkpoint: shard %d missing or unreadable (%s): %w", col, err.Error(), ErrCorrupt)
		}
		if sum != g.ShardSums[col] {
			return nil, fmt.Errorf("checkpoint: shard %d checksum mismatch with manifest (file %x, manifest %x): %w",
				col, sum, g.ShardSums[col], ErrCorrupt)
		}
		st, err := ReadLevels(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("checkpoint: shard %d: %w", col, err)
		}
		if st.Block != g.Block {
			return nil, fmt.Errorf("checkpoint: shard %d holds block %d, manifest wants %d: %w", col, st.Block, g.Block, ErrCorrupt)
		}
		if len(st.U) == 0 || len(st.U[0]) != g.Dims[col] {
			return nil, fmt.Errorf("checkpoint: shard %d fine dim %d, manifest wants %d: %w",
				col, lenFine(st), g.Dims[col], ErrCorrupt)
		}
		out.U = append(out.U, st.U[0]...)
	}
	return out, nil
}

func lenFine(st *LevelState) int {
	if len(st.U) == 0 {
		return 0
	}
	return len(st.U[0])
}
