package hot

import (
	"encoding/binary"
	"math"

	"repro/internal/particle"
	"repro/internal/tree"
	"repro/internal/vec"
)

// Wire formats. Particles travel during the domain decomposition and in
// the prefetch records of remote leaves; cells travel in the branch
// lists and in the prefetch records.

const (
	// particleRecFloats: pos(3), alpha(3), vol, charge, originRank,
	// originIdx, workWeight.
	particleRecFloats = 11
	particleRecBytes  = particleRecFloats * 8

	// cellRecBytes: pkey(8) + meta(8) + 17 moment floats. The moment
	// block is a union: the vortex discipline stores circ(3), absCirc,
	// centroid(3), dipole(9) and one pad; the Coulomb discipline stores
	// charge, absCharge, centroid(3), dipoleQ(3), quad(9).
	cellMomentFloats = 17
	cellRecBytes     = 16 + cellMomentFloats*8
)

func putF(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func getF(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// appendF appends one little-endian float64 word.
func appendF(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// encodeParticle appends the wire form of p (with origin labels and
// the previous-evaluation work weight) to dst.
func encodeParticle(dst []byte, p *particle.Particle, originRank, originIdx int, weight float64) []byte {
	var rec [particleRecBytes]byte
	putF(rec[0:], p.Pos.X)
	putF(rec[8:], p.Pos.Y)
	putF(rec[16:], p.Pos.Z)
	putF(rec[24:], p.Alpha.X)
	putF(rec[32:], p.Alpha.Y)
	putF(rec[40:], p.Alpha.Z)
	putF(rec[48:], p.Vol)
	putF(rec[56:], p.Charge)
	putF(rec[64:], float64(originRank))
	putF(rec[72:], float64(originIdx))
	putF(rec[80:], weight)
	return append(dst, rec[:]...)
}

// decodeParticle reads one particle record and returns it with its
// origin labels and work weight.
func decodeParticle(b []byte) (p particle.Particle, originRank, originIdx int, weight float64) {
	p.Pos = vec.V3(getF(b[0:]), getF(b[8:]), getF(b[16:]))
	p.Alpha = vec.V3(getF(b[24:]), getF(b[32:]), getF(b[40:]))
	p.Vol = getF(b[48:])
	p.Charge = getF(b[56:])
	return p, int(getF(b[64:])), int(getF(b[72:])), getF(b[80:])
}

// encodeCell appends the wire form of a tree node to dst. The meta word
// packs the particle count and the leaf flag.
func encodeCell(dst []byte, nd *tree.Node, disc tree.Discipline) []byte {
	var rec [cellRecBytes]byte
	binary.LittleEndian.PutUint64(rec[0:], nd.PKey())
	meta := uint64(nd.Count) << 1
	if nd.Leaf {
		meta |= 1
	}
	binary.LittleEndian.PutUint64(rec[8:], meta)
	m := rec[16:]
	switch disc {
	case tree.Vortex:
		putF(m[0:], nd.CircSum.X)
		putF(m[8:], nd.CircSum.Y)
		putF(m[16:], nd.CircSum.Z)
		putF(m[24:], nd.AbsCirc)
		putF(m[32:], nd.Centroid.X)
		putF(m[40:], nd.Centroid.Y)
		putF(m[48:], nd.Centroid.Z)
		o := 56
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				putF(m[o:], nd.Dipole[i][j])
				o += 8
			}
		}
	case tree.Coulomb:
		putF(m[0:], nd.Charge)
		putF(m[8:], nd.AbsCharge)
		putF(m[16:], nd.Centroid.X)
		putF(m[24:], nd.Centroid.Y)
		putF(m[32:], nd.Centroid.Z)
		putF(m[40:], nd.DipoleQ.X)
		putF(m[48:], nd.DipoleQ.Y)
		putF(m[56:], nd.DipoleQ.Z)
		o := 64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				putF(m[o:], nd.QuadQ[i][j])
				o += 8
			}
		}
	}
	return append(dst, rec[:]...)
}

// appendParticleLanes decodes one particle record straight into the
// discipline's lanes of l: position and circulation for vortex leaves,
// position and charge for Coulomb leaves. The lanes hold the record's
// exact float64 bits.
func appendParticleLanes(l *particle.SoA, b []byte, disc tree.Discipline) {
	l.X = append(l.X, getF(b[0:]))
	l.Y = append(l.Y, getF(b[8:]))
	l.Z = append(l.Z, getF(b[16:]))
	switch disc {
	case tree.Vortex:
		l.AX = append(l.AX, getF(b[24:]))
		l.AY = append(l.AY, getF(b[32:]))
		l.AZ = append(l.AZ, getF(b[40:]))
	case tree.Coulomb:
		l.Q = append(l.Q, getF(b[56:]))
	}
}

// decodeCell reads one cell record into nd, overwriting it completely,
// and returns the cell's placeholder key; geometry (Center, Size,
// Level, Prefix) is reconstructed from the key and the domain, and the
// cell has no children.
func decodeCell(nd *tree.Node, b []byte, disc tree.Discipline, dom tree.Domain) uint64 {
	pkey := binary.LittleEndian.Uint64(b[0:])
	meta := binary.LittleEndian.Uint64(b[8:])
	*nd = tree.Node{Children: [8]int32{-1, -1, -1, -1, -1, -1, -1, -1}}
	prefix, level := tree.PKeyPrefix(pkey)
	nd.Prefix, nd.Level = prefix, level
	nd.Count = int(meta >> 1)
	nd.Leaf = meta&1 == 1
	nd.Size = dom.Size / float64(uint64(1)<<level)
	nd.Center = dom.CellCenter(prefix, level)
	m := b[16:]
	switch disc {
	case tree.Vortex:
		nd.CircSum = vec.V3(getF(m[0:]), getF(m[8:]), getF(m[16:]))
		nd.AbsCirc = getF(m[24:])
		nd.Centroid = vec.V3(getF(m[32:]), getF(m[40:]), getF(m[48:]))
		o := 56
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				nd.Dipole[i][j] = getF(m[o:])
				o += 8
			}
		}
	case tree.Coulomb:
		nd.Charge = getF(m[0:])
		nd.AbsCharge = getF(m[8:])
		nd.Centroid = vec.V3(getF(m[16:]), getF(m[24:]), getF(m[32:]))
		nd.DipoleQ = vec.V3(getF(m[40:]), getF(m[48:]), getF(m[56:]))
		o := 64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				nd.QuadQ[i][j] = getF(m[o:])
				o += 8
			}
		}
	}
	return pkey
}
