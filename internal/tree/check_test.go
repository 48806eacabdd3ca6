package tree

import (
	"errors"
	"math"
	"testing"

	"repro/internal/particle"
	"repro/internal/vec"
)

func TestBuildCheckedTypedErrors(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		sys  *particle.System
		disc Discipline
		want error
	}{
		{"empty", &particle.System{Sigma: 1}, Vortex, ErrEmpty},
		{"nan position", &particle.System{Sigma: 1, Particles: []particle.Particle{
			{Pos: vec.V3(nan, 0.5, 0.5), Alpha: vec.V3(0, 0, 1)},
		}}, Vortex, ErrNonFinite},
		{"inf position", &particle.System{Sigma: 1, Particles: []particle.Particle{
			{Pos: vec.V3(0.5, math.Inf(1), 0.5), Alpha: vec.V3(0, 0, 1)},
		}}, Vortex, ErrNonFinite},
		{"nan alpha", &particle.System{Sigma: 1, Particles: []particle.Particle{
			{Pos: vec.V3(0.5, 0.5, 0.5), Alpha: vec.V3(0, nan, 0)},
		}}, Vortex, ErrNonFinite},
		{"nan charge", &particle.System{Sigma: 1, Particles: []particle.Particle{
			{Pos: vec.V3(0.5, 0.5, 0.5), Charge: nan},
		}}, Coulomb, ErrNonFinite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildChecked(tc.sys, BuildConfig{LeafCap: 4, Discipline: tc.disc})
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
	// A NaN charge under the Vortex discipline is legal: the field is
	// unused, and validation must not reject data the build ignores.
	sys := &particle.System{Sigma: 1, Particles: []particle.Particle{
		{Pos: vec.V3(0.5, 0.5, 0.5), Alpha: vec.V3(0, 0, 1), Charge: nan},
	}}
	if _, err := BuildChecked(sys, BuildConfig{LeafCap: 4, Discipline: Vortex}); err != nil {
		t.Fatalf("vortex build rejected unused NaN charge: %v", err)
	}
}

// A zero-extent bounding box (every particle at the same point) must
// build a bounded, consistent tree: all keys collapse to one cell,
// which no digit can split, so the build cuts a single leaf instead of
// recursing a chain of single-child cells to full key depth.
func TestZeroExtentDomainBuilds(t *testing.T) {
	const n = 50
	ps := make([]particle.Particle, n)
	for i := range ps {
		ps[i] = particle.Particle{Pos: vec.V3(0.3, 0.3, 0.3), Alpha: vec.V3(0, 0, 1e-2)}
	}
	sys := &particle.System{Sigma: 0.1, Particles: ps}
	tr, err := BuildChecked(sys, BuildConfig{LeafCap: 4, Discipline: Vortex})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckMoments(); err != nil {
		t.Fatal(err)
	}
	root := tr.Nodes[tr.Root]
	if !root.Leaf {
		t.Fatalf("coincident cloud should collapse to a single leaf, depth %d", depth(tr))
	}
	if root.Count != n {
		t.Fatalf("root leaf holds %d of %d particles", root.Count, n)
	}
	// Far-field evaluation on the degenerate tree must stay finite.
	res := tr.vortexAt(int32(tr.Root), vec.V3(1, 1, 1), 0.5, -1, algebraic6Batch(0.1), true)
	if !finiteV(res.U) {
		t.Fatalf("non-finite velocity %v from zero-extent tree", res.U)
	}
}

func TestNewDomainZeroExtent(t *testing.T) {
	d := NewDomain(vec.V3(0.3, 0.3, 0.3), vec.V3(0.3, 0.3, 0.3))
	if !(d.Size > 0) {
		t.Fatalf("zero-extent domain produced size %v", d.Size)
	}
	k := d.Key(vec.V3(0.3, 0.3, 0.3))
	if k2 := d.Key(vec.V3(0.3, 0.3, 0.3)); k2 != k {
		t.Fatalf("key not deterministic: %#x vs %#x", k, k2)
	}
}

// Non-finite coordinates fed straight to Domain.Key (bypassing
// BuildChecked) must clamp deterministically instead of hitting the
// target-dependent float→int conversion of a NaN.
func TestDomainKeyNonFiniteClamps(t *testing.T) {
	d := NewDomain(vec.V3(0, 0, 0), vec.V3(1, 1, 1))
	lo := d.Key(vec.V3(0, 0, 0))
	for _, bad := range []vec.Vec3{
		vec.V3(math.NaN(), 0.5, 0.5),
		vec.V3(0.5, math.NaN(), math.NaN()),
		vec.V3(math.Inf(-1), 0.5, 0.5),
	} {
		k := d.Key(bad)
		ix, iy, iz := MortonDecode(k)
		lx, ly, lz := MortonDecode(lo)
		_ = []uint32{lx, ly, lz}
		max := uint32(1<<KeyBits) - 1
		if ix > max || iy > max || iz > max {
			t.Fatalf("key %#x for %v decodes out of range", k, bad)
		}
	}
	if k := d.Key(vec.V3(math.Inf(1), 0.5, 0.5)); k == 0 {
		// +Inf clamps to the high boundary of x, which is nonzero.
		t.Fatal("+Inf x clamped to the low cell")
	}
}

func TestCheckOrderingDetectsSwappedKeys(t *testing.T) {
	sys := particle.RandomVortexBlob(64, 0.2, 7)
	tr := Build(sys, BuildConfig{LeafCap: 4, Discipline: Vortex})
	if err := tr.CheckOrdering(); err != nil {
		t.Fatal(err)
	}
	// Find two adjacent distinct keys and swap them.
	for i := 1; i < len(tr.Keys); i++ {
		if tr.Keys[i-1] != tr.Keys[i] {
			tr.Keys[i-1], tr.Keys[i] = tr.Keys[i], tr.Keys[i-1]
			err := tr.CheckOrdering()
			if !errors.Is(err, ErrOrdering) {
				t.Fatalf("swapped keys not flagged: %v", err)
			}
			return
		}
	}
	t.Fatal("no distinct adjacent keys to swap")
}

func TestCheckMomentsReadOnly(t *testing.T) {
	sys := particle.RandomVortexBlob(200, 0.2, 17)
	tr := Build(sys, BuildConfig{LeafCap: 4, Discipline: Vortex})
	before := make([]Node, len(tr.Nodes))
	copy(before, tr.Nodes)
	if err := tr.CheckMoments(); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Nodes {
		if !momentsEqual(&tr.Nodes[i], &before[i]) {
			t.Fatalf("CheckMoments mutated node %d", i)
		}
	}
}

func TestCheckMomentsDetectsNaN(t *testing.T) {
	sys := particle.RandomVortexBlob(100, 0.2, 23)
	tr := Build(sys, BuildConfig{LeafCap: 4, Discipline: Vortex})
	tr.Nodes[tr.Root].CircSum.Z = math.NaN()
	if err := tr.CheckMoments(); !errors.Is(err, ErrMoments) {
		t.Fatalf("NaN moment not flagged: %v", err)
	}
}

// retryHook asks for n rebuilds before accepting, recording how many
// attempts it saw.
type retryHook struct {
	retries int
	seen    []int
	fatal   error
}

func (h *retryHook) AfterBuild(t *Tree, attempt int) error {
	h.seen = append(h.seen, attempt)
	if h.fatal != nil {
		return h.fatal
	}
	if attempt < h.retries {
		return ErrRetryBuild
	}
	return nil
}

func TestBuildWithHookRetriesThenEscalates(t *testing.T) {
	sys := particle.RandomVortexBlob(64, 0.2, 31)
	cfg := BuildConfig{LeafCap: 4, Discipline: Vortex}

	h := &retryHook{retries: 3}
	tr := BuildArenaWithHook(h, new(Arena), sys, cfg)
	if tr == nil || len(h.seen) != 4 {
		t.Fatalf("expected 4 attempts (0..3), saw %v", h.seen)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}

	// A non-retry hook error must escalate as a panic carrying the
	// error value itself (the mpi runtime re-wraps rank panics so
	// errors.As still reaches it).
	boom := errors.New("unrecoverable corruption")
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("fatal hook error did not panic")
		}
		err, ok := p.(error)
		if !ok || !errors.Is(err, boom) {
			t.Fatalf("panic value %v does not carry the hook error", p)
		}
	}()
	BuildArenaWithHook(&retryHook{fatal: boom}, new(Arena), sys, cfg)
}
