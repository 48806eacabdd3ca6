package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// MemDomain names a class of in-memory float64 words eligible for
// bit-flip injection. Injection sites pass their domain so a single
// plan can target particle state, tree moments and block results
// independently.
type MemDomain int

const (
	// MemState is the packed particle state held between PFASST blocks
	// (the at-rest window between block commit and next use).
	MemState MemDomain = iota
	// MemTree is the multipole moment data of a freshly built tree.
	MemTree
	// MemBlock is a freshly computed block-end state, before the
	// invariant monitors inspect it.
	MemBlock

	numMemDomains
)

var memDomainNames = [numMemDomains]string{"state", "tree", "block"}

func (d MemDomain) String() string {
	if d < 0 || d >= numMemDomains {
		return fmt.Sprintf("domain(%d)", int(d))
	}
	return memDomainNames[d]
}

// Default bit window: the exponent and sign bits of an IEEE-754
// float64. Flips there change a value's magnitude by at least a factor
// of two (or its sign), the regime the invariant monitors are
// calibrated for; the checksum and ABFT detectors catch any bit, so
// tests widen the window to 0-63 when exercising them.
const (
	DefaultLoBit = 52
	DefaultHiBit = 63
)

// MemPlan is a deterministic schedule of memory bit flips, the
// silent-data-corruption counterpart of Plan's transport faults. Every
// verdict is an FNV-1a hash of (seed, domain, epoch, attempt, index),
// so a chaos run replays bitwise regardless of goroutine scheduling,
// and — because the hash excludes the rank — state that is replicated
// across time ranks receives identical flips everywhere, keeping
// collective control flow in lockstep. The zero value injects nothing.
type MemPlan struct {
	// Seed drives every flip decision.
	Seed int64
	// Rate is the per-word flip probability at each injection
	// opportunity.
	Rate float64
	// Domains enables injection per memory domain. Parse defaults to
	// state+tree (the domains whose detectors are exact); block is
	// opt-in.
	Domains [numMemDomains]bool
	// Sticky drops the attempt number from the hash: a flipped word
	// flips again after every recovery attempt, driving the escalation
	// ladder to its typed-abort rung. The default (transient) model
	// re-flips nothing, so a single recompute or rollback converges.
	Sticky bool
	// LoBit and HiBit bound the flipped bit (inclusive); both zero
	// means the DefaultLoBit-DefaultHiBit exponent/sign window.
	LoBit, HiBit int
}

// NewMem returns an empty memory plan (no flips) with the given seed.
func NewMem(seed int64) *MemPlan { return &MemPlan{Seed: seed} }

// ParseMem builds a memory fault plan from a compact spec string,
// comma-separated:
//
//	rate=5e-4            per-word flip probability per opportunity
//	in=state+tree+block  injected domains (default state+tree)
//	bits=52-63           inclusive bit window (default 52-63)
//	sticky               flips persist across recovery attempts
//
// An empty spec yields an empty plan. Unknown keys are errors.
func ParseMem(spec string, seed int64) (*MemPlan, error) {
	m := NewMem(seed)
	if strings.TrimSpace(spec) == "" {
		return m, nil
	}
	domainsSet := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "sticky" {
			m.Sticky = true
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not key=value", part)
		}
		var err error
		switch k {
		case "rate":
			m.Rate, err = parseProb(v)
		case "in":
			domainsSet = true
			err = m.parseDomains(v)
		case "bits":
			err = m.parseBits(v)
		default:
			return nil, fmt.Errorf("fault: unknown key %q (want rate, in, bits, sticky)", k)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: %q: %w", part, err)
		}
	}
	if !domainsSet {
		m.Domains[MemState] = true
		m.Domains[MemTree] = true
	}
	// Normalize so String round-trips exactly.
	m.LoBit, m.HiBit = m.loBit(), m.hiBit()
	return m, nil
}

func (m *MemPlan) parseDomains(v string) error {
	for _, name := range strings.Split(v, "+") {
		found := false
		for d, dn := range memDomainNames {
			if name == dn {
				m.Domains[d] = true
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown domain %q (want state, tree, block)", name)
		}
	}
	return nil
}

func (m *MemPlan) parseBits(v string) error {
	loStr, hiStr, ok := strings.Cut(v, "-")
	if !ok {
		return fmt.Errorf("bits wants lo-hi, got %q", v)
	}
	lo, err1 := strconv.Atoi(loStr)
	hi, err2 := strconv.Atoi(hiStr)
	if err1 != nil || err2 != nil || lo < 0 || hi > 63 || lo > hi || hi == 0 {
		return fmt.Errorf("bad bit window %q (want lo-hi within 0-63, hi >= 1)", v)
	}
	m.LoBit, m.HiBit = lo, hi
	return nil
}

// Empty reports whether the plan injects nothing at all.
func (m *MemPlan) Empty() bool { return m == nil || m.Rate <= 0 }

// Enabled reports whether the plan injects into the given domain.
func (m *MemPlan) Enabled(d MemDomain) bool {
	return m != nil && m.Rate > 0 && d >= 0 && d < numMemDomains && m.Domains[d]
}

func (m *MemPlan) loBit() int {
	if m.LoBit == 0 && m.HiBit == 0 {
		return DefaultLoBit
	}
	return m.LoBit
}

func (m *MemPlan) hiBit() int {
	if m.LoBit == 0 && m.HiBit == 0 {
		return DefaultHiBit
	}
	return m.HiBit
}

// Per-decision hash domains, disjoint from the transport plan's salts.
const (
	saltMemFlip = 32
	saltMemBit  = 33
)

func memHash(seed int64, dom MemDomain, epoch uint64, attempt uint64, index int, salt uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(seed))
	mix(uint64(int64(dom)))
	mix(epoch)
	mix(attempt)
	mix(uint64(int64(index)))
	mix(salt)
	return h
}

// Flip decides whether word index of the given domain is flipped at
// (epoch, attempt), and if so which bit. The verdict is a pure hash:
// deterministic, schedule-independent, identical on every rank. Under
// the default transient model the attempt number is part of the hash,
// so a retried computation sees a clean word; with Sticky the flip
// recurs on every attempt.
func (m *MemPlan) Flip(dom MemDomain, epoch uint64, attempt int, index int) (bit uint, ok bool) {
	if !m.Enabled(dom) {
		return 0, false
	}
	att := uint64(attempt)
	if m.Sticky {
		att = 0
	}
	h := memHash(m.Seed, dom, epoch, att, index, saltMemFlip)
	if float64(h>>11)/float64(1<<53) >= m.Rate {
		return 0, false
	}
	hb := memHash(m.Seed, dom, epoch, att, index, saltMemBit)
	span := uint64(m.hiBit() - m.loBit() + 1)
	return uint(m.loBit()) + uint(hb%span), true
}

// FlipWords applies the plan to words, flipping each selected word in
// place, and returns the number of flips injected.
func (m *MemPlan) FlipWords(dom MemDomain, epoch uint64, attempt int, words []float64) int {
	if !m.Enabled(dom) {
		return 0
	}
	flips := 0
	for i := range words {
		if bit, ok := m.Flip(dom, epoch, attempt, i); ok {
			words[i] = FlipBit(words[i], bit)
			flips++
		}
	}
	return flips
}

// FlipBit returns x with the given IEEE-754 bit inverted.
func FlipBit(x float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ (uint64(1) << bit))
}

// String renders the plan in ParseMem's spec syntax.
func (m *MemPlan) String() string {
	if m.Empty() {
		return "none"
	}
	var doms []string
	for d, on := range m.Domains {
		if on {
			doms = append(doms, memDomainNames[d])
		}
	}
	s := fmt.Sprintf("rate=%g,in=%s,bits=%d-%d", m.Rate, strings.Join(doms, "+"), m.loBit(), m.hiBit())
	if m.Sticky {
		s += ",sticky"
	}
	return s
}
