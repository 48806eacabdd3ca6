// Package fault builds seeded, reproducible fault plans for chaos
// testing the space-time solver. A Plan implements mpi.FaultPolicy:
// per-message verdicts (drop, delay, payload corruption) are pure
// FNV-1a hashes of (seed, src, dst, tag, seq), so a chaos run is
// bitwise repeatable regardless of goroutine scheduling, and rank
// crashes fire at named integrator phase points ("block", "iter",
// "predictor") rather than at wall-clock instants. This is the
// simulated stand-in for the paper's production regime: at 262,144
// JUGENE cores for hours, component failure is an expected event, not
// an anomaly.
package fault

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/mpi"
)

// Default transport-recovery parameters: a retransmit costs about two
// Blue Gene/P message latencies, and six retries push the residual
// loss probability of a p=0.2 link below 2e-5 per message.
const (
	DefaultMaxRetries   = 6
	DefaultRetryBackoff = 7e-6
)

// Plan is a deterministic fault schedule. The zero value injects
// nothing; construct with Parse or fill the fields directly.
type Plan struct {
	// Seed drives every probabilistic decision.
	Seed int64

	// DropProb is the per-attempt probability that a message (or one
	// of its retransmissions) is dropped by the link.
	DropProb float64
	// MaxRetries bounds the transport's retransmissions per message
	// (0 means DefaultMaxRetries); a message whose every attempt drops
	// is lost permanently.
	MaxRetries int
	// RetryBackoff is the modeled seconds added per retransmission
	// round, doubling each round (0 means DefaultRetryBackoff).
	RetryBackoff float64

	// DelayProb and DelaySeconds inject extra modeled latency.
	DelayProb    float64
	DelaySeconds float64

	// CorruptProb flips a message's payload on the wire. By default
	// the transport's checksum detects it and a clean retransmission
	// is delivered (absorbed, with backoff latency); with LeakCorrupt
	// the torn payload reaches the receiver, exercising the checked
	// decoders.
	CorruptProb float64
	LeakCorrupt bool

	// Crashes lists the rank-death schedule: each entry kills one
	// world rank at an integrator phase point — e.g. ("iter", 1)
	// crashes mid-block at the start of PFASST iteration 1. Repeated
	// crash= keys in a Parse spec append here, so double (and higher)
	// failures — two ranks dying in one block — are expressible.
	Crashes []Crash
}

// Crash is one scheduled rank death at a named phase point.
type Crash struct {
	Rank  int
	Phase string
	Epoch int
}

// New returns an empty plan (no faults) with the given seed.
func New(seed int64) *Plan {
	return &Plan{Seed: seed}
}

// Parse builds a plan from a compact spec string, comma-separated:
//
//	drop=0.05           per-attempt drop probability
//	delay=0.1:50us      delay probability : extra latency (Go duration)
//	corrupt=0.02        corruption probability (transport-absorbed)
//	corrupt=0.02:leak   ... delivered torn instead (tests decoders)
//	crash=1@iter:1      world rank 1 crashes at phase "iter", epoch 1
//	                    (repeatable: each crash= adds one rank death;
//	                    phases: block, iter, predictor)
//	retries=6           transport retransmission bound
//	backoff=7us         retransmission backoff (Go duration)
//
// Durations lie in [0, 1h]. An empty spec yields an empty plan.
// Unknown keys are errors.
func Parse(spec string, seed int64) (*Plan, error) {
	p := New(seed)
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not key=value", part)
		}
		var err error
		switch k {
		case "drop":
			p.DropProb, err = parseProb(v)
		case "delay":
			prob, dur, hasDur := strings.Cut(v, ":")
			p.DelayProb, err = parseProb(prob)
			if err == nil {
				p.DelaySeconds = 5 * DefaultRetryBackoff
				if hasDur {
					p.DelaySeconds, err = parseDelay(dur)
				}
			}
		case "corrupt":
			prob, mode, hasMode := strings.Cut(v, ":")
			p.CorruptProb, err = parseProb(prob)
			if err == nil && hasMode {
				if mode != "leak" {
					err = fmt.Errorf("unknown corrupt mode %q", mode)
				}
				p.LeakCorrupt = true
			}
		case "crash":
			err = p.parseCrash(v)
		case "retries":
			p.MaxRetries, err = strconv.Atoi(v)
		case "backoff":
			p.RetryBackoff, err = parseDelay(v)
		default:
			return nil, fmt.Errorf("fault: unknown key %q (want drop, delay, corrupt, crash, retries, backoff)", k)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: %q: %w", part, err)
		}
	}
	// Normalize so String round-trips exactly: a setting that never
	// applies is not rendered.
	if p.DelayProb == 0 {
		p.DelaySeconds = 0
	}
	if p.CorruptProb == 0 {
		p.LeakCorrupt = false
	}
	return p, nil
}

// parseDelay reads a Go duration in [0, 1h] as seconds. The bound keeps
// the float seconds exact in whole nanoseconds, which String renders.
func parseDelay(s string) (float64, error) {
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 || d > time.Hour {
		return 0, fmt.Errorf("duration %q not in [0, 1h]", s)
	}
	return d.Seconds(), nil
}

// duration renders seconds as the whole-nanosecond Go duration
// parseDelay read them from.
func duration(sec float64) time.Duration {
	return time.Duration(math.Round(sec * float64(time.Second)))
}

func (p *Plan) parseCrash(v string) error {
	rankStr, at, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("crash wants rank@phase:epoch, got %q", v)
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil || rank < 0 {
		return fmt.Errorf("bad crash rank %q", rankStr)
	}
	phase, epochStr, ok := strings.Cut(at, ":")
	if !ok {
		return fmt.Errorf("crash wants rank@phase:epoch, got %q", v)
	}
	if !slices.Contains(crashPhases, phase) {
		return fmt.Errorf("crash phase %q never fires (want %s)", phase, strings.Join(crashPhases, ", "))
	}
	epoch, err := strconv.Atoi(epochStr)
	if err != nil || epoch < 0 {
		return fmt.Errorf("bad crash epoch %q", epochStr)
	}
	p.Crashes = append(p.Crashes, Crash{Rank: rank, Phase: phase, Epoch: epoch})
	return nil
}

// crashPhases are the phase points the solver passes to
// mpi.Comm.FaultPoint: the block boundary (epoch = steps done), the
// PFASST predictor (epoch = block) and each PFASST iteration (epoch =
// iteration index).
var crashPhases = []string{"block", "iter", "predictor"}

// CheckRanks rejects a crash scheduled for a world rank a run of size
// ranks does not have: it could never fire.
func (p *Plan) CheckRanks(size int) error {
	for _, c := range p.Crashes {
		if c.Rank >= size {
			return fmt.Errorf("fault: crash rank %d outside a %d-rank run", c.Rank, size)
		}
	}
	return nil
}

func parseProb(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v >= 0 && v <= 1) { // also rejects NaN
		return 0, fmt.Errorf("probability %q not in [0,1]", s)
	}
	return v, nil
}

// Transient reports whether the plan injects only transient faults
// (no crash): such a plan is absorbed entirely by the transport and
// must leave results bitwise identical to a fault-free run.
func (p *Plan) Transient() bool { return len(p.Crashes) == 0 }

// Empty reports whether the plan injects nothing at all.
func (p *Plan) Empty() bool {
	return p.Transient() && p.DropProb == 0 && p.DelayProb == 0 && p.CorruptProb == 0
}

// maxRetries and backoff apply the defaults.
func (p *Plan) maxRetries() int {
	if p.MaxRetries > 0 {
		return p.MaxRetries
	}
	return DefaultMaxRetries
}

func (p *Plan) backoff() float64 {
	if p.RetryBackoff > 0 {
		return p.RetryBackoff
	}
	return DefaultRetryBackoff
}

// u hashes (seed, src, dst, tag, seq, salt) to a uniform value in
// [0, 1) — FNV-1a over the fixed-width tuple, deterministic across
// runs and independent of call order.
func (p *Plan) u(src, dst, tag int, seq uint64, salt uint64) float64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(p.Seed))
	mix(uint64(int64(src)))
	mix(uint64(int64(dst)))
	mix(uint64(int64(tag)))
	mix(seq)
	mix(salt)
	return float64(h>>11) / float64(1<<53)
}

// Per-decision hash domains.
const (
	saltCorrupt = 1
	saltDelay   = 2
	saltDrop    = 16 // + attempt index
)

// Message implements mpi.FaultPolicy.
func (p *Plan) Message(src, dst, tag int, seq uint64, size int) mpi.FaultVerdict {
	var v mpi.FaultVerdict
	if p.CorruptProb > 0 && p.u(src, dst, tag, seq, saltCorrupt) < p.CorruptProb {
		v.Injected = true
		if p.LeakCorrupt {
			v.CorruptTruncate = true
		} else {
			// The transport checksum catches the corruption and the
			// sender retransmits a clean copy after one backoff round.
			v.Recovered = true
			v.ExtraDelay += p.backoff()
		}
	}
	if p.DelayProb > 0 && p.u(src, dst, tag, seq, saltDelay) < p.DelayProb {
		v.Injected = true
		v.ExtraDelay += p.DelaySeconds
	}
	if p.DropProb > 0 {
		// Attempt 0 is the original transmission; each dropped attempt
		// doubles the backoff of the next. All attempts dropped ⇒ the
		// message is lost permanently.
		retries := p.maxRetries()
		dropped := 0
		for a := 0; a <= retries; a++ {
			if p.u(src, dst, tag, seq, saltDrop+uint64(a)) >= p.DropProb {
				break
			}
			dropped++
		}
		if dropped > 0 {
			v.Injected = true
			if dropped > retries {
				v.Lost = true
			} else {
				v.Recovered = true
				// Geometric backoff: b + 2b + ... + 2^(d-1) b.
				v.ExtraDelay += p.backoff() * float64((uint64(1)<<uint(dropped))-1)
			}
		}
	}
	return v
}

// CrashAt implements mpi.FaultPolicy.
func (p *Plan) CrashAt(rank int, phase string, epoch int) bool {
	for _, c := range p.Crashes {
		if rank == c.Rank && phase == c.Phase && epoch == c.Epoch {
			return true
		}
	}
	return false
}

// String renders the plan in Parse's spec syntax (diagnostics and
// BENCH_PR3.json records).
func (p *Plan) String() string {
	var parts []string
	if p.DropProb > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.DropProb))
	}
	if p.DelayProb > 0 {
		parts = append(parts, fmt.Sprintf("delay=%g:%s", p.DelayProb, duration(p.DelaySeconds)))
	}
	if p.CorruptProb > 0 {
		s := fmt.Sprintf("corrupt=%g", p.CorruptProb)
		if p.LeakCorrupt {
			s += ":leak"
		}
		parts = append(parts, s)
	}
	for _, c := range p.Crashes {
		parts = append(parts, fmt.Sprintf("crash=%d@%s:%d", c.Rank, c.Phase, c.Epoch))
	}
	if p.MaxRetries != 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", p.MaxRetries))
	}
	if p.RetryBackoff != 0 {
		parts = append(parts, fmt.Sprintf("backoff=%s", duration(p.RetryBackoff)))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

var _ mpi.FaultPolicy = (*Plan)(nil)
