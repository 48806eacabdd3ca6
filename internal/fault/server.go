package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// ServerPlan is the job daemon's seeded chaos plan: a deterministic
// adversity schedule for the SERVER layer, complementing the transport
// Plan (rank-level drops/crashes inside one solve). Every verdict is a
// pure FNV-1a hash of (seed, job sequence, domain), so a chaos test
// replays bit-identically: the same seed crashes the same jobs at the
// same block boundaries, corrupts the same checkpoints, and kills the
// same drain.
//
// Spec grammar (comma-separated key=value):
//
//	slow=P:D      delay each submitted request body by D (Go duration)
//	              with probability P — the slow-client attack
//	cancel=P      cancel a running job mid-run (at a hashed block
//	              boundary) with probability P
//	crash=P       crash the worker of a job's FIRST attempt at a hashed
//	              block boundary with probability P (retries run clean,
//	              so recovery always converges)
//	corrupt=P     corrupt the job's checkpoint before a retry resumes
//	              from it, with probability P
//	killdrain=1   abort the next drain partway through, simulating
//	              SIGKILL before the graceful shutdown completes
//
// Example: "slow=0.3:2ms,cancel=0.2,crash=0.5,corrupt=0.25,killdrain=1".
type ServerPlan struct {
	// Seed drives every hashed verdict.
	Seed int64
	// SlowProb and SlowDelay configure slow-client submissions.
	SlowProb  float64
	SlowDelay time.Duration
	// CancelProb is the per-job mid-run cancellation probability.
	CancelProb float64
	// CrashProb is the per-job first-attempt worker-crash probability.
	CrashProb float64
	// CorruptProb is the per-retry checkpoint-corruption probability.
	CorruptProb float64
	// KillDrain aborts the next drain partway through.
	KillDrain bool
}

// ErrWorkerCrash is the cancel cause of an injected worker crash: the
// server's retry classifier treats it as retryable, exactly like a
// real Agree-abort from the space-time grid loop.
var ErrWorkerCrash = errors.New("fault: injected worker crash")

// ParseServer builds a ServerPlan from a spec string (see the type
// comment for the grammar). An empty spec returns nil — no chaos.
func ParseServer(spec string, seed int64) (*ServerPlan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	p := &ServerPlan{Seed: seed}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, found := strings.Cut(part, "=")
		if !found {
			return nil, fmt.Errorf("fault: server spec %q: missing '=' in %q", spec, part)
		}
		prob := func(s string) (float64, error) {
			v, err := parseProb(s)
			if err != nil {
				return 0, fmt.Errorf("fault: server spec %q: %w", spec, err)
			}
			return v, nil
		}
		var err error
		switch key {
		case "slow":
			ps, ds, found := strings.Cut(val, ":")
			if !found {
				return nil, fmt.Errorf("fault: server spec %q: slow wants P:D, got %q", spec, val)
			}
			if p.SlowProb, err = prob(ps); err != nil {
				return nil, err
			}
			if p.SlowDelay, err = time.ParseDuration(ds); err != nil || p.SlowDelay < 0 {
				return nil, fmt.Errorf("fault: server spec %q: bad slow delay %q", spec, ds)
			}
		case "cancel":
			if p.CancelProb, err = prob(val); err != nil {
				return nil, err
			}
		case "crash":
			if p.CrashProb, err = prob(val); err != nil {
				return nil, err
			}
		case "corrupt":
			if p.CorruptProb, err = prob(val); err != nil {
				return nil, err
			}
		case "killdrain":
			if val != "1" && val != "0" {
				return nil, fmt.Errorf("fault: server spec %q: killdrain wants 0 or 1, got %q", spec, val)
			}
			p.KillDrain = val == "1"
		default:
			return nil, fmt.Errorf("fault: server spec %q: unknown key %q", spec, key)
		}
	}
	if p.SlowProb == 0 {
		p.SlowDelay = 0 // a delay that never applies; String omits it
	}
	return p, nil
}

// Server-plan hash domains, disjoint from the transport (1–31) and
// memory (32–33) salts.
const (
	saltSrvSlow        = 48
	saltSrvCancel      = 49
	saltSrvCancelBlock = 50
	saltSrvCrash       = 51
	saltSrvCrashBlock  = 52
	saltSrvCorrupt     = 53
)

// srvHash mirrors Plan.u for the server domains: FNV-1a over
// (seed, job, extra, salt), uniform in [0, 1).
func srvHash(seed int64, job, extra, salt uint64) float64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(seed))
	mix(job)
	mix(extra)
	mix(salt)
	return float64(h>>11) / float64(1<<53)
}

// Empty reports whether the plan injects nothing. Nil-safe.
func (p *ServerPlan) Empty() bool {
	return p == nil || (p.SlowProb <= 0 && p.CancelProb <= 0 && p.CrashProb <= 0 &&
		p.CorruptProb <= 0 && !p.KillDrain)
}

// SlowSubmit decides whether the job-seq-th submission is a slow
// client, and by how much to stall it. Nil-safe.
func (p *ServerPlan) SlowSubmit(job uint64) (time.Duration, bool) {
	if p == nil || p.SlowProb <= 0 {
		return 0, false
	}
	if srvHash(p.Seed, job, 0, saltSrvSlow) < p.SlowProb {
		return p.SlowDelay, true
	}
	return 0, false
}

// CancelAt decides whether the job is canceled mid-run and at which
// block boundary (in [0, blocks)). Nil-safe.
func (p *ServerPlan) CancelAt(job uint64, blocks int) (int, bool) {
	if p == nil || p.CancelProb <= 0 || blocks < 1 {
		return 0, false
	}
	if srvHash(p.Seed, job, 0, saltSrvCancel) >= p.CancelProb {
		return 0, false
	}
	b := int(srvHash(p.Seed, job, 0, saltSrvCancelBlock) * float64(blocks))
	if b >= blocks {
		b = blocks - 1
	}
	return b, true
}

// CrashAt decides whether the job's worker crashes and at which block
// boundary. Only attempt 0 ever crashes — the retry runs clean — so an
// injected crash always converges within one retry. The block is drawn
// from [1, blocks) when possible, so at least one block commits before
// the crash and the retry exercises a real checkpoint resume. Nil-safe.
func (p *ServerPlan) CrashAt(job uint64, attempt, blocks int) (int, bool) {
	if p == nil || p.CrashProb <= 0 || attempt != 0 || blocks < 1 {
		return 0, false
	}
	if srvHash(p.Seed, job, 0, saltSrvCrash) >= p.CrashProb {
		return 0, false
	}
	if blocks == 1 {
		return 0, true
	}
	b := 1 + int(srvHash(p.Seed, job, 0, saltSrvCrashBlock)*float64(blocks-1))
	if b >= blocks {
		b = blocks - 1
	}
	return b, true
}

// CorruptCheckpoint decides whether the job's checkpoint is damaged
// before attempt (≥ 1) resumes from it. Nil-safe.
func (p *ServerPlan) CorruptCheckpoint(job uint64, attempt int) bool {
	if p == nil || p.CorruptProb <= 0 || attempt < 1 {
		return false
	}
	return srvHash(p.Seed, job, uint64(attempt), saltSrvCorrupt) < p.CorruptProb
}

// KillDuringDrain reports whether the next drain is to be aborted
// partway (the simulated SIGKILL). Nil-safe.
func (p *ServerPlan) KillDuringDrain() bool {
	return p != nil && p.KillDrain
}

// String renders the plan in spec-grammar form (sorted keys).
func (p *ServerPlan) String() string {
	if p.Empty() {
		return "server:empty"
	}
	var parts []string
	if p.SlowProb > 0 {
		parts = append(parts, fmt.Sprintf("slow=%g:%s", p.SlowProb, p.SlowDelay))
	}
	if p.CancelProb > 0 {
		parts = append(parts, fmt.Sprintf("cancel=%g", p.CancelProb))
	}
	if p.CrashProb > 0 {
		parts = append(parts, fmt.Sprintf("crash=%g", p.CrashProb))
	}
	if p.CorruptProb > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%g", p.CorruptProb))
	}
	if p.KillDrain {
		parts = append(parts, "killdrain=1")
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
