package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	nbody "repro"
	"repro/internal/fault"
)

// Validation bounds of the admission layer. The daemon shares one
// process with every solve it runs, so specs are capped well below
// anything that could wedge the host: the limits are generous for the
// reproduction's workloads and tight against abuse.
const (
	maxTenantLen = 32
	maxParticles = 200000
	maxRanks     = 64
	maxSteps     = 4096
	maxRetryCap  = 10
)

// ErrBadSpec is the sentinel of admission-time spec rejections: the
// submitted JSON is malformed, names an unknown field or system kind,
// or violates a validation bound. Match with errors.Is; the wrapped
// message names the offending field.
var ErrBadSpec = errors.New("server: bad job spec")

// SystemSpec selects the initial particle ensemble of a job.
type SystemSpec struct {
	// Kind names a façade builder: "vortex" (the paper's sheet),
	// "scaled" (absolute-σ sheet), "coulomb" (homogeneous plasma) or
	// "blob" (normally distributed vortex cloud).
	Kind string `json:"kind"`
	// N is the particle count, in [1, 200000].
	N int `json:"n"`
	// Seed feeds the seeded builders (coulomb, blob).
	Seed int64 `json:"seed,omitempty"`
	// Sigma is the blob core size (blob only; must be positive there).
	Sigma float64 `json:"sigma,omitempty"`
}

// JobSpec is the wire form of one solver job: which system to build,
// the time interval and space-time grid to run it on, and the job's
// service envelope (tenant, deadline, retry budget, chaos plan).
// Decoding is strict — unknown fields are rejected — and Validate
// enforces the admission bounds before a spec reaches the queue.
type JobSpec struct {
	// Tenant is the submitting tenant's identifier, lowercase
	// [a-z0-9_], at most 32 bytes. Quotas and per-tenant metrics key
	// on it.
	Tenant string `json:"tenant"`
	// System selects the initial condition.
	System SystemSpec `json:"system"`
	// T0, T1 bound the integration interval (T1 > T0, both finite).
	T0 float64 `json:"t0"`
	T1 float64 `json:"t1"`
	// Steps is the total time step count; must be a positive multiple
	// of PT (whole PFASST blocks), at most 4096.
	Steps int `json:"steps"`
	// PT and PS shape the space-time grid; PT·PS ≤ 64 ranks.
	PT int `json:"pt"`
	PS int `json:"ps"`
	// Iterations, CoarseSweeps, ThetaFine, ThetaCoarse and Tol
	// override the PFASST(2,2,·) defaults when positive.
	Iterations   int     `json:"iterations,omitempty"`
	CoarseSweeps int     `json:"coarse_sweeps,omitempty"`
	ThetaFine    float64 `json:"theta_fine,omitempty"`
	ThetaCoarse  float64 `json:"theta_coarse,omitempty"`
	Tol          float64 `json:"tol,omitempty"`
	// DeadlineMS bounds the job's total wall time across all attempts,
	// in milliseconds; 0 inherits the daemon default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxRetries bounds retries of retryable (Agree-abort, injected
	// crash) failures, in [0, 10]; -1 inherits the daemon default. An
	// omitted field parses as -1, so the canonical encoding always
	// writes the field: with omitempty an explicit 0 would be dropped
	// and read back from the journal as -1.
	MaxRetries int `json:"max_retries"`
	// FaultPlan and FaultSeed inject rank-level transport faults into
	// the solve itself (fault.Parse grammar); empty injects nothing.
	FaultPlan string `json:"fault_plan,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
}

// ParseJobSpec strictly decodes and validates a JSON job spec. Every
// rejection wraps ErrBadSpec.
func ParseJobSpec(data []byte) (*JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	spec := &JobSpec{MaxRetries: -1}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after the spec object", ErrBadSpec)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Validate enforces the admission bounds; every failure wraps
// ErrBadSpec and names the offending field.
func (s *JobSpec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
	}
	if len(s.Tenant) == 0 || len(s.Tenant) > maxTenantLen {
		return bad("tenant %q length outside [1, %d]", s.Tenant, maxTenantLen)
	}
	for i := 0; i < len(s.Tenant); i++ {
		c := s.Tenant[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return bad("tenant %q: byte %d outside [a-z0-9_]", s.Tenant, i)
		}
	}
	switch s.System.Kind {
	case "vortex", "scaled", "coulomb":
	case "blob":
		if !(s.System.Sigma > 0) || math.IsInf(s.System.Sigma, 0) {
			return bad("blob sigma %v not positive finite", s.System.Sigma)
		}
	default:
		return bad("unknown system kind %q", s.System.Kind)
	}
	if s.System.N < 1 || s.System.N > maxParticles {
		return bad("n %d outside [1, %d]", s.System.N, maxParticles)
	}
	if s.PT < 1 || s.PS < 1 || s.PT*s.PS > maxRanks {
		return bad("grid %dx%d outside 1..%d ranks", s.PT, s.PS, maxRanks)
	}
	if s.Steps < 1 || s.Steps > maxSteps || s.Steps%s.PT != 0 {
		return bad("steps %d not a multiple of pt %d in [1, %d]", s.Steps, s.PT, maxSteps)
	}
	if math.IsNaN(s.T0) || math.IsInf(s.T0, 0) || math.IsNaN(s.T1) || math.IsInf(s.T1, 0) || !(s.T1 > s.T0) {
		return bad("interval [%v, %v] not finite increasing", s.T0, s.T1)
	}
	if s.Iterations < 0 || s.Iterations > 16 || s.CoarseSweeps < 0 || s.CoarseSweeps > 16 {
		return bad("iterations %d / coarse_sweeps %d outside [0, 16]", s.Iterations, s.CoarseSweeps)
	}
	for _, th := range []struct {
		name string
		v    float64
	}{{"theta_fine", s.ThetaFine}, {"theta_coarse", s.ThetaCoarse}} {
		if th.v < 0 || th.v > 1 || math.IsNaN(th.v) {
			return bad("%s %v outside [0, 1]", th.name, th.v)
		}
	}
	if s.Tol < 0 || math.IsNaN(s.Tol) || math.IsInf(s.Tol, 0) {
		return bad("tol %v negative or not finite", s.Tol)
	}
	if s.DeadlineMS < 0 {
		return bad("deadline_ms %d negative", s.DeadlineMS)
	}
	if s.MaxRetries < -1 || s.MaxRetries > maxRetryCap {
		return bad("max_retries %d outside [-1, %d]", s.MaxRetries, maxRetryCap)
	}
	plan, err := fault.Parse(s.FaultPlan, s.FaultSeed)
	if err == nil {
		err = plan.CheckRanks(s.PT * s.PS)
	}
	if err != nil {
		return bad("fault_plan: %v", err)
	}
	return nil
}

// Canonical returns the spec's canonical JSON encoding — the byte
// string journaled at submit and replayed on restart. encoding/json
// emits struct fields in declaration order, so the encoding is
// deterministic.
func (s *JobSpec) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A validated spec of plain scalar fields cannot fail to
		// encode; treat it as programmer error.
		panic(fmt.Sprintf("server: canonical encode: %v", err))
	}
	return b
}

// Blocks returns the job's PFASST block count (steps / PT).
func (s *JobSpec) Blocks() int { return s.Steps / s.PT }

// Deadline resolves the job's total wall-time budget against the
// daemon default; 0 means unbounded.
func (s *JobSpec) Deadline(def time.Duration) time.Duration {
	if s.DeadlineMS > 0 {
		return time.Duration(s.DeadlineMS) * time.Millisecond
	}
	return def
}

// RetryBudget resolves the job's retry budget against the daemon
// default.
func (s *JobSpec) RetryBudget(def int) int {
	if s.MaxRetries >= 0 {
		return s.MaxRetries
	}
	if def < 0 {
		return 0
	}
	return def
}

// BuildSystem constructs the job's initial particle ensemble.
func (s *JobSpec) BuildSystem() (*nbody.System, error) {
	switch s.System.Kind {
	case "vortex":
		return nbody.VortexSheet(s.System.N), nil
	case "scaled":
		return nbody.ScaledVortexSheet(s.System.N), nil
	case "coulomb":
		return nbody.CoulombCloud(s.System.N, s.System.Seed), nil
	case "blob":
		return nbody.RandomBlob(s.System.N, s.System.Sigma, s.System.Seed), nil
	}
	return nil, fmt.Errorf("%w: unknown system kind %q", ErrBadSpec, s.System.Kind)
}

// SolverConfig materializes the solver configuration for one attempt:
// the paper's PFASST(2,2,·) defaults overridden by the spec, with
// resilient stepping, checkpointing and resume forced on — the
// daemon's crash-safety contract requires every job to leave a
// consistent resume point at each committed block.
func (s *JobSpec) SolverConfig(ckptDir string) nbody.SpaceTimeConfig {
	cfg := nbody.DefaultSpaceTime(s.PT, s.PS)
	if s.Iterations > 0 {
		cfg.Iterations = s.Iterations
	}
	if s.CoarseSweeps > 0 {
		cfg.CoarseSweeps = s.CoarseSweeps
	}
	if s.ThetaFine > 0 {
		cfg.ThetaFine = s.ThetaFine
	}
	if s.ThetaCoarse > 0 {
		cfg.ThetaCoarse = s.ThetaCoarse
	}
	if s.Tol > 0 {
		cfg.Tol = s.Tol
	}
	cfg.Resilience = nbody.ResilienceConfig{
		RecvTimeout:   nbody.DefaultRecvTimeout,
		FaultPlan:     s.FaultPlan,
		FaultSeed:     s.FaultSeed,
		CheckpointDir: ckptDir,
		Resume:        true,
	}
	return cfg
}
