package pfasst

import (
	"repro/internal/telemetry"
)

// Telemetry names of the PFASST layer. Counters accumulate over all
// blocks of a run; the gauges hold the most recent block's convergence
// measures (merge across ranks with gauge-max = worst slice).
const (
	CounterFineSweeps   = "pfasst.fine_sweeps"
	CounterCoarseSweeps = "pfasst.coarse_sweeps"
	CounterIterations   = "pfasst.iterations"
	CounterBlocks       = "pfasst.blocks"

	GaugeResidual = "pfasst.residual"
	GaugeIterDiff = "pfasst.iter_diff"

	PhasePredictor = "pfasst.predictor"
	PhaseIteration = "pfasst.iteration"

	// Resilient-path counters: degraded_blocks counts blocks executed
	// at reduced parallelism (after a shrink, or a tail on fewer slices),
	// block_restarts counts aborted-and-redone block attempts, shrinks
	// counts communicator contractions after rank deaths.
	CounterDegradedBlocks = "fault.degraded_blocks"
	CounterBlockRestarts  = "pfasst.block_restarts"
	CounterShrinks        = "pfasst.shrinks"
)

// probe holds the pre-resolved metric handles of one time rank; all
// fields are nil (no-op) without a registry.
type probe struct {
	fineSweeps, coarseSweeps, iters, blocks *telemetry.Counter
	degraded, restarts, shrinks             *telemetry.Counter

	residual, iterDiff *telemetry.Gauge

	predictor, iteration *telemetry.Timer
}

func newProbe(reg *telemetry.Registry) probe {
	return probe{
		fineSweeps:   reg.Counter(CounterFineSweeps),
		coarseSweeps: reg.Counter(CounterCoarseSweeps),
		iters:        reg.Counter(CounterIterations),
		blocks:       reg.Counter(CounterBlocks),
		degraded:     reg.Counter(CounterDegradedBlocks),
		restarts:     reg.Counter(CounterBlockRestarts),
		shrinks:      reg.Counter(CounterShrinks),
		residual:     reg.Gauge(GaugeResidual),
		iterDiff:     reg.Gauge(GaugeIterDiff),
		predictor:    reg.Timer(PhasePredictor),
		iteration:    reg.Timer(PhaseIteration),
	}
}
