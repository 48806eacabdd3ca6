package hot

import (
	"repro/internal/telemetry"
)

// Telemetry names of the parallel tree code. The four phase timers
// mirror the per-phase columns of the paper's Fig. 5 timing tables;
// the counters are the diagnostic set of Valdarnini's and Dubinski's
// treecode performance studies (interactions per rank, MAC balance,
// communication volume, load imbalance).
const (
	PhaseDecomp   = "hot.decomp"          // domain decomposition (sort + alltoall)
	PhaseBuild    = "hot.tree_build"      // local tree construction
	PhaseBranch   = "hot.branch_exchange" // branch allgather + shared top tree + prefetch
	PhaseTraverse = "hot.traverse"        // tree traversal (no communication)

	CounterEvals        = "hot.evals"
	CounterInteractions = "hot.interactions"
	CounterMACAccepts   = "hot.mac_accepts"
	CounterMACRejects   = "hot.mac_rejects"
	CounterP2P          = "hot.p2p"
	// CounterPrefetched counts the remote cells the branch exchange
	// resolved: the size of the locally essential tree below the
	// branches.
	CounterPrefetched = "hot.prefetched"
	// CounterSteals counts successful work-stealing operations of the
	// traversal workers' scheduler (zero with one worker). Deliberately
	// NOT part of the determinism regression: the steal count depends
	// on OS scheduling, the results do not.
	CounterSteals = "hot.steals"
	// CounterKept counts the particles the decomposition left on their
	// rank, copied into the local system without a message; CounterRouted
	// those it sent to another rank. Their sum is the global particle
	// count per evaluation.
	CounterKept   = "hot.kept"
	CounterRouted = "hot.routed"

	GaugeNLocal        = "hot.nlocal"
	GaugeBranchesTotal = "hot.branches_total"
	GaugeImbalance     = "hot.work_imbalance"

	// TimerWorkerBusy accumulates per-worker busy seconds of the
	// traversal scheduler (one observation per worker per evaluation);
	// Max/mean of its spans is the residual node-level imbalance.
	TimerWorkerBusy = "hot.worker_busy"
)

// probe holds the solver's pre-resolved metric handles. With a nil
// registry every handle is nil and each record call is a no-op — the
// zero-allocation disabled path.
type probe struct {
	decomp, build, branch, traverse *telemetry.Timer
	workerBusy                      *telemetry.Timer

	evals, interactions, macAccepts, macRejects, p2p, prefetched, steals, kept, routed *telemetry.Counter

	nlocal, branchesTotal, imbalance *telemetry.Gauge
}

func newProbe(reg *telemetry.Registry) probe {
	return probe{
		decomp:        reg.Timer(PhaseDecomp),
		build:         reg.Timer(PhaseBuild),
		branch:        reg.Timer(PhaseBranch),
		traverse:      reg.Timer(PhaseTraverse),
		workerBusy:    reg.Timer(TimerWorkerBusy).WithoutPprofLabel(),
		evals:         reg.Counter(CounterEvals),
		interactions:  reg.Counter(CounterInteractions),
		macAccepts:    reg.Counter(CounterMACAccepts),
		macRejects:    reg.Counter(CounterMACRejects),
		p2p:           reg.Counter(CounterP2P),
		prefetched:    reg.Counter(CounterPrefetched),
		steals:        reg.Counter(CounterSteals),
		kept:          reg.Counter(CounterKept),
		routed:        reg.Counter(CounterRouted),
		nlocal:        reg.Gauge(GaugeNLocal),
		branchesTotal: reg.Gauge(GaugeBranchesTotal),
		imbalance:     reg.Gauge(GaugeImbalance),
	}
}

// record publishes the per-evaluation statistics. The phase timers are
// recorded separately (at phase boundaries inside run).
func (pb *probe) record(st *Stats) {
	pb.evals.Inc()
	pb.interactions.Add(st.Interactions)
	pb.macAccepts.Add(st.MACAccepts)
	pb.macRejects.Add(st.MACRejects)
	pb.p2p.Add(st.Interactions - st.MACAccepts)
	pb.prefetched.Add(st.Prefetched)
	pb.steals.Add(st.Steals)
	pb.kept.Add(int64(st.Kept))
	pb.routed.Add(int64(st.Routed))
	pb.nlocal.Set(float64(st.NLocal))
	pb.branchesTotal.Set(float64(st.TotalBranches))
	pb.imbalance.Set(st.WorkImbalance)
}
