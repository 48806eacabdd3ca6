#!/bin/sh
# CI entry point: vet, doc-comment presence, build, full test suite,
# the same suite under the race detector, and a one-iteration benchmark
# smoke lane. The solver runs dozens of goroutine ranks per test, so
# the race lane is the gate that matters — run this before every merge.
set -eux

go vet ./...

# Lint lane: the repo's own invariant analyzers, the five rules with a
# recorded in-tree catch — determinism and hookcost (syntactic),
# locksafe, collective and allocfree (CFG + dataflow + call graph) —
# plus the driver's directive check (a //lint:ignore that names no
# rule or suppresses nothing is a finding). allocfree covers the
# //lint:hotpath closures in hot, kernel and tree (the Eval paths:
# hot's decompose, graft, traverse and routeResults, and the tree
# evaluators) and in pfasst and sdc (runBlock, the PFASST block body,
# which TestRunBlockAllocatesNothing checks at PT = 1, 2 and 4), and
# follows their calls into mpi (the collectives and the float64
# messages they send; Split, Shrink, ShrinkTo, Agree, the deadline
# receive and the failure diagnostics are //lint:coldpath). Exit status 1 on any
# finding is the gate: the tree carries zero unsuppressed findings.
# The -json snapshot is kept and re-checked at the end of the script:
# the report must be byte-identical no matter what ran in between —
# the lint verdict may not depend on lane order or prior test runs.
go run ./cmd/nbodylint ./...
lint_snapshot=$(mktemp)
go run ./cmd/nbodylint -json ./... >"$lint_snapshot"

# Every library package must carry a package doc comment (godoc
# presence gate); main packages are exempt from the "// Package" form.
missing=$(go list -f '{{.Name}} {{.ImportPath}} {{.Dir}}' ./... | while read -r name pkg dir; do
  [ "$name" = main ] && continue
  grep -q '^// Package ' "$dir"/*.go || echo "$pkg"
done)
if [ -n "$missing" ]; then
  echo "packages missing a package doc comment:" >&2
  echo "$missing" >&2
  exit 1
fi

go build ./...
go test ./...
go test -race ./...

# Benchmark smoke lane: one iteration each, just to keep the benchmark
# drivers compiling and running (BenchmarkEvalList and
# BenchmarkEvalCoulomb run the tree's tile walk in both disciplines).
go test -bench . -benchtime 1x -run '^$' ./...

# Layout lane: the façade suite once more, uncached (every tree build
# gathers SoA lanes, so the façade's serial, space-parallel and
# space-time runs all evaluate through them), plus an allocation smoke
# over BenchmarkLayoutEvalSoA — the tree's hot path must be
# allocation-free in steady state (0 allocs/op, averaged over the
# benchtime iterations).
go test -count=1 .
alloc_out=$(mktemp)
go test -bench 'BenchmarkLayoutEval' -benchtime 20x -benchmem -run '^$' . | tee "$alloc_out"
grep -E 'BenchmarkLayoutEvalSoA.*[^0-9]0 allocs/op' "$alloc_out" >/dev/null || {
  echo "SoA hot path is not allocation-free in steady state" >&2
  exit 1
}
# Second allocation smoke: warm collective hot.Solver.Eval calls on
# four ranks with the default exchange (N = 2000 sheet; B/op and
# allocs/op are the whole world's per evaluation, ranks share one
# heap). The arena holds what hot builds, and mpi lends the blocks of
# its allgathers and alltoalls, reduces in place and recycles its
# float64 message buffers, so nothing is allocated per evaluation.
# The benchmark runs 100 untimed evaluations first, past the runtime
# refilling its caches of wait-queue entries and the mailboxes and free
# list regrowing after the GC the harness runs before timing; without
# them that fixed 10–17 KB per timed run was what this gate measured.
# 400 timed evaluations then read 0–13 B/op and 0 allocs/op over 13
# runs: now and then a few KB still grow once in a timed run (a
# mailbox or the free list at a new in-flight peak, bounded by the
# world's size, not by the number of evaluations). An allocation per
# evaluation reads at least 1 allocs/op. The same benchmark measured
# 41 KB/op and 192 allocs/op while mpi encoded and copied its
# messages, 1.12 MB/op with the copying Alltoall and the on-demand
# fetches, and 9.06 MB/op at 24e9cfc, the commit before the arena. The
# B/op ceiling is the largest figure measured × 1.3.
go test -bench 'BenchmarkHOTEval4Ranks' -benchtime 400x -benchmem -run '^$' ./internal/hot/ | tee "$alloc_out"
awk '/^BenchmarkHOTEval4Ranks/ { for (i = 2; i <= NF; i++) {
       if ($i == "B/op") { seen++; if ($(i-1) + 0 > 17) over = 1 }
       if ($i == "allocs/op") { seen++; if ($(i-1) + 0 > 0) over = 1 } } }
     END { exit (seen == 2 && !over) ? 0 : 1 }' "$alloc_out" || {
  echo "a warm hot.Solver.Eval allocates more than 17 B or any object per evaluation on four ranks" >&2
  exit 1
}
rm -f "$alloc_out"

# Kernel fuzz smoke: what is bitwise about a range (== its lanes fed in
# order as single pairs, == itself cut at any lane, velocity loop ==
# gradient loop's velocity) plus the oracle bound on every pair, over
# random tails, denormal circulations and coincident sources; the
# eight-target stream == its per-lane scalar legs, bitwise, through
# every body the CPU offers (AVX-512, AVX2 by halves, Go), over mixed
# leaf and cell items (with dipoles, runs past the stream's capacity),
# lane masks, absolute per-lane skips, edge separations, NaN/Inf inputs
# and non-zero starting sums, with the lanes outside every mask
# untouched; the Coulomb
# range within 1 ulp of its scalar reference over random softenings.
go test -run '^$' -fuzz FuzzBatchGradRange -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz FuzzGradTile -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz FuzzBatchCoulombRange -fuzztime 10s ./internal/kernel/

# Fallback lane: the Go body stays the definition. Under the purego tag
# the stream runs as the scalar legs lane by lane, and the
# cross-commit pins (façade hashes, tile walk == recursive for both
# disciplines, hot at PS = 1 == tree.Solver) must hold through it as
# they hold through the assembly bodies. The arm64
# vet is a cross-build with no emulator: the non-amd64 build compiles
# and vets clean (asmdecl checks the amd64 frame in the plain vet
# above).
go test -count=1 -tags purego ./internal/kernel/ ./internal/tree/ ./internal/hot/ ./internal/direct/ .
GOARCH=arm64 go vet ./internal/kernel/ ./internal/tree/ ./internal/direct/ ./internal/hot/

# Tree and transport fuzz smoke: Morton key encode/decode over the full
# coordinate range; the tile walk == the per-particle walk, bitwise with
# equal counters, over blob size, θ, LeafCap and the discipline (vortex,
# or Coulomb with a drawn softening ε); and the mpi float64 and int64
# payload decode (bit-exact round trip, misaligned buffers rejected).
# The Bruck rounds post block lists, not frames, so there is no frame
# decoder to fuzz; their torn round is a row of the chaos lane's
# TestTornTypedPayloadsFailTyped.
go test -run '^$' -fuzz FuzzMortonRoundTrip -fuzztime 10s ./internal/tree/
go test -run '^$' -fuzz FuzzTileWalk -fuzztime 10s ./internal/tree/
go test -run '^$' -fuzz FuzzFloat64Codec -fuzztime 10s ./internal/mpi/

# Chaos lane: the fault-injection and resilience suites once more under
# the race detector, -count=1 so cached passes don't mask flakiness in
# the recovery protocol. Time-bounded by -timeout rather than test count.
# The façade names matched here include the PS>1 grid sweep (gridchaos
# _test.go): spatial shrink, slice loss, column loss + checkpoint
# restore, the guard×crash interleaving on 2×2 and 4×2 grids, and the
# tail block (TestFacadeCrashTail*: bitwise equal to resuming the
# pre-tail manifest, and a guarded redo of a flip in the tail).
# ./internal/core/ holds the grid loop's own suites beside the loop
# (the PT×1 block-attempt tests, the PT-shrink on 4×2, and `Deadline`:
# the one loop's deadline link against its plain link on 4×1, 2×2 and
# 4×2); the guard ladder's rows (scrub, sticky abort, block redo) are
# core's `Guard` tests in the guard lane below. No ./internal/pfasst/
# test matches either lane: `go test -list '<regex>' ./internal/pfasst/`
# prints none for this lane's regex or the guard lane's (the `Levels`
# term selected TestPFASSTThreeLevels until the N-level hierarchy went).
# The package stays listed so a resilience or guard test added there
# runs here. ./internal/mpi/'s `Torn` rows (TestTornTypedPayloadsFailTyped)
# tear every message of one collective or float64 receive each — both
# allreduces, BcastFloat64s, a Bruck round, AllgatherFloat64s, Split and
# the three RecvFloat64s forms — and require ErrTornPayload, no deadlock.
# ./internal/hot/ is listed for `Torn`: TestTornBlocksFailTyped
# tears one received block of each decoder of an evaluation (samples,
# route, box, branch list, prefetch frames, results) and requires the
# typed ErrTornPayload comm failure; internal/core's
# TestTornRouteBlockRetriesOrFailsTyped runs the same tear through the
# grid loop's retry.
# TestFacadeGridCrashMidAttempt carries the `Threads: 2` row: traversal
# workers across a mid-attempt crash, bitwise equal to `Threads: 1`.
# `Cancel` is TestFacadeCancelAtBlockBoundary: cancellation through
# the grid loop's one block-boundary callback, on both links. `Deadlock`
# re-runs the deadlock detector's tests (every rank blocked, a dead
# rank, the diagnostics, a death while all survivors wait), whose
# timing the receive's poll-then-park wait rule changes. `Agree`
# includes TestAgreeFreesSlots: 1,000 agreements on a 4-rank world,
# one member dying before it posts, and no agreement slot left after.
go test -race -count=1 -timeout 10m \
  -run 'Chaos|Resilien|Crash|HardLoss|Leak|Deadline|Deadlock|Shrink|Agree|Torn|Levels|Fault|Cancel' \
  ./internal/fault/ ./internal/mpi/ ./internal/checkpoint/ ./internal/pfasst/ ./internal/core/ ./internal/hot/ .

# Checkpoint fuzz smoke: a few seconds of mutated NBLV headers against
# the checked reader — corruption must surface as errors, never panics.
go test -run '^$' -fuzz FuzzReadLevels -fuzztime 10s ./internal/checkpoint/
# Same contract for the v3 grid manifest (sharded PS>1 checkpoints):
# mutated NBLM bytes must fail closed — error, never panic, never a
# silently wrong restore.
go test -run '^$' -fuzz FuzzGridManifest -fuzztime 10s ./internal/checkpoint/

# Guard lane: bit-flip chaos — seeded memory-fault injection, invariant
# monitors, ABFT tree checks, and the recovery ladder — once more under
# the race detector with -count=1 (the ladder's redo/rollback paths are
# the concurrency-sensitive part worth re-randomizing every run).
go test -race -count=1 -timeout 10m \
  -run 'Guard|Scrub|Flip|Sticky|Moments|Ordering|Degenerate|ZeroExtent|Coincident|NaN|Resume|Checkpoint' \
  ./internal/guard/ ./internal/fault/ ./internal/tree/ ./internal/kernel/ ./internal/pfasst/ ./internal/core/ .

# Memory-fault-plan fuzz smoke: mutated mem-plan specs against the
# parser — malformed specs must surface as errors, never panics.
go test -run '^$' -fuzz FuzzParseMem -fuzztime 10s ./internal/fault/
# Same for the transport and server grammars, plus the round trip:
# every accepted non-empty plan re-parses from its String form to an
# equal plan (a NaN probability is accepted but renders as nothing).
go test -run '^$' -fuzz 'FuzzParse$' -fuzztime 10s ./internal/fault/

# Server lane: build the job daemon, run the server, scheduler and
# chaos suites once more under the race detector with -count=1 (the
# drain/restart bitwise property, the goroutine-leak guard and the
# kill-during-drain recovery are the concurrency-sensitive parts), and
# lint the new packages explicitly.
daemon_bin=$(mktemp)
go build -o "$daemon_bin" ./cmd/nbodyd
rm -f "$daemon_bin"
go test -race -count=1 -timeout 15m ./internal/server/ ./internal/sched/
# The admission bound (a job leaves the queue only with a worker slot)
# used to fail these two on a 2-core host; five reruns keep it fixed.
go test -race -count=5 -run 'FullQueue|ShedOldest' ./internal/server/
go run ./cmd/nbodylint ./internal/server/ ./internal/sched/ ./cmd/nbodyd/

# Job-spec and journal fuzz smoke: mutated specs and journal images
# against the admission parser and the journal replayer — typed
# errors, never panics; valid journals must re-encode byte-identically.
go test -run '^$' -fuzz FuzzJobSpec -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz FuzzJournal -fuzztime 10s ./internal/server/

# Scaling lane: the joint space-time study at lane scale under the race
# detector — Fig5Executed's runs up to 8 ranks in both allgathers of the
# branch exchange (same prefetch set), the executed 8-rank PSxPT grid
# (Fig5XTGrid) and BenchPR7Model's modeled grid up to 4096 ranks,
# asserting the Fig. 5 x Fig. 8 crossover shape: beyond spatial
# saturation the best PT>1 layout beats space-only, and the batched
# exchange beats the ring.
go test -race -count=1 -timeout 10m -run 'ScalingLane' .

# Docs gate: the handbooks are executable documentation — every
# `go run ./cmd/experiments ...` command they quote must parse (-list
# validates -fig/-exp and exits before running anything). The check
# of ignored flags runs before -list exits, so a quoted command whose
# flag its selection would not read (-xt-out without fig5-xt, -threads
# or -balance without phases, -paper without 7a/7b/8) fails too. A trailing
# `# comment` is stripped first: left in, the bare `#` argument would
# end flag parsing before -list and the experiment would run.
grep -ohE 'go run \./cmd/experiments[^`]*' SCALING.md README.md EXPERIMENTS.md PERFORMANCE.md |
  sed 's/[[:space:]]*#.*$//' | sort -u | while read -r cmd; do
  $cmd -list >/dev/null
done

# Lint-infrastructure fuzz smoke: the ignore-directive parser (a
# malformed directive must suppress nothing), the -json emitter (the
# engine-versioned report: always valid JSON, never a panic, findings
# never null), and the v2 CFG builder (any parseable
# function body: no panic, every statement in exactly one block,
# Preds mirror Succs).
go test -run '^$' -fuzz FuzzParseIgnoreDirective -fuzztime 10s ./internal/analysis/
go test -run '^$' -fuzz FuzzEmitJSONReport -fuzztime 10s ./internal/analysis/
go test -run '^$' -fuzz FuzzCFGBuild -fuzztime 10s ./internal/analysis/

# Lint order-independence: rerunning the analyzers after the race,
# chaos and guard lanes must reproduce the snapshot taken at the top
# byte for byte.
go run ./cmd/nbodylint -json ./... | cmp - "$lint_snapshot"
rm -f "$lint_snapshot"
