package report

import (
	"fmt"
	"io"
	"strings"

	"lvmajority/internal/experiment"
)

// designHeader is the static frame of DESIGN.md; only §3 varies with the
// registry. Keeping the prose in the generator (not a hand-edited file) is
// what lets CI regenerate the document and fail on drift.
const designHeader = `<!-- Code generated by "go run ./cmd/report -design DESIGN.md"; DO NOT EDIT.
     The experiment index in §3 is derived from internal/experiment.All();
     CI regenerates this file and fails if it drifts from the registry. -->

# DESIGN — results pipeline and experiment index

This document is generated from the code it describes. §1 explains how a
run becomes a durable artifact, §2 maps the protocol layer the experiments
measure, §3 indexes every registered experiment, §4 records the
reproducibility contract, §5 describes the declarative run API behind
every front-end, §6 lists the custom analyzers that enforce the
invariants mechanically, §7 maps the observability surface — what a
running computation reports and who consumes it — §8 records the
fault-tolerance contract: how the stack degrades when trials panic,
processes die mid-sweep, and disks fail — and §9 describes the
distributed sweep fabric: how a coordinator shards Monte-Carlo windows
across a worker fleet without changing a single byte of any result. The
recorded results themselves live in [EXPERIMENTS.md](EXPERIMENTS.md).

## §1 The results pipeline

Every experiment run flows through one pipeline:

1. ` + "`cmd/experiments`" + ` executes registered experiments
   (` + "`internal/experiment`" + `). Each experiment returns typed-cell
   tables (` + "`experiment.Table`" + `): every cell keeps the Go value the
   experiment reported alongside its rendered string, so downstream
   consumers never have to parse formatted output.
2. With ` + "`-report DIR`" + `, the CLI writes one **run manifest**
   (` + "`internal/report.Manifest`" + `, JSON) per experiment: the tables
   plus full provenance — experiment ID, grid level, seed, resolved worker
   count, wall time, sweep-cache hit/miss counts, and the Go and module
   versions.
3. Renderers derive every human-facing form from the manifest alone:
   aligned ASCII (byte-identical to the CLI's terminal output), CSV
   (byte-identical to ` + "`-csv`" + `), and Markdown (the sections of
   EXPERIMENTS.md). One record, many views — the views cannot disagree.
4. ` + "`cmd/report`" + ` generates the documentation: this file from the
   registry (` + "`-design`" + `) and EXPERIMENTS.md from a manifest
   directory (` + "`-experiments`" + `). The CI ` + "`docs-sync`" + ` job
   regenerates both and fails on any diff.

## §2 Protocols and baselines

The experiments measure the paper's protocols and the related-work
baselines at matched population sizes:

- **Lotka–Volterra majority protocols** (` + "`internal/lv`" + `,
  ` + "`consensus.LVProtocol`" + `): the paper's central objects — two-species
  stochastic competitive LV jump chains under self-destructive (SD) and
  non-self-destructive (NSD) interspecific competition, with optional
  intraspecific competition.
- **Cho et al. model** (δ = 0, SD): the prior-work special case of Table 1
  row 4, run through the same LV machinery.
- **Andaur et al. reconstruction** (` + "`internal/protocols/andaur.go`" + `):
  non-self-destructive interference competition with δ = 0 and bounded,
  non-mass-action growth, modelled as the saturated birth propensity
  min(β·xᵢ, β·ResourceCap). The original couples growth to an explicit
  resource species; the saturated-rate form exercises the same code path
  (sub-mass-action growth + NSD competition) without the unavailable
  original's exact constants. Results for it are comparisons of regimes,
  not of constants.
- **Condon et al. CRNs and population protocols**
  (` + "`internal/protocols`" + `): the §2.2 related-work baselines (single-B,
  double-B, heavy-B, tri-molecular majority, 3-state approximate majority,
  4-state exact majority).
- **Extensions** beyond the paper: k-species plurality
  (` + "`internal/plurality`" + `), synchronous gossip dynamics
  (` + "`internal/gossip`" + `), the Moran process (` + "`internal/moran`" + `),
  a deme-structured spatial model (` + "`internal/spatial`" + `), and an
  exploitative-competition chemostat (` + "`internal/exploit`" + `).

### Population-protocol engines

A population protocol's compiled rule table picks its engine; no setting
does. Both engines sample the same stochastic process and draw a trial
from the same stream in the same order (costs are ns/event on the 3-state
approximate-majority baseline at n = 10⁴, as ratios to the batch loop of
the same run; ` + "`TestLockstepCheaperThanBatch`" + ` fails when the lockstep
engine costs more than 0.829× batch):

| Engine | Rule tables | Cost | RNG-stream semantics |
|---|---|---|---|
| batch (` + "`Trial`" + `) | every table; the only engine of the 4-state exact majority | 1× | One geometric/Bernoulli draw per null run + one weighted draw per effective interaction |
| lockstep blocks | the lockstep shape: four effective off-diagonal pairs, each moving one agent between two states, and ` + "`DoneWhenZero`" + ` rules (3-state approximate majority, ternary signaling) | ~0.10× batch with the AVX-512 tick kernel, which gives a lane up to two ticks per visit, and ~0.24× with the AVX2 one, which gives it one (amd64), ~0.64× on its Go rounds alone (` + "`BenchmarkLockstepBlock`" + `) | Lane i consumes exactly the batch draw sequence of ` + "`rng.NewStream(seed, i)`" + `; with AVX-512 a null-dominated round takes its geometric draw's uniform at once and resolves the logarithms later with ` + "`rng.GeometricBatch`" + `, eight at a time, to the same bits — byte-identical to batch for any lane width or worker count |

The lockstep engine reaches the estimators through a capability
interface: a protocol reporting ` + "`TrialBlockLanes() > 0`" + ` is run in
blocks of at most that width (min(lanes, ⌈window/workers⌉)), and early stopping
still terminates on the same batch boundaries as the scalar path. A
per-event loop (two uniforms per interaction, ~2.2× batch, byte-identical
to the historical event loop) is the test suite's replay oracle for the
distributional tests.

## §3 Experiment index

`

const designFooter = `
## §4 Effort levels and reproducibility

Every experiment runs at two effort levels. The **quick** grids (the
default, and what CI benchmarks) keep each experiment in the
tens-of-seconds range; the **full** grids (` + "`-full`" + `) are the heavier
recorded configurations. The quick-grid record lives in
[EXPERIMENTS.md](EXPERIMENTS.md), generated from the manifests committed
under ` + "`results/manifests/`" + `.

Determinism is a hard contract: replicate i of a run rooted at seed s
draws randomness only from ` + "`rng.NewStream(s, i)`" + `, so every number in
every table is bit-identical regardless of worker count, lane count, and
goroutine scheduling. A manifest therefore pins a result completely: same
seed and grid level, same tables, to the byte.

## §5 The declarative run API

Every workload in this repository is an instance of one shape — a model,
an engine/kernel choice, a task, a grid, a budget, a seed — so it is
described by one serializable ` + "`scenario.Spec`" + ` and executed by one
` + "`scenario.Runner`" + ` (package ` + "`internal/scenario`" + `). A Spec
names a model (` + "`lv`" + ` rate constants, a registered ` + "`protocol`" + `,
or an inline ` + "`crn`" + ` network with its ` + "`crn.Engine`" + `),
a task (` + "`estimate`" + `, ` + "`threshold`" + `, ` + "`sweep`" + `,
` + "`simulate`" + `, ` + "`exact`" + `, ` + "`experiment`" + `,
` + "`report`" + `), and every result-affecting knob — including the probe
cache policy. Parsing is strict (unknown fields are rejected) and the JSON
round trip is lossless, so a spec can never silently mean less than it
says.

The six CLIs are thin front-ends over this API: each parses its flags into
a Spec, prints it with ` + "`-dump-spec`" + `, and replays one with
` + "`-spec`" + ` — any shell invocation is reproducible as data. The same
specs run over HTTP via ` + "`cmd/serve`" + ` (` + "`POST /v1/runs`" + `),
which executes them on a bounded worker queue against one process-wide
probe cache, with per-run cancellation, and returns results embedding the
same run manifests §1 describes. The README's "API surface" section shows
the endpoints and curl examples.

## §6 The determinism lint suite

The contracts of §4 and §5 used to be enforced by convention and by
hand-audit during review. They are now enforced mechanically by five
custom analyzers (` + "`internal/lint`" + `, run by CI as
` + "`go vet -vettool`" + ` through ` + "`cmd/lint`" + ` on every push):

| Analyzer | Invariant guarded | Hand-audit it replaces |
|---|---|---|
| ` + "`detrand`" + ` | Engine packages draw randomness only from replicate-keyed ` + "`rng.NewStream`" + ` streams and never read the wall clock | The PR 2/3 stream-discipline review that made estimates byte-identical across worker and lane counts |
| ` + "`maporder`" + ` | No map iteration feeds an order-sensitive sink (slice append, writer, table row, hash, string) | Per-PR scanning of manifest/table/cache writers for map-order leaks |
| ` + "`interrupt`" + ` | Option literals never drop an available Interrupt or context, so every run stays cancellable | The PR 5 audit that threaded cancellation through all six CLIs and the server |
| ` + "`hotpath`" + ` | ` + "`//lint:hotpath`" + ` regions — the kernel inner loops — contain no allocation-prone constructs | The PR 4/6 benchmark-profile checks behind the 0 allocs/event figures |
| ` + "`speclock`" + ` | Every exported field reachable from ` + "`scenario.Spec`" + ` has an explicit json tag and is exercised by the committed golden spec | The PR 5 schema review keeping strict-JSON round trips lossless |

False positives are suppressed in place with
` + "`//lint:ignore <analyzer> <reason>`" + `; a suppression without a reason
is itself a diagnostic. The README's "Correctness tooling" section shows
how to run the suite locally.

## §7 Observability

Engines report what they are doing through ` + "`internal/progress`" + `
hooks: snapshot events emitted at trial, batch, probe, and phase
boundaries, never inside kernel inner loops. The layer is
observation-only by construction — events carry copies of values the
computation already produced, and the golden manifest test re-runs every
registered experiment with a maximally chatty hook attached, requiring
byte-identical tables — so attaching any consumer below cannot change a
result.

| Signal | Emitted by | Event kinds | Consumed via |
|---|---|---|---|
| Trial completion | ` + "`internal/mc`" + ` pools (scalar and block), stride-sampled from atomic counters | ` + "`trials`" + ` (done/total/wins) | ` + "`-progress`" + ` stderr lines; SSE stream |
| Running estimate | ` + "`internal/mc`" + ` estimators at batch boundaries, cumulative under early stopping | ` + "`estimate`" + ` (Wilson interval) | ` + "`-progress`" + `; SSE stream |
| Probe provenance | ` + "`internal/sweep`" + `, which owns the probe cache | ` + "`probe-start`" + `, ` + "`probe`" + ` (cached/fresh), ` + "`point`" + ` | ` + "`-progress`" + `; SSE stream |
| Task lifecycle | ` + "`scenario.Runner`" + ` (task phases) and ` + "`cmd/serve`" + ` (run states) | ` + "`phase`" + `, ` + "`heartbeat`" + ` | SSE stream (` + "`GET /v1/runs/{id}/events`" + `) |
| Fleet health | ` + "`cmd/serve`" + ` counters plus the ` + "`internal/stats`" + ` mergeable quantile digest | — | Prometheus text (` + "`GET /metrics`" + `): queue, runs by state, cache traffic, run-duration quantiles |

Sinks that need monotone counters (the SSE endpoint, the stderr
renderer) wrap themselves in ` + "`progress.Throttled`" + `, which
serializes, rate-limits, and drops stale snapshots; engines themselves
never take locks or read the wall clock to emit. The README's
"Observability" section shows the consumer commands.

## §8 Fault tolerance

The execution stack fails soft, and the contract is the same at every
layer: a fault may cost time or persistence, **never a wrong result**.
Panics inside Monte-Carlo workers are recovered at the trial boundary
into structured ` + "`mc.TrialPanicError`" + `s (trial index, seed, stack) and
propagate as ordinary failed runs; the sweep probe cache writes
atomically (temp + fsync + rename), checksums itself, quarantines
anything unreadable as ` + "`*.corrupt`" + `, and checkpoints at probe
boundaries so a killed sweep resumes byte-identically; side-channel I/O
retries with deterministic jittered backoff (` + "`internal/ioretry`" + `) and
then degrades to memory-only; specs carry an optional ` + "`timeout`" + `
budget, and every failure is classified (` + "`panic`" + `, ` + "`timeout`" + `,
` + "`interrupted`" + `) in the failed phase event and the server's run
record; ` + "`cmd/serve -journal DIR`" + ` persists live run specs and replays
them on restart — queued runs re-enqueue under their original IDs,
mid-execution runs report ` + "`failed`" + `/` + "`interrupted`" + `.

The proof is deterministic fault injection (` + "`internal/faultpoint`" + `):
production code names the places the real world can fail by calling
` + "`faultpoint.Hit`" + ` at a site (one atomic nil-check when unarmed), and
the chaos suites arm plans that fail exact, reproducible hits. Every
site is pinned by a chaos test, all run under ` + "`-race`" + ` in CI:

| Site | Fires at | Graceful behaviour proven | Pinned by |
|---|---|---|---|
| ` + "`trial-start`" + ` | every replicate/block inside the ` + "`internal/mc`" + ` pools, inside the recover boundary | an engine panic fails only that run, with trial, seed and stack preserved; the server stays healthy and the next run is clean | ` + "`TestChaosTrialStartPanic`" + ` (mc), ` + "`TestChaosRunEnginePanicClassified`" + ` (scenario), ` + "`TestChaosServeEnginePanic`" + ` (serve) |
| ` + "`probe-flush`" + ` | the probe-cache checkpoint at each sweep probe boundary | a process killed mid-sweep resumes from the checkpoint and produces byte-identical thresholds and cache files | ` + "`TestChaosKillResumeByteIdentical`" + ` (sweep) |
| ` + "`cache-read`" + ` | opening a persisted probe cache | unreadable or checksum-failing files are quarantined as ` + "`*.corrupt`" + `; the sweep recomputes from empty, correctly | ` + "`TestChaosCorruptCacheQuarantined`" + `, ` + "`TestChaosReadErrorsStartEmpty`" + ` (sweep) |
| ` + "`cache-write`" + ` | every probe-cache persistence attempt | retried with jittered backoff, then the cache degrades to memory-only — the sweep's results are unaffected and no partial file is left | ` + "`TestChaosWriteErrorsDegradeNotCorrupt`" + ` (sweep) |
| ` + "`journal-write`" + ` | every journal persistence attempt: serve run specs and fleet worker registrations | retried, then logged and dropped; submissions are accepted and complete with correct results, and registrations proceed | ` + "`TestChaosJournalWriteFault`" + ` (serve), ` + "`TestChaosJournalPutFault`" + ` (durable) |
| ` + "`shard-dispatch`" + ` | every fleet shard POST to a worker | the failed worker is evicted and the window reassigned (or run locally); the estimate is byte-identical | ` + "`TestFleetFaultInjection`" + `, ` + "`TestFleetSurvivesWorkerKill`" + ` (fabric) |
| ` + "`shard-result`" + ` | reading a worker's shard response | same eviction/reassignment path as a dispatch fault; a torn result is never summed | ` + "`TestFleetFaultInjection`" + ` (fabric) |
| ` + "`worker-heartbeat`" + ` | every worker lease-renewal attempt | the tick is logged and skipped; a worker whose lease lapses is lazily evicted and its shards rerun | ` + "`TestLeaseExpiry`" + ` (fabric) |

Robustness is observation-only by the same argument as §7: recovery
boundaries, checksums, retries and journals sit outside the seeded
replicate streams, so a run that survives a fault computes exactly what
an unfaulted run computes. The goroutine-leak assertions
(` + "`internal/testutil`" + `) around the server and pool suites close the
loop: failing soft must not leak workers either.

## §9 The distributed sweep fabric

` + "`internal/fabric`" + ` distributes the Monte-Carlo trial windows behind
estimates, threshold searches, and sweeps across a fleet of worker
processes — without changing a single byte of any result. The argument
is the replicate-keyed RNG contract of §4: trial i draws only from
stream i of the run's seed, so a window's win count is an
assignment-independent integer, and integer sums are order-independent.
The coordinator runs the estimator control loop (batching, Wilson
intervals, early stopping) exactly as a local run does and farms out
only window counting; which worker counts which window — one, three, a
skewed assignment, a mid-shard crash and rerun — cannot appear in the
output. ` + "`TestFleetReproducesLocalManifests`" + ` (fabric) pins this
end-to-end: local, 1-worker, and adversarially assigned 3-worker runs
of the committed spec corpus must render byte-identical manifests.

Topology: ` + "`cmd/serve -fleet`" + ` embeds the coordinator in the run
server; ` + "`cmd/worker`" + ` processes register with it, renew leases by
re-registering, and execute shards. ` + "`TestFleetConcurrentCorpus`" + `
(cmd/serve) submits the spec corpus four times over to a 2-worker fleet
before waiting on any run, and checks every run against a plain server.
Registrations are journaled alongside run specs, so a restarted
coordinator re-adopts workers that are still alive. The probe cache is
shared fleet-wide over HTTP (policy ` + "`remote`" + `): content-addressed on
the entries checksum, revalidated with ` + "`If-None-Match`" + ` (the steady
state is a bodiless 304), merged by key on push, and degrading to
memory-only — never to a wrong result — when the server misbehaves (§8).

| Endpoint | Host | Purpose |
|---|---|---|
| ` + "`POST /fabric/v1/workers`" + ` | coordinator | register a worker; re-registering renews the lease |
| ` + "`GET /fabric/v1/workers`" + ` | coordinator | fleet membership and per-worker load |
| ` + "`DELETE /fabric/v1/workers/{id}`" + ` | coordinator | graceful deregistration |
| ` + "`GET /fabric/v1/cache`" + ` | coordinator | fetch the shared probe cache (ETag/If-None-Match) |
| ` + "`POST /fabric/v1/cache`" + ` | coordinator | push locally settled probes; merged by key, idempotent |
| ` + "`POST /fabric/v1/shards`" + ` | worker | count wins in one trial window |
| ` + "`GET /fabric/v1/healthz`" + ` | worker | liveness probe used during journal re-adoption |

A worker that answers 422 reported a deterministic trial failure: the
coordinator surfaces the error instead of rerunning it elsewhere, because
a deterministic failure would burn through the whole fleet. Any other
failure evicts the worker and reassigns the window. Worker trial
progress flows into the §7 event stream under ` + "`worker-<id>`" + ` scopes,
and ` + "`GET /metrics`" + ` gains ` + "`lvmajority_fleet_*`" + ` families: workers
by lease state, in-flight shards, dispatch/local/reassignment/eviction
counters, and remote-cache traffic.
`

// WriteDesign generates DESIGN.md from the experiment registry: the static
// pipeline and protocol sections plus the §3 index derived from exps.
func WriteDesign(w io.Writer, exps []experiment.Experiment) error {
	var b strings.Builder
	b.WriteString(designHeader)
	fmt.Fprintf(&b, "%d registered experiments, in presentation order (`cmd/experiments -list`):\n\n", len(exps))
	b.WriteString("| ID | Title | Artifact | Quick grid | Full grid |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, e := range exps {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
			experiment.EscapeMarkdownCell(e.ID), experiment.EscapeMarkdownCell(e.Title),
			experiment.EscapeMarkdownCell(e.Artifact),
			experiment.EscapeMarkdownCell(e.QuickGrid), experiment.EscapeMarkdownCell(e.FullGrid))
	}
	b.WriteString(designFooter)
	_, err := io.WriteString(w, b.String())
	return err
}

// experimentsHeader frames the generated EXPERIMENTS.md.
const experimentsHeader = `<!-- Code generated by "go run ./cmd/report -experiments EXPERIMENTS.md -manifests results/manifests"; DO NOT EDIT.
     The sections below are rendered from the run manifests committed
     under results/manifests/. -->

# EXPERIMENTS — the recorded results

The quick-grid record of every registered experiment, rendered from the
committed run manifests. Each section's provenance block states everything
needed to reproduce its tables bit-identically: the grid level and seed
(which determine every number), the worker count and wall time
(performance context only — results are worker-count independent), the
sweep-cache hit/miss counts, and the toolchain. The experiment index and
pipeline description live in [DESIGN.md](DESIGN.md).

Regenerate the record with:

    go run ./cmd/experiments -report results/manifests
    go run ./cmd/report -experiments EXPERIMENTS.md -manifests results/manifests

`

// WriteExperiments generates EXPERIMENTS.md from recorded manifests, one
// provenance-headed section per manifest, in the given order (LoadDir
// returns registry presentation order).
func WriteExperiments(w io.Writer, manifests []*Manifest) error {
	if len(manifests) == 0 {
		return fmt.Errorf("report: no manifests to render")
	}
	if _, err := io.WriteString(w, experimentsHeader); err != nil {
		return err
	}
	for _, m := range manifests {
		if err := m.RenderMarkdown(w); err != nil {
			return fmt.Errorf("report: rendering %s: %w", m.ExperimentID, err)
		}
	}
	return nil
}
