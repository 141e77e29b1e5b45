//! The memory planner: compile `(Net, DeviceSpec, Policy)` into a static
//! [`MemoryPlan`] — fast enough to sit on every hot path.
//!
//! SuperNeurons is architecturally a *planning* system — liveness windows,
//! cost-aware recomputation segments, offload/prefetch points and workspace
//! choices are all derivable from the `(net, policy, device)` triple before
//! the first kernel runs. This module performs that derivation once, ahead
//! of time: it walks the route with the same decision logic the executor
//! used to interleave with execution (the Alg. 2 Tensor Cache, the
//! reclamation ladder, eager offload, prefetch-ahead, §3.4 segment replay,
//! §3.5 dynamic workspaces), driving a *real* allocator and the tiered host
//! pools — but no timeline — and records every residency mutation as an
//! explicit [`PlanOp`].
//!
//! Since PR 3, compilation **is** the workhorse of the whole system:
//! cluster admission ladders, `session::feasible` binary searches and the
//! framework comparisons are compile-only. The planner is therefore built
//! for throughput, on three levels:
//!
//! * **Hot structures** — allocations go through the indexed
//!   `sn_mempool::HeapPool` (O(log n) first-fit, O(1) largest-fragment) and
//!   cache decisions through the O(1) intrusive LRU in [`crate::utp`]; the
//!   walk itself allocates nothing per step (scratch buffers are reused,
//!   tensor lists are borrowed from the liveness plan, error-path layer
//!   names are only materialized on error).
//! * **Analysis sharing** — `Route`, `NetCost`, `LivenessPlan` and
//!   `RecomputePlan` depend only on `(net, liveness options, recompute
//!   mode)`, not on the device; they are cached by [`Net::fingerprint`] and
//!   shared via `Arc` across the policy ladder and across devices.
//! * **Plan memo** — [`compile_memo`] caches whole compilations under a
//!   `(net fingerprint, policy, device)` key and returns a shared
//!   `Arc<CompiledPlan>`; admission ladders and feasibility searches that
//!   re-ask the same question get the answer back in hash-lookup time
//!   (OOM outcomes are memoized too). Both caches are
//!   [`crate::memo::Memo`]s; [`plan_memo_stats`] exposes the plan memo's
//!   hit/miss counters and [`clear_plan_memo`] empties it (bench support).
//!
//! None of this changes a single planned byte: the `plan` bench experiment
//! still asserts plan peaks equal executed peaks across the preset × model
//! matrix, and the `compile` experiment asserts the optimized planner's
//! plans are byte-identical to the retained reference implementation
//! ([`compile_reference`]: linear-scan pool + `Vec` cache list).
//!
//! The result of a compile is a cheap, inspectable, reusable artifact:
//!
//! * [`MemoryPlan::peak_bytes`] is the **exact** peak the execution will hit
//!   — the executor replays the identical alloc/free sequence through an
//!   identical allocator, so the high-water mark is equal *by construction*.
//!   Cluster admission reserves this number without ever running a
//!   simulated iteration.
//! * [`MemoryPlan::steps`] is a complete instruction stream — the executor
//!   is an interpreter over it, and [`MemoryPlan::render`] prints the
//!   on-disk debug format (one line per op) for inspection.
//! * [`MemoryPlan::lifetimes`] summarizes per-tensor residency: creation,
//!   death, whether the plan offloads or recomputes it.
//!
//! Training plans cover one `2N`-step iteration; **inference plans**
//! (compiled from [`Route::construct_inference`]) are forward-only: no
//! gradients exist, every output is freed at its last forward reader, and
//! nothing is eagerly offloaded (there is no backward to fetch it back for).

use std::sync::Arc;

use sn_graph::liveness::{LivenessOptions, LivenessPlan, TensorId, TensorRole};
use sn_graph::{LayerId, Net, NetCost, Route, StepPhase};
use sn_sim::{AllocGrant, DeviceAllocator, DeviceSpec, SimTime, SpecKey};

use crate::convalgo::{self, AlgoChoice};
use crate::device::Device;
use crate::executor::{Counters, ExecError};
use crate::memo::Memo;
pub use crate::memo::MemoStats;
use crate::policy::{Policy, RecomputeMode, WorkspacePolicy};
use crate::recompute::{RecomputePlan, SegmentStrategy};
use crate::tiers::Tier;
use crate::utp::{Residence, Utp};

/// One residency instruction. A step's ops execute strictly in order: `pre`
/// ops before the kernel, `post` ops after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Materialize tensor `t` on device (fresh allocation).
    Alloc(TensorId),
    /// Allocate device memory for `t` and copy it in from its host slot
    /// (H2D; consumers gate on the transfer).
    Fetch(TensorId),
    /// Start a device→host copy-out of `t`: `evict: true` is an Alg. 2
    /// cache eviction (release as soon as the copy lands), `false` an eager
    /// checkpoint offload (release once all forward consumers ran).
    Offload { t: TensorId, evict: bool },
    /// Release the device copy of `t` (awaiting its in-flight copy-out
    /// first); the host copy, if any, becomes the residence.
    ReleaseDevice(TensorId),
    /// Fully free `t`: device grant, host slot, any in-flight transfer.
    Free(TensorId),
    /// Replay `layer`'s forward as part of a §3.4 recomputation segment.
    Recompute(LayerId),
    /// Allocate the step's convolution workspace (exactly these bytes).
    AllocWorkspace(u64),
    /// Allocate the step's transient buffer (weight gradient / fwd mask).
    AllocTransient(u64),
    /// Release the step's workspace + transient buffer.
    FreeTransients,
    /// Launch gradient bucket `bucket` (`bytes` of weight gradients) on the
    /// device group's ring — a [`crate::group::GroupPlan`] schedule entry.
    /// Never present in a single-device plan's op stream: per-replica plans
    /// stay byte-identical to their single-device compilation, and the
    /// group interpreter schedules collectives *around* the replica stream
    /// (they draw on the separately-accounted comm workspace, not the heap
    /// pool). The op exists so the rendered plan format covers collectives
    /// — `GroupPlan::render` interleaves these lines at their gating steps.
    Collective { bucket: u32, bytes: u64 },
}

/// The workspace decision for one CONV step (Fig. 12's record).
#[derive(Debug, Clone, Copy)]
pub struct WorkspacePlan {
    pub bytes: u64,
    pub max_speed_bytes: u64,
    pub algo: &'static str,
    pub speedup: f64,
}

/// Half-open index range into the plan's flat op stream
/// ([`MemoryPlan::ops`]). Steps reference their ops by range instead of
/// owning per-step vectors: one plan is one allocation's worth of ops, and
/// [`StepPlan`] stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpRange {
    pub start: u32,
    pub end: u32,
}

impl OpRange {
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The compiled schedule of one step.
#[derive(Debug, Clone, Copy)]
pub struct StepPlan {
    pub layer: LayerId,
    pub phase: StepPhase,
    /// Kernel duration (with the chosen conv algorithm's speed factor).
    pub duration: SimTime,
    /// Residency ops before the kernel (input staging, evictions, replays,
    /// workspace/transient allocation), as a range of [`MemoryPlan::ops`].
    pub pre: OpRange,
    /// Residency ops after the kernel (transient release, eager offload,
    /// prefetch-ahead, liveness frees, recompute cleanup).
    pub post: OpRange,
    /// CONV steps only: the dynamic workspace choice.
    pub workspace: Option<WorkspacePlan>,
}

/// Per-tensor residency summary (the serializable lifetime table).
#[derive(Debug, Clone, Copy)]
pub struct TensorLifetime {
    pub tensor: TensorId,
    pub layer: LayerId,
    pub role: TensorRole,
    pub bytes: u64,
    /// Step at which the tensor is materialized.
    pub created_step: usize,
    /// Step after which the plan frees it.
    pub freed_after: usize,
    /// The plan moves this tensor to an external tier at least once.
    pub offloaded: bool,
    /// Forward replays of the owning layer the plan schedules.
    pub recomputes: u32,
}

/// The static memory plan: per-step actions, the exact predicted peak, and
/// per-tensor residency lifetimes.
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    pub steps: Vec<StepPlan>,
    /// The flat op stream, in execution order (`pre(0) post(0) pre(1) …
    /// final`); steps and `final_range` index into it.
    pub ops: Vec<PlanOp>,
    /// End-of-iteration ops (trailing offloads whose device copies release
    /// once every consumer has run).
    pub final_range: OpRange,
    /// Exact peak device bytes the execution will hit (allocator
    /// high-water over the planned alloc/free sequence, weights included).
    pub peak_bytes: u64,
    /// Step at which the peak occurs.
    pub peak_step: usize,
    /// Resident weight bytes (the plan's first allocation).
    pub weight_bytes: u64,
    /// Per-iteration counter totals the execution will report.
    pub predicted: Counters,
    pub lifetimes: Vec<TensorLifetime>,
    /// Forward-only serving plan (no backward half, no gradients)?
    pub inference: bool,
    /// Analytic busy totals per engine, for the iteration-time estimate.
    pub compute_ns: u64,
    pub alloc_ns: u64,
    pub h2d_ns: u64,
    pub d2h_ns: u64,
    /// Every DMA serializes against the host under this policy.
    pub serialized: bool,
}

impl MemoryPlan {
    /// Total op count (diagnostic).
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// The ops of a range.
    pub fn ops_in(&self, r: OpRange) -> &[PlanOp] {
        &self.ops[r.start as usize..r.end as usize]
    }

    /// Pre-kernel ops of step `s`.
    pub fn pre_ops(&self, s: usize) -> &[PlanOp] {
        self.ops_in(self.steps[s].pre)
    }

    /// Post-kernel ops of step `s`.
    pub fn post_ops(&self, s: usize) -> &[PlanOp] {
        self.ops_in(self.steps[s].post)
    }

    /// End-of-iteration ops.
    pub fn final_ops(&self) -> &[PlanOp] {
        self.ops_in(self.final_range)
    }

    /// Analytic iteration-time estimate: the busiest engine bounds the
    /// makespan (compute serializes with allocator calls on the host
    /// thread; DMA engines run concurrently unless the policy serializes
    /// them). A pacing estimate for schedulers — the executor's measured
    /// [`crate::IterationReport::iter_time`] is the ground truth.
    pub fn iter_time_estimate(&self) -> SimTime {
        let host = self.compute_ns + self.alloc_ns;
        let ns = if self.serialized {
            host + self.h2d_ns + self.d2h_ns
        } else {
            host.max(self.h2d_ns).max(self.d2h_ns)
        };
        SimTime::from_ns(ns)
    }

    /// One op in the on-disk debug format (shared with `GroupPlan::render`,
    /// which interleaves `Collective` lines at their gating steps). This
    /// vocabulary is round-trip-stable: tests diff rendered plans across
    /// implementations and PRs.
    pub(crate) fn op_str(op: &PlanOp) -> String {
        match op {
            PlanOp::Alloc(t) => format!("alloc t{}", t.0),
            PlanOp::Fetch(t) => format!("fetch t{}", t.0),
            PlanOp::Offload { t, evict: true } => format!("evict-offload t{}", t.0),
            PlanOp::Offload { t, evict: false } => format!("offload t{}", t.0),
            PlanOp::ReleaseDevice(t) => format!("release t{}", t.0),
            PlanOp::Free(t) => format!("free t{}", t.0),
            PlanOp::Recompute(l) => format!("recompute L{}", l.0),
            PlanOp::AllocWorkspace(b) => format!("ws+{b}"),
            PlanOp::AllocTransient(b) => format!("tr+{b}"),
            PlanOp::FreeTransients => "tr-".into(),
            PlanOp::Collective { bucket, bytes } => format!("allreduce b{bucket}:{bytes}"),
        }
    }

    /// The on-disk debug format: a line per step with its ops, then the
    /// peak/lifetime summary. Stable enough to diff across PRs.
    pub fn render(&self, net: &Net) -> String {
        let op_str = Self::op_str;
        let mut out = format!(
            "MemoryPlan[{}] {} steps, {} ops, peak {} bytes @step {}, weights {}\n",
            if self.inference {
                "inference"
            } else {
                "training"
            },
            self.steps.len(),
            self.n_ops(),
            self.peak_bytes,
            self.peak_step,
            self.weight_bytes,
        );
        for (s, sp) in self.steps.iter().enumerate() {
            let ops: Vec<String> = self
                .ops_in(sp.pre)
                .iter()
                .map(op_str)
                .chain(std::iter::once("KERNEL".to_string()))
                .chain(self.ops_in(sp.post).iter().map(op_str))
                .collect();
            out.push_str(&format!(
                "  {s:>5} {} {:<12} {}{}\n",
                match sp.phase {
                    StepPhase::Forward => "F",
                    StepPhase::Backward => "B",
                },
                net.layer(sp.layer).name,
                sp.workspace
                    .map(|w| format!("[{} ws={}] ", w.algo, w.bytes))
                    .unwrap_or_default(),
                ops.join(" "),
            ));
        }
        if !self.final_range.is_empty() {
            let ops: Vec<String> = self.final_ops().iter().map(op_str).collect();
            out.push_str(&format!("  final {}\n", ops.join(" ")));
        }
        out
    }
}

/// Everything a compilation produces: the graph-derived inputs (route,
/// costs, liveness, recomputation segments) plus the [`MemoryPlan`] built
/// from them. Every field is `Arc`-shared — the analyses because they
/// depend only on the net and a few policy bits (one copy serves a whole
/// admission ladder), the plan so that cloning a `CompiledPlan` (e.g. one
/// interpreter per device-group replica) never copies the op stream.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    pub route: Arc<Route>,
    pub cost: Arc<NetCost>,
    pub liveness: Arc<LivenessPlan>,
    pub rplan: Arc<RecomputePlan>,
    pub plan: Arc<MemoryPlan>,
}

// ---------------------------------------------------------------------
// Analysis cache: (fingerprint, liveness options, recompute mode) →
// shared route/cost/liveness/recompute-plan bundle.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Analyses {
    route: Arc<Route>,
    cost: Arc<NetCost>,
    liveness: Arc<LivenessPlan>,
    rplan: Arc<RecomputePlan>,
    /// Per-layer max-speed conv algorithm choice (Fig. 12's "MAX Speed WS"
    /// series) — a pure function of the net, recomputed per CONV step
    /// before this cache existed.
    max_algo: Arc<Vec<AlgoChoice>>,
}

type AnalysisKey = ((u64, u64), bool, LivenessOptions, RecomputeMode);

/// Capped at 512 bundles: the set of distinct nets in any one process is
/// small, the cap only guards against unbounded growth.
static ANALYSIS_CACHE: Memo<AnalysisKey, Analyses> = Memo::new(512);

/// The planner-facing inputs derived from the graph alone. `effective_*`
/// mirror [`compile`]'s inference adjustments, so the cache key is exactly
/// what the analyses depend on.
fn analyses_for(net: &Net, policy: Policy, inference: bool) -> Analyses {
    let options = effective_liveness_options(policy, inference);
    let rmode = effective_recompute_mode(policy, inference);
    let key = (net.fingerprint(), inference, options, rmode);
    ANALYSIS_CACHE
        .get_or_insert_with(key, || build_analyses(net, options, rmode, inference))
        .0
}

fn build_analyses(
    net: &Net,
    options: LivenessOptions,
    rmode: RecomputeMode,
    inference: bool,
) -> Analyses {
    let route = if inference {
        Route::construct_inference(net)
    } else {
        Route::construct(net)
    };
    // Costs at the options' precision: activation/gradient tensors and the
    // all-reduce payload scale by dtype, master weights stay fp32.
    let cost = NetCost::with_precision(net, options.precision);
    let liveness = LivenessPlan::analyze(net, &route, options);
    let rplan = RecomputePlan::build(net, &route, &cost, rmode);
    let max_algo = net
        .layers()
        .iter()
        .map(|l| convalgo::max_speed_algo(net, l.id))
        .collect();
    Analyses {
        route: Arc::new(route),
        cost: Arc::new(cost),
        liveness: Arc::new(liveness),
        rplan: Arc::new(rplan),
        max_algo: Arc::new(max_algo),
    }
}

fn effective_liveness_options(policy: Policy, inference: bool) -> LivenessOptions {
    if inference {
        // Forward-only: recompute-aware lifetime shortening is meaningless
        // (nothing lives past its forward readers to begin with).
        LivenessOptions {
            recompute_non_checkpoints: false,
            ..policy.liveness_options()
        }
    } else {
        policy.liveness_options()
    }
}

fn effective_recompute_mode(policy: Policy, inference: bool) -> RecomputeMode {
    if inference {
        RecomputeMode::None
    } else {
        policy.recompute
    }
}

// ---------------------------------------------------------------------
// The plan memo: (fingerprint, policy, device) → Arc<CompiledPlan>.
// ---------------------------------------------------------------------

/// Everything a compilation's outcome depends on, including the whole
/// device spec and so its **cap**: the planner adapts evictions and
/// workspaces to `dram_bytes`, so a plan compiled for one cap must never be
/// served for another.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    fp: (u64, u64),
    inference: bool,
    policy: Policy,
    spec: SpecKey,
}

impl PlanKey {
    pub(crate) fn new(net: &Net, spec: &DeviceSpec, policy: Policy, inference: bool) -> PlanKey {
        PlanKey {
            fp: net.fingerprint(),
            inference,
            policy,
            spec: spec.key(),
        }
    }
}

/// Capped at 4096 entries: a runaway sweep over thousands of distinct nets
/// must not pin every plan it ever compiled. Counts on the registry as
/// `plan.memo.{hit,miss}`.
static PLAN_MEMO: Memo<PlanKey, Result<Arc<CompiledPlan>, ExecError>> =
    Memo::named(4096, "plan.memo");

/// Hit/miss/entry counts of the plan memo; hits and misses are cumulative
/// since process start.
pub fn plan_memo_stats() -> MemoStats {
    PLAN_MEMO.stats()
}

/// Drop every memoized plan; the shared analysis bundles stay warm and the
/// hit/miss counts keep counting. Benchmark support (measuring a memo-cold,
/// analyses-warm compile — the steady-state admission regime) — never
/// needed for correctness.
pub fn clear_plan_memo() {
    PLAN_MEMO.clear();
}

/// [`clear_plan_memo`] plus the shared analysis cache: the next compile of
/// any net pays the full route/cost/liveness/recompute derivation again —
/// the first-contact cold state.
pub fn clear_all_caches() {
    clear_plan_memo();
    ANALYSIS_CACHE.clear();
}

/// One plan-memo lookup, compiling on a miss; the flag is `true` on a hit.
/// Callers that report memo effectiveness count this flag.
pub(crate) fn lookup(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
    inference: bool,
) -> (Result<Arc<CompiledPlan>, ExecError>, bool) {
    PLAN_MEMO.get_or_insert_with(PlanKey::new(net, spec, policy, inference), || {
        compile_inner(net, spec, policy, inference).map(Arc::new)
    })
}

/// [`compile`] through the plan memo: repeated compilations of the same
/// `(net, policy, device)` triple — the common case in admission ladders
/// and feasibility binary searches — return a shared `Arc` instead of
/// recompiling. OOM outcomes are memoized too (a job that does not fit a
/// budget still does not fit it the next time the ladder asks).
pub fn compile_memo(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<Arc<CompiledPlan>, ExecError> {
    lookup(net, spec, policy, false).0
}

/// [`compile_inference`] through the plan memo.
pub fn compile_inference_memo(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<Arc<CompiledPlan>, ExecError> {
    lookup(net, spec, policy, true).0
}

// ---------------------------------------------------------------------
// Compilation entry points
// ---------------------------------------------------------------------

/// Compile a training plan: one `2N`-step iteration. Always compiles (the
/// graph analyses may still come from the shared cache); see
/// [`compile_memo`] for the memoized form hot paths should prefer.
pub fn compile(net: &Net, spec: &DeviceSpec, policy: Policy) -> Result<CompiledPlan, ExecError> {
    compile_inner(net, spec, policy, false)
}

/// Compile a forward-only inference plan: `N` steps, outputs freed at their
/// last forward reader, no gradients, no eager offload, no recomputation.
pub fn compile_inference(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<CompiledPlan, ExecError> {
    compile_inner(net, spec, policy, true)
}

/// Compile through the **reference implementation**: the pre-optimization
/// planner walk kept verbatim in `plan_reference` (per-step `Vec`
/// clones, per-alloc `String` clones), driving the linear-scan
/// `sn_mempool::LinearPool` and the `Vec`-backed cache list, with nothing
/// cached or shared — every compile pays the full graph analyses. Produces
/// byte-identical plans (asserted by tests and the `compile` bench); exists
/// so the baseline row of `BENCH_compile.json` measures the real pre-change
/// cost on current hardware.
pub fn compile_reference(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<CompiledPlan, ExecError> {
    let options = effective_liveness_options(policy, false);
    let rmode = effective_recompute_mode(policy, false);
    let a = build_analyses(net, options, rmode, false);
    let plan = crate::plan_reference::plan_reference(
        net,
        spec,
        policy,
        &a.route,
        &a.cost,
        &a.liveness,
        &a.rplan,
    )?;
    Ok(CompiledPlan {
        route: a.route,
        cost: a.cost,
        liveness: a.liveness,
        rplan: a.rplan,
        plan: Arc::new(plan),
    })
}

fn compile_inner(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
    inference: bool,
) -> Result<CompiledPlan, ExecError> {
    let a = analyses_for(net, policy, inference);
    let plan = plan_with(net, spec, policy, &a, inference)?;
    Ok(CompiledPlan {
        route: a.route,
        cost: a.cost,
        liveness: a.liveness,
        rplan: a.rplan,
        plan: Arc::new(plan),
    })
}

/// Run the planner walk over prepared analyses.
fn plan_with(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
    a: &Analyses,
    inference: bool,
) -> Result<MemoryPlan, ExecError> {
    let n_tensors = a.liveness.tensors.len();
    let total_steps = a.route.total_steps();
    let planner = Planner {
        net,
        spec,
        route: &a.route,
        cost: &a.cost,
        liveness: &a.liveness,
        rplan: &a.rplan,
        max_algo: &a.max_algo,
        policy,
        inference,
        dev: Device::new(spec.clone(), policy.allocator, policy.tiers),
        utp: Utp::new(n_tensors),
        counters: Counters::default(),
        recomputed_free_at: vec![Vec::new(); total_steps + 1],
        // Typical plans run 3-6 ops/step; reserving up front avoids the
        // doubling-realloc copies of the single largest Vec a compile builds.
        ops: Vec::with_capacity(4 * total_steps),
        sec_start: 0,
        reap_scratch: Vec::new(),
        peak_step: 0,
        peak_seen: 0,
        cur_step: 0,
        compute_ns: 0,
        h2d_ns: 0,
        d2h_ns: 0,
        offloaded: vec![false; n_tensors],
        recomputes: vec![0; net.len()],
    };
    planner.run()
}

/// What a ladder allocation is for — only turned into a display string on
/// the error path (the planner used to clone a layer-name `String` per
/// allocation; at thousands of allocations per compile that was measurable).
#[derive(Debug, Clone, Copy)]
enum AllocFor {
    Layer(LayerId),
    Workspace,
    Transient,
}

/// The compiler: the executor's old scheduling brain, run against allocator
/// + host-pool state only, emitting ops instead of touching a timeline.
struct Planner<'a> {
    net: &'a Net,
    spec: &'a DeviceSpec,
    route: &'a Route,
    cost: &'a NetCost,
    liveness: &'a LivenessPlan,
    rplan: &'a RecomputePlan,
    /// Per-layer max-speed conv choice (shared, precomputed).
    max_algo: &'a [AlgoChoice],
    policy: Policy,
    inference: bool,
    dev: Device,
    utp: Utp,
    counters: Counters,
    /// Recomputed tensors to drop at the end of a given step, indexed by
    /// step (dense: the planner knows `total_steps` up front).
    recomputed_free_at: Vec<Vec<TensorId>>,
    /// The plan's flat op stream; the section since `sec_start` is the one
    /// currently being accumulated (pre, post, or final).
    ops: Vec<PlanOp>,
    sec_start: usize,
    /// Reused buffer for the per-step reapable-offload drain.
    reap_scratch: Vec<TensorId>,
    peak_step: usize,
    peak_seen: u64,
    cur_step: usize,
    compute_ns: u64,
    h2d_ns: u64,
    d2h_ns: u64,
    offloaded: Vec<bool>,
    recomputes: Vec<u32>,
}

impl<'a> Planner<'a> {
    fn meta(&self, t: TensorId) -> &'a sn_graph::TensorMeta {
        &self.liveness.tensors[t.0]
    }

    /// Close the op section accumulated since the last close.
    fn take_section(&mut self) -> OpRange {
        let r = OpRange {
            start: self.sec_start as u32,
            end: self.ops.len() as u32,
        };
        self.sec_start = self.ops.len();
        r
    }

    /// Effective transfer bandwidth for `t`'s external tier (the pageable
    /// penalty applies to the local-host tier only).
    fn tier_gbps(&self, t: TensorId) -> f64 {
        let tier = self.utp.tier_of(t);
        match tier {
            Tier::LocalHost if !self.policy.pinned_host => tier.gbps() * self.spec.unpinned_factor,
            _ => tier.gbps(),
        }
    }

    fn transfer_ns(&self, t: TensorId) -> u64 {
        sn_sim::time::transfer_time(self.meta(t).bytes, self.tier_gbps(t)).as_ns()
    }

    /// Allocate, tracking where the peak lands.
    fn charged_alloc(&mut self, bytes: u64) -> Result<AllocGrant, sn_sim::AllocError> {
        let g = self.dev.alloc_charged(bytes)?;
        let used = self.dev.alloc.used();
        if used > self.peak_seen {
            self.peak_seen = used;
            self.peak_step = self.cur_step;
        }
        Ok(g)
    }

    /// Emit `ReleaseDevice(t)` and apply it.
    fn release_device(&mut self, t: TensorId) {
        self.ops.push(PlanOp::ReleaseDevice(t));
        self.utp.release_device(t, &mut self.dev);
    }

    /// Drop a recomputed tensor's device copy (memory-centric cleanup),
    /// honouring the lock/offloading guards.
    fn drop_device_copy(&mut self, t: TensorId) {
        let st = self.utp.state(t);
        if st.lock > 0 || st.offloading || st.residence != Residence::Device {
            return;
        }
        self.release_device(t);
    }

    /// Release every pending offload whose consumers have all run — the
    /// step-boundary drain that pins the memory trajectory at every
    /// allocation point, independent of DMA timing.
    fn drain_reapable(&mut self, step: usize) {
        let mut scratch = std::mem::take(&mut self.reap_scratch);
        self.utp.collect_reapable(self.liveness, step, &mut scratch);
        self.counters.reaps += scratch.len() as u64;
        for &t in &scratch {
            self.release_device(t);
        }
        self.reap_scratch = scratch;
    }

    /// One rung of the reclamation ladder: release the earliest reapable
    /// in-flight offload, else evict via the Tensor Cache. `Ok(true)` means
    /// memory may have been freed and the allocation is worth retrying.
    fn reclaim_some(&mut self, step: usize) -> Result<bool, ExecError> {
        if let Some(t) = self.utp.first_reapable(self.liveness, step) {
            self.counters.reaps += 1;
            self.release_device(t);
            return Ok(true);
        }
        if self.policy.tensor_cache {
            return self.evict_one(step);
        }
        Ok(false)
    }

    /// `LRU.out` (Alg. 2): pick the cache's victim; start an eviction
    /// copy-out if its contents are still needed, release directly if a
    /// valid host copy exists (or the contents are dead).
    fn evict_one(&mut self, step: usize) -> Result<bool, ExecError> {
        let Some(victim) = self.utp.pick_victim(self.policy.cache_policy) else {
            return Ok(false);
        };
        // Inclusive: a tensor whose last use is the *current* step is still
        // needed by it (eviction can run while the step assembles inputs).
        let meta = self.meta(victim);
        let needed_later =
            meta.last_use_step >= step || meta.bwd_last_use.is_some_and(|b| b >= step);
        let bytes = meta.bytes;
        let st = self.utp.state(victim);
        debug_assert_eq!(st.residence, Residence::Device);
        if needed_later && !st.host_valid {
            if !self.utp.ensure_host_slot(victim, bytes, &mut self.dev) {
                return Err(ExecError::HostExhausted { requested: bytes });
            }
            self.d2h_ns += self.transfer_ns(victim);
            self.utp.mark_offloading(victim, true, None);
            self.utp.lru_remove(victim);
            self.ops.push(PlanOp::Offload {
                t: victim,
                evict: true,
            });
            self.offloaded[victim.0] = true;
            self.counters.offloads += 1;
        } else {
            self.release_device(victim);
        }
        self.counters.evictions += 1;
        Ok(true)
    }

    /// Allocate device memory for `bytes` with the reclamation ladder.
    fn ladder_alloc(
        &mut self,
        bytes: u64,
        step: usize,
        what: AllocFor,
    ) -> Result<AllocGrant, ExecError> {
        loop {
            match self.charged_alloc(bytes) {
                Ok(g) => {
                    self.counters.alloc_grants += 1;
                    return Ok(g);
                }
                Err(_) => {
                    self.counters.ladder_rungs += 1;
                    if self.reclaim_some(step)? {
                        continue;
                    }
                    return Err(ExecError::Oom {
                        step,
                        layer: match what {
                            AllocFor::Layer(l) => self.net.layer(l).name.clone(),
                            AllocFor::Workspace => "conv workspace".into(),
                            AllocFor::Transient => "transient buffer".into(),
                        },
                        requested: bytes,
                        capacity: self.dev.alloc.capacity(),
                    });
                }
            }
        }
    }

    /// Make `t` device-resident (the Check() of Alg. 2; may recompute).
    fn ensure_present(&mut self, t: TensorId, step: usize) -> Result<(), ExecError> {
        match self.utp.state(t).residence {
            Residence::Device => {
                self.counters.cache_hits += 1;
                self.utp.lru_touch(t);
                Ok(())
            }
            Residence::Host => {
                self.counters.cache_misses += 1;
                let meta = self.meta(t);
                let (bytes, layer) = (meta.bytes, meta.layer);
                let g = self.ladder_alloc(bytes, step, AllocFor::Layer(layer))?;
                self.utp.mark_device(t, g.id, self.policy.tensor_cache);
                self.h2d_ns += self.transfer_ns(t);
                self.ops.push(PlanOp::Fetch(t));
                self.counters.prefetches += 1;
                Ok(())
            }
            Residence::None => {
                // Only recomputable forward outputs may be legitimately
                // absent; anything else is a scheduling bug.
                let meta = self.meta(t);
                assert_eq!(
                    meta.role,
                    TensorRole::FwdOut,
                    "tensor {:?} of {} absent at step {step}",
                    meta.role,
                    self.net.layer(meta.layer).name
                );
                let layer = meta.layer;
                self.recompute_for(layer, step)?;
                debug_assert_eq!(self.utp.state(t).residence, Residence::Device);
                Ok(())
            }
        }
    }

    /// Plan the §3.4 segment replay reconstructing `layer`'s forward output.
    fn recompute_for(&mut self, layer: LayerId, step: usize) -> Result<(), ExecError> {
        let si = self.rplan.segment_of[layer.0]
            .unwrap_or_else(|| panic!("{} is not recomputable", self.net.layer(layer).name));
        let rplan = self.rplan;
        let (strategy, anchor) = {
            let seg = &rplan.segments[si];
            (seg.strategy, seg.anchor)
        };

        // The anchor checkpoint seeds the replay: bring it back first.
        let anchor_t = self.liveness.fwd_out[anchor.0];
        self.ensure_present(anchor_t, step)?;
        self.utp.states[anchor_t.0].lock += 1;

        // Speed-centric replays walk the segment's member list in place
        // (it lives in the shared recompute plan); memory-centric replays
        // walk the dependency chain computed for this specific layer.
        let chain;
        let members: &[LayerId] = match strategy {
            SegmentStrategy::SpeedCentric => &rplan.segments[si].members,
            SegmentStrategy::MemoryCentric => {
                chain = rplan.chain_to(self.net, layer);
                &chain
            }
        };
        // Memory-centric replay frees each chain intermediate as soon as the
        // next link has consumed it, keeping the replay working set at two
        // tensors (Fig. 9b's "memcost stays at l_b").
        let target = *members.last().unwrap_or(&layer);
        let mut prev_link: Option<TensorId> = None;

        for &m in members {
            let mt = self.liveness.fwd_out[m.0];
            match self.utp.state(mt).residence {
                Residence::Device => continue, // materialized by an earlier replay
                Residence::Host => {
                    // A previously recomputed copy was evicted to the host;
                    // fetching it back is cheaper than recomputing the chain.
                    self.ensure_present(mt, step)?;
                    continue;
                }
                Residence::None => {}
            }
            // Inputs of a segment member are its (single) producer's output,
            // which is either the anchor or an earlier member — resident.
            let bytes = self.meta(mt).bytes;
            let g = self.ladder_alloc(bytes, step, AllocFor::Layer(m))?;
            self.utp.mark_device(mt, g.id, self.policy.tensor_cache);
            self.ops.push(PlanOp::Alloc(mt));
            self.ops.push(PlanOp::Recompute(m));
            let lk = &self.net.layer(m).kind;
            self.compute_ns += self.cost.layer(m).fwd_time(lk, self.spec, 1.0).as_ns();
            self.counters.recompute_forwards += 1;
            self.recomputes[m.0] += 1;

            match strategy {
                SegmentStrategy::SpeedCentric => {
                    let free_at = self.meta(mt).bwd_last_use.unwrap_or(step).max(step);
                    self.recomputed_free_at[free_at].push(mt);
                }
                SegmentStrategy::MemoryCentric => {
                    if let Some(prev) = prev_link.take() {
                        self.drop_device_copy(prev);
                    }
                    if m == target {
                        self.recomputed_free_at[step].push(mt);
                    } else {
                        prev_link = Some(mt);
                    }
                }
            }
        }

        self.utp.states[anchor_t.0].lock -= 1;
        Ok(())
    }

    /// Plan the overlapped prefetch of host-resident tensors needed by
    /// upcoming backward steps, up to and including the next offloadable
    /// checkpoint's backward. Opportunistic: never evicts on its behalf.
    fn prefetch_ahead(&mut self, step: usize) {
        let route = self.route;
        let liveness = self.liveness;
        let total = route.total_steps();
        let depth = self.policy.prefetch_depth as usize;
        let mut seen_ckpt = false;
        for s in (step + 1)..total.min(step + 1 + depth) {
            for &t in &liveness.step_inputs[s] {
                if self.utp.state(t).residence != Residence::Host {
                    continue;
                }
                let bytes = self.meta(t).bytes;
                let Ok(g) = self.charged_alloc(bytes) else {
                    return;
                };
                self.utp.mark_device(t, g.id, self.policy.tensor_cache);
                self.h2d_ns += self.transfer_ns(t);
                self.ops.push(PlanOp::Fetch(t));
                self.counters.prefetches += 1;
            }
            let l = route.step(s).layer;
            if route.step(s).phase == StepPhase::Backward
                && self.net.layer(l).kind.is_offload_candidate()
            {
                if seen_ckpt {
                    break;
                }
                seen_ckpt = true;
            }
        }
    }

    fn plan_step(&mut self, s: usize) -> Result<StepPlan, ExecError> {
        self.cur_step = s;
        let liveness = self.liveness;
        let step = self.route.step(s);
        let layer_id = step.layer;
        let kind = &self.net.layer(layer_id).kind;
        let lcost = self.cost.layer(layer_id);

        debug_assert_eq!(self.sec_start, self.ops.len());

        // Reap offloads whose consumers have all run, so this step's
        // allocations see the same free memory a synchronous engine would.
        self.drain_reapable(s);

        // 1. Stage inputs (may fetch, may plan a recomputation replay).
        for &t in &liveness.step_inputs[s] {
            self.ensure_present(t, s)?;
            // Lock immediately: ensuring a later input may trigger eviction
            // and must not victimize an input we already staged.
            self.utp.states[t.0].lock += 1;
        }

        // 2. Materialize this step's outputs.
        for &t in &liveness.created_at[s] {
            if self.utp.state(t).residence == Residence::None {
                let meta = self.meta(t);
                let (bytes, layer) = (meta.bytes, meta.layer);
                let g = self.ladder_alloc(bytes, s, AllocFor::Layer(layer))?;
                self.utp.mark_device(t, g.id, self.policy.tensor_cache);
                self.ops.push(PlanOp::Alloc(t));
            }
            self.utp.states[t.0].lock += 1;
        }

        // 3. Transients: dynamic conv workspace (§3.5) and the backward
        //    weight-gradient buffer (or forward mask workspace).
        let mut choice = AlgoChoice::fallback();
        let mut workspace = None;
        let mut ws_grant = None;
        if matches!(kind, sn_graph::LayerKind::Conv { .. }) {
            let budget = match self.policy.workspace {
                WorkspacePolicy::None => None,
                WorkspacePolicy::Dynamic => Some(
                    self.dev
                        .alloc
                        .free_bytes()
                        .min(self.dev.alloc.largest_free_contiguous()),
                ),
                WorkspacePolicy::Capped(cap) => Some(
                    self.dev
                        .alloc
                        .free_bytes()
                        .min(self.dev.alloc.largest_free_contiguous())
                        .min(cap),
                ),
            };
            if let Some(free) = budget {
                choice = convalgo::select_algo(self.net, layer_id, free);
            }
            if choice.workspace > 0 {
                ws_grant = Some(self.ladder_alloc(choice.workspace, s, AllocFor::Workspace)?);
                self.ops.push(PlanOp::AllocWorkspace(choice.workspace));
            }
            let max_choice = self.max_algo[layer_id.0];
            workspace = Some(WorkspacePlan {
                bytes: choice.workspace,
                max_speed_bytes: max_choice.workspace,
                algo: choice.algo.name(),
                speedup: choice.speedup,
            });
        }
        let transient_bytes = if step.phase == StepPhase::Backward {
            lcost.wgrad_bytes
        } else {
            lcost.fwd_workspace
        };
        let tr_grant = if transient_bytes > 0 {
            let g = self.ladder_alloc(transient_bytes, s, AllocFor::Transient)?;
            self.ops.push(PlanOp::AllocTransient(transient_bytes));
            Some(g)
        } else {
            None
        };

        // 4. The kernel itself.
        let duration = match step.phase {
            StepPhase::Forward => lcost.fwd_time(kind, self.spec, choice.speedup),
            StepPhase::Backward => lcost.bwd_time(kind, self.spec, choice.speedup),
        };
        self.compute_ns += duration.as_ns();
        let pre = self.take_section();

        // 5. Release transients.
        if ws_grant.is_some() || tr_grant.is_some() {
            self.ops.push(PlanOp::FreeTransients);
            if let Some(g) = ws_grant {
                self.dev.free_charged(g.id);
            }
            if let Some(g) = tr_grant {
                self.dev.free_charged(g.id);
            }
        }

        // 6. Unlock.
        for &t in liveness.step_inputs[s]
            .iter()
            .chain(liveness.created_at[s].iter())
        {
            let st = &mut self.utp.states[t.0];
            st.lock = st.lock.saturating_sub(1);
        }

        // 7. Eager offload of checkpoint outputs (Fig. 10b policy). Never
        //    for inference: there is no backward to fetch them back for.
        if !self.inference
            && step.phase == StepPhase::Forward
            && self.policy.offload
            && self.policy.eager_offload
        {
            let t = liveness.fwd_out[layer_id.0];
            let meta = self.meta(t);
            let (offloadable, bytes) = (meta.offloadable, meta.bytes);
            let st = self.utp.state(t);
            if offloadable && bytes > 0 && !st.host_valid && !st.offloading {
                if !self.utp.ensure_host_slot(t, bytes, &mut self.dev) {
                    return Err(ExecError::HostExhausted { requested: bytes });
                }
                self.d2h_ns += self.transfer_ns(t);
                self.utp.mark_offloading(t, false, None);
                self.ops.push(PlanOp::Offload { t, evict: false });
                self.offloaded[t.0] = true;
                self.counters.offloads += 1;
            }
        }

        // 8. Overlapped prefetch for upcoming backward consumers.
        if step.phase == StepPhase::Backward && self.policy.offload && self.policy.prefetch {
            self.prefetch_ahead(s);
        }

        // 9. Liveness frees.
        for &t in &liveness.freed_after[s] {
            let st = self.utp.state(t);
            if st.residence != Residence::None || st.host_slot.is_some() {
                self.ops.push(PlanOp::Free(t));
                self.utp.free_tensor(t, &mut self.dev);
            }
        }
        // Recomputed-tensor frees scheduled for this step.
        let list = std::mem::take(&mut self.recomputed_free_at[s]);
        for t in list {
            self.drop_device_copy(t);
        }
        let post = self.take_section();

        Ok(StepPlan {
            layer: layer_id,
            phase: step.phase,
            duration,
            pre,
            post,
            workspace,
        })
    }

    fn run(mut self) -> Result<MemoryPlan, ExecError> {
        // The permanently resident weights are the plan's first allocation.
        let weight_bytes = self.cost.total_weight_bytes();
        if weight_bytes > 0 && self.charged_alloc(weight_bytes).is_err() {
            return Err(ExecError::Oom {
                step: 0,
                layer: "WEIGHTS".into(),
                requested: weight_bytes,
                capacity: self.dev.alloc.capacity(),
            });
        }

        let total = self.route.total_steps();
        let mut steps = Vec::with_capacity(total);
        for s in 0..total {
            steps.push(self.plan_step(s)?);
        }
        // End of iteration: every remaining in-flight offload has seen all
        // its consumers — release the device copies.
        self.cur_step = total;
        self.drain_reapable(total);
        let final_range = self.take_section();

        let lifetimes = self
            .liveness
            .tensors
            .iter()
            .map(|m| TensorLifetime {
                tensor: m.id,
                layer: m.layer,
                role: m.role,
                bytes: m.bytes,
                created_step: m.created_step,
                freed_after: m.last_use_step,
                offloaded: self.offloaded[m.id.0],
                recomputes: match m.role {
                    TensorRole::FwdOut => self.recomputes[m.layer.0],
                    TensorRole::Grad => 0,
                },
            })
            .collect();

        let peak_bytes = self.dev.alloc.high_water();
        debug_assert_eq!(peak_bytes, self.peak_seen);
        Ok(MemoryPlan {
            steps,
            ops: self.ops,
            final_range,
            peak_bytes,
            peak_step: self.peak_step,
            weight_bytes,
            predicted: self.counters,
            lifetimes,
            inference: self.inference,
            compute_ns: self.compute_ns,
            alloc_ns: self.dev.alloc_time.as_ns(),
            h2d_ns: self.h2d_ns,
            d2h_ns: self.d2h_ns,
            serialized: self.policy.sync_transfers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_graph::Shape4;

    /// A K40c whose name no other test uses: the memo keys on the whole
    /// spec, so a test's first lookup on it is a miss whatever else the
    /// binary compiles concurrently.
    fn memo_spec(test: &str) -> DeviceSpec {
        DeviceSpec {
            name: format!("plan-memo {test}"),
            ..DeviceSpec::k40c()
        }
    }

    fn small_net(batch: usize) -> Net {
        let mut net = Net::new("plan-test", Shape4::new(batch, 3, 32, 32));
        let d = net.data();
        let c1 = net.conv(d, 16, 3, 1, 1);
        let a1 = net.relu(c1);
        let p1 = net.max_pool(a1, 2, 2, 0);
        let c2 = net.conv(p1, 32, 3, 1, 1);
        let a2 = net.relu(c2);
        let f = net.fc(a2, 10);
        net.softmax(f);
        net
    }

    #[test]
    fn plan_compiles_for_every_preset() {
        let net = small_net(8);
        let spec = DeviceSpec::k40c();
        for policy in [
            Policy::baseline(),
            Policy::liveness_only(),
            Policy::liveness_offload(),
            Policy::full_memory(),
            Policy::superneurons(),
        ] {
            let c = compile(&net, &spec, policy).unwrap();
            assert_eq!(c.plan.steps.len(), c.route.total_steps());
            assert!(c.plan.peak_bytes > 0);
            assert!(!c.plan.inference);
            // The debug rendering covers every step.
            let text = c.plan.render(&net);
            assert!(text.lines().count() >= c.plan.steps.len());
        }
    }

    #[test]
    fn plan_peaks_shrink_along_the_preset_ladder() {
        let net = small_net(16);
        let spec = DeviceSpec::k40c();
        let peaks: Vec<u64> = [
            Policy::baseline(),
            Policy::liveness_only(),
            Policy::liveness_offload(),
            Policy::full_memory(),
        ]
        .iter()
        .map(|p| compile(&net, &spec, *p).unwrap().plan.peak_bytes)
        .collect();
        assert!(
            peaks.windows(2).all(|w| w[1] <= w[0]),
            "plan peaks must be non-increasing: {peaks:?}"
        );
    }

    #[test]
    fn inference_plans_are_forward_only_and_smaller() {
        let net = small_net(16);
        let spec = DeviceSpec::k40c();
        let train = compile(&net, &spec, Policy::liveness_only()).unwrap();
        let inf = compile_inference(&net, &spec, Policy::liveness_only()).unwrap();
        assert!(inf.plan.inference);
        assert_eq!(inf.plan.steps.len(), net.len());
        assert!(inf.plan.steps.iter().all(|s| s.phase == StepPhase::Forward));
        assert!(
            inf.plan.peak_bytes < train.plan.peak_bytes,
            "inference {} must undercut training {}",
            inf.plan.peak_bytes,
            train.plan.peak_bytes
        );
        // No gradients, no recomputation, no offload traffic planned.
        assert_eq!(inf.plan.predicted.recompute_forwards, 0);
        assert_eq!(inf.plan.predicted.offloads, 0);
        assert!(inf
            .plan
            .lifetimes
            .iter()
            .all(|l| l.role == TensorRole::FwdOut));
    }

    #[test]
    fn plan_ops_balance_allocs_and_frees() {
        // Every tensor the plan allocates is freed (or released) by the end
        // of the iteration — replaying the plan leaks nothing but weights.
        let net = small_net(8);
        let spec = DeviceSpec::k40c();
        let c = compile(&net, &spec, Policy::superneurons()).unwrap();
        let mut live: std::collections::HashSet<TensorId> = std::collections::HashSet::new();
        // The flat stream is already in execution order (pre, post, final).
        for op in &c.plan.ops {
            match op {
                PlanOp::Alloc(t) | PlanOp::Fetch(t) => {
                    assert!(live.insert(*t), "double materialization of {t:?}");
                }
                PlanOp::ReleaseDevice(t) | PlanOp::Free(t) => {
                    live.remove(t);
                }
                _ => {}
            }
        }
        assert!(live.is_empty(), "leaked device tensors: {live:?}");
    }

    #[test]
    fn iter_time_estimate_is_positive_and_serialization_aware() {
        let net = small_net(8);
        let spec = DeviceSpec::k40c();
        let plain = compile(&net, &spec, Policy::liveness_offload())
            .unwrap()
            .plan;
        let sync = compile(&net, &spec, Policy::liveness_offload().synchronous())
            .unwrap()
            .plan;
        assert!(plain.iter_time_estimate() > SimTime::ZERO);
        assert!(sync.serialized && !plain.serialized);
        assert!(sync.iter_time_estimate() >= plain.iter_time_estimate());
    }

    #[test]
    fn reference_compile_is_byte_identical() {
        // The whole point of the optimization pass: indexed structures buy
        // time, never bytes. Peaks, op streams and counters must agree with
        // the reference (linear pool + Vec cache list) compile on every
        // preset — compared via the rendered debug format, which covers
        // every op of every step.
        let net = small_net(16);
        let spec = DeviceSpec::k40c();
        for policy in [
            Policy::baseline(),
            Policy::liveness_only(),
            Policy::liveness_offload(),
            Policy::full_memory(),
            Policy::superneurons(),
        ] {
            let fast = compile(&net, &spec, policy).unwrap();
            let slow = compile_reference(&net, &spec, policy).unwrap();
            assert_eq!(fast.plan.peak_bytes, slow.plan.peak_bytes);
            assert_eq!(fast.plan.peak_step, slow.plan.peak_step);
            assert_eq!(fast.plan.render(&net), slow.plan.render(&net));
            assert_eq!(fast.plan.predicted.evictions, slow.plan.predicted.evictions);
            assert_eq!(fast.plan.alloc_ns, slow.plan.alloc_ns);
        }
    }

    #[test]
    fn memo_returns_shared_plans_and_counts_hits() {
        let net = small_net(10);
        let spec = memo_spec("shared");
        let policy = Policy::superneurons();
        let (a, a_hit) = lookup(&net, &spec, policy, false);
        let (b, b_hit) = lookup(&net, &spec, policy, false);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(!a_hit, "first compile must be a miss");
        assert!(b_hit, "repeat compile must be a hit");
        assert!(Arc::ptr_eq(&a, &b), "memo must return the shared Arc");
        // A different device cap is a different plan — no aliasing.
        let capped = spec.clone().with_dram(spec.dram_bytes / 2);
        let (c, c_hit) = lookup(&net, &capped, policy, false);
        assert!(!c_hit, "distinct caps must not share an entry");
        assert!(!Arc::ptr_eq(&a, &c.unwrap()));
        // Inference and training never alias.
        let (i, i_hit) = lookup(&net, &spec, policy, true);
        assert!(!i_hit);
        let i = i.unwrap();
        assert!(i.plan.inference && !a.plan.inference);
    }

    #[test]
    fn memo_caches_oom_outcomes() {
        let net = small_net(32);
        let tiny = memo_spec("oom").with_dram(64 << 10);
        let (r1, h1) = lookup(&net, &tiny, Policy::baseline(), false);
        assert!(r1.is_err() && !h1);
        let (r2, h2) = lookup(&net, &tiny, Policy::baseline(), false);
        assert!(r2.is_err());
        assert!(h2, "second failure must be served from the memo");
    }

    #[test]
    fn distinct_nets_never_alias_in_the_memo() {
        // Same shape of call, different structure: the fingerprint must
        // separate them even when name and batch agree.
        let spec = memo_spec("nets");
        let a = compile_memo(&small_net(8), &spec, Policy::baseline()).unwrap();
        let other = {
            // Same name, same batch, one extra ACT before the FC.
            let mut net = Net::new("plan-test", Shape4::new(8, 3, 32, 32));
            let d = net.data();
            let c1 = net.conv(d, 16, 3, 1, 1);
            let a1 = net.relu(c1);
            let p1 = net.max_pool(a1, 2, 2, 0);
            let c2 = net.conv(p1, 32, 3, 1, 1);
            let a2 = net.relu(c2);
            let a3 = net.relu(a2);
            let f = net.fc(a3, 10);
            net.softmax(f);
            net
        };
        let (b, b_hit) = lookup(&other, &spec, Policy::baseline(), false);
        assert!(!b_hit, "structurally distinct nets must not alias");
        assert_ne!(a.plan.steps.len(), b.unwrap().plan.steps.len());
    }

    #[test]
    fn distinct_precisions_never_alias_in_the_memo() {
        // An fp32 and a bf16-mixed compile of the *same* net on the *same*
        // device must live under distinct memo keys: precision is part of
        // `Policy`, hence of `PlanKey`, and the plans size tensors
        // differently.
        use sn_graph::Precision;
        let net = small_net(8);
        let spec = memo_spec("precisions");
        let fp32 = Policy::superneurons();
        let bf16 = fp32.with_precision(Precision::bf16_mixed());
        let (a, a_hit) = lookup(&net, &spec, fp32, false);
        let (b, b_hit) = lookup(&net, &spec, bf16, false);
        assert!(!a_hit && !b_hit, "distinct precisions must both miss");
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(
            b.plan.peak_bytes < a.plan.peak_bytes,
            "2-byte activations must shrink the plan peak ({} vs {})",
            b.plan.peak_bytes,
            a.plan.peak_bytes
        );
        // Each precision still hits its own entry on repeat.
        let (a2, a2_hit) = lookup(&net, &spec, fp32, false);
        let (b2, b2_hit) = lookup(&net, &spec, bf16, false);
        assert!(a2_hit && b2_hit);
        assert!(Arc::ptr_eq(&a, &a2.unwrap()));
        assert!(Arc::ptr_eq(&b, &b2.unwrap()));
    }
}
