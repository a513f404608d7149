//! The planning layer: one-time network setup split out of the engine,
//! plus the concurrent content-addressed [`PlanCache`] that lets many
//! broadcast deployments (sweep jobs, worst-case candidates) share it.
//!
//! NAB's per-network setup is expensive — validating the paper's
//! conditions, building `2f+1` disjoint-path routing tables for every
//! node pair, packing `γ` Edmonds arborescences, computing `ρ = ⌊U/2⌋`
//! over all `(n−f)`-node subgraphs — yet depends only on `(G, f)`, not on
//! the instance payloads or seeds. An [`ExecutionPlan`] captures exactly
//! that seed-independent artifact set; [`crate::engine::NabEngine`]
//! borrows one via [`Arc`] and keeps only per-instance state (dispute
//! evolution, instance counter).
//!
//! Plans are immutable and deterministic functions of `(G, f)`: executing
//! against a cached plan is byte-for-byte identical to rebuilding it,
//! which is what lets the sweep runner share a [`PlanCache`] across
//! worker threads without perturbing canonical report JSON.

use nab_obs::clock;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use nab_bb::router::{FormulaClock, PathRouter};
use nab_netgraph::arborescence::{pack_arborescences_with_stats, Arborescence, PackStats};
use nab_netgraph::canon;
use nab_netgraph::{DiGraph, NodeId};

use crate::bounds::{gamma_k, rho_k, BoundsReport};
use crate::dispute::DisputeState;
use crate::engine::{NabError, SOURCE};
use crate::equality::{CodingScheme, RowLayout};
use crate::phase1::RouteTable;
use crate::phase2::{charge_flags, BroadcastKind};

/// The point-lookup memo and cache tables of this module.
#[expect(
    clippy::disallowed_types,
    reason = "point lookups only; nothing ever iterates these tables toward canonical output"
)]
type PointMap<K, V> = std::collections::HashMap<K, V>;

/// The most Phase-1 arborescences a plan packs for one `G_k`, one per
/// unit of `γ_k`. The largest `γ₁` of a bundled scenario or benchmark
/// workload is 65 (`e5-thinlink`); link capacities in the billions would
/// otherwise ask for billions of `(n − 1)`-edge trees.
pub const MAX_TREES: u64 = 1 << 16;

/// What every plan of `(g, f)`, built or loaded, starts with: `n ≥ 3f+1`,
/// then the router, whose connectivity proof is the validation of the
/// paper's `2f+1` condition (it is not proven a second time).
fn validated_router(g: &DiGraph, f: usize) -> Result<PathRouter, NabError> {
    let n = g.active_count();
    if n < 3 * f + 1 {
        return Err(NabError::TooManyFaults { n, f });
    }
    PathRouter::build(g, f).ok_or(NabError::InsufficientConnectivity)
}

/// The immutable one-time planning artifact for one network deployment
/// `(G, f)` rooted at [`SOURCE`].
///
/// Everything in here is independent of instance payloads, coding seeds,
/// and dispute evolution; the execution layer recomputes the per-`G_k`
/// quantities only after disputes actually shrink the graph.
pub struct ExecutionPlan {
    /// `G_1` with `γ_1`, its packing and `ρ_1`.
    g1: Gk,
    f: usize,
    /// Labeled-graph digest of `G_1`, fixed at build time so cache-hit
    /// verification and disk addressing never re-hash the graph.
    labeled: u64,
    router: PathRouter,
    build_wall_ns: u64,
    /// What packing `trees0` took (all zero on a plan loaded from disk,
    /// which packed nothing); reported on the `plan_built` trace event.
    pack_stats: PackStats,
    /// Lazily computed Eq. 6 / Theorem 2 bounds, keyed by enumeration
    /// budget (each distinct budget is computed once; results are
    /// deterministic per `(G, f, budget)`).
    bounds: RwLock<PointMap<usize, Option<BoundsReport>>>,
}

impl std::fmt::Debug for ExecutionPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionPlan")
            .field("n", &self.graph().active_count())
            .field("edges", &self.graph().edge_count())
            .field("f", &self.f)
            .field("gamma0", &self.gamma0())
            .field("rho0", &self.rho0())
            .field("trees0", &self.trees0().len())
            .field("build_wall_ns", &self.build_wall_ns)
            .finish()
    }
}

impl ExecutionPlan {
    /// Realizes the topology: validates the paper's conditions (`n ≥
    /// 3f+1`, connectivity `≥ 2f+1`, `U_1 ≥ 2`) and derives every
    /// seed-independent artifact — γ₁ and its Phase-1 Edmonds arborescence
    /// packing, ρ₁ and (when one exists) its Theorem-1 spanning-tree
    /// packing of the undirected view, and the `2f+1`-disjoint-path
    /// router the classic-BB backends share.
    ///
    /// # Errors
    ///
    /// Returns the violated condition, with topology/rate context for
    /// packing failures, and [`NabError::TooManyTrees`] before packing
    /// when `γ₁` is above [`MAX_TREES`].
    pub fn build(g: DiGraph, f: usize) -> Result<ExecutionPlan, NabError> {
        let t0 = clock::mono_now();
        let router = validated_router(&g, f)?;
        let rho0 = rho_k(&g, f, &BTreeSet::new()).ok_or(NabError::NoEqualityParameter)?;
        let (mut g1, pack_stats) = Gk::lay_out(g, (0, 0))?;
        g1.set_rho(rho0);
        let mut plan = ExecutionPlan::assemble(g1, f, router, pack_stats);
        plan.build_wall_ns = t0.elapsed().as_nanos() as u64;
        Ok(plan)
    }

    /// Reassembles a plan from verified persisted artifacts (γ₁, ρ₁, the
    /// arborescence packing), rebuilding only the pieces that are not
    /// persisted — the router's connectivity proof and the on-demand
    /// caches. The proof is ≈ 0.3–0.4 ms of a 1.2–1.4 ms load-and-verify
    /// (`core.plan_load_ms`) on the benchmark's 36- to 64-node `plan-cold`
    /// fabrics at `f = 1`; as the pivot check it was 2.3–2.5 of 3.4–3.6
    /// ms, as an all-pairs scan 53 of 64. The caller (the persistence
    /// layer) is responsible for having verified the artifacts and sets
    /// what the reassembly cost with [`ExecutionPlan::set_build_wall_ns`].
    ///
    /// # Errors
    ///
    /// Returns the violated validation condition, exactly as
    /// [`ExecutionPlan::build`] would for the same network.
    pub(crate) fn from_parts(
        g: DiGraph,
        f: usize,
        gamma0: u64,
        rho0: u64,
        trees0: Vec<Arborescence>,
    ) -> Result<ExecutionPlan, NabError> {
        let router = validated_router(&g, f)?;
        let mut g1 = Gk::new(g, gamma0, trees0, (0, 0));
        g1.set_rho(rho0);
        Ok(ExecutionPlan::assemble(g1, f, router, PackStats::default()))
    }

    /// A plan on `G_1` with `ρ_1` set, its build wall time not yet set.
    fn assemble(g1: Gk, f: usize, router: PathRouter, pack_stats: PackStats) -> ExecutionPlan {
        ExecutionPlan {
            labeled: canon::labeled_key(g1.graph()),
            g1,
            f,
            router,
            build_wall_ns: 0,
            pack_stats,
            bounds: RwLock::new(PointMap::new()),
        }
    }

    /// The planned network `G_1`.
    pub fn graph(&self) -> &DiGraph {
        self.g1.graph()
    }

    /// `G_1` as the first `G_k`: what an engine runs on until a dispute
    /// shrinks the graph.
    pub(crate) fn g1(&self) -> &Gk {
        &self.g1
    }

    /// The labeled digest of the planned network, fixed at build time.
    pub fn labeled_digest(&self) -> u64 {
        self.labeled
    }

    /// The fault bound the plan was built for.
    pub fn f(&self) -> usize {
        self.f
    }

    /// `γ_1`, the Phase-1 broadcast rate of the undisputed graph.
    pub fn gamma0(&self) -> u64 {
        self.g1.gamma
    }

    /// `ρ_1 = ⌊U_1/2⌋`, the equality-check parameter of the undisputed
    /// graph.
    pub fn rho0(&self) -> u64 {
        // Always set: a plan is built or loaded with `ρ_1`.
        self.g1.rho().unwrap_or_default()
    }

    /// The `γ_1` capacity-respecting spanning arborescences Phase 1
    /// streams over while no disputes have shrunk the graph.
    pub fn trees0(&self) -> &[Arborescence] {
        self.g1.trees()
    }

    /// The `2f+1`-disjoint-path router emulating a complete graph — the
    /// setup shared by every classic-BB backend (EIG, Phase-King) run
    /// against this plan.
    pub fn router(&self) -> &PathRouter {
        &self.router
    }

    /// Wall-clock nanoseconds spent building this plan.
    pub fn build_wall_ns(&self) -> u64 {
        self.build_wall_ns
    }

    /// Overrides the recorded build wall time (used by the persistence
    /// layer to report load-and-verify cost instead of the original
    /// build's).
    pub(crate) fn set_build_wall_ns(&mut self, ns: u64) {
        self.build_wall_ns = ns;
    }

    /// The per-instance coding scheme on the undisputed graph: uniform
    /// random `C_e` matrices at parameter `ρ_1`, derived from the public
    /// per-instance seed exactly as the engine derives them on any `G_k`.
    ///
    /// Nothing in the workspace calls this outside tests; it stays only
    /// for `benchmark/`'s call sites and goes with the benchmark-only PR
    /// that ROADMAP item 1(b) describes.
    pub fn instance_scheme(&self, cfg_seed: u64, instance: u64) -> CodingScheme {
        CodingScheme::random(
            self.graph(),
            self.rho0() as usize,
            cfg_seed.wrapping_add(instance),
        )
    }

    /// The paper's Eq. 6 / Theorem 2 bounds for this network at the
    /// given `γ*` enumeration budget, computed once per distinct budget
    /// and cached in the plan thereafter (so a sweep's worst-case
    /// candidate search pays for the enumeration once per network, not
    /// once per measurement — and a plan reused across sweeps with
    /// *different* budgets still reports each sweep's own deterministic
    /// values).
    pub fn bounds_report(&self, budget: usize) -> Option<BoundsReport> {
        // Poison-tolerant lock access throughout: the maps only ever hold
        // fully-constructed values, so a panicked holder cannot leave them
        // torn, and a panicked job elsewhere must not wedge the cache.
        if let Some(cached) = self
            .bounds
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&budget)
        {
            return cached.clone();
        }
        // Computed outside the write lock; a concurrent duplicate
        // computes the identical value (deterministic per budget).
        let computed =
            crate::bounds::bounds_report_given(self.graph(), SOURCE, self.f, budget, self.gamma0());
        self.bounds
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(budget)
            .or_insert_with(|| computed.clone());
        computed
    }
}

/// `G_k` and what an instance on it runs with: the graph left by the
/// disputes so far, `γ_k` with its Phase-1 arborescence packing and the
/// [`RouteTable`] laid out on it, and `ρ_k` with the coding matrices' row
/// layout. A plan holds `G_1`; an engine derives the next value from it
/// once dispute control has grown its dispute state (Section 2). Every
/// quantity is a deterministic function of `(G_1, pairs, removed)`, so a
/// derived value equals a from-scratch derivation bit for bit. Cloning
/// shares the graph, the packing, the routes, the layout and the flag
/// charges.
#[derive(Debug, Clone)]
pub struct Gk {
    graph: Arc<DiGraph>,
    gamma: u64,
    trees: Arc<[Arborescence]>,
    routes: Arc<RouteTable>,
    /// `ρ_k` and `G_k`'s [`RowLayout`], `None` until an instance on this
    /// `G_k` reaches the equality check (earlier phases never need them).
    rho: Option<(u64, Arc<RowLayout>)>,
    /// `(|pairs|, |removed|)` of the dispute state this value was derived
    /// from. Both sets only grow, so equal sizes mean an equal state.
    disputes: (usize, usize),
    /// Step 2.2's formula-clock charge, one slot per [`BroadcastKind`],
    /// filled by [`Gk::flag_charge`]'s first call for that kind.
    flag_charges: Arc<[OnceLock<f64>; 2]>,
}

impl Gk {
    /// `G_k` with its packing and routes, `ρ_k` not yet set.
    fn new(graph: DiGraph, gamma: u64, trees: Vec<Arborescence>, disputes: (usize, usize)) -> Gk {
        let routes = Arc::new(RouteTable::new(&graph, &trees));
        Gk {
            graph: Arc::new(graph),
            gamma,
            trees: trees.into(),
            routes,
            rho: None,
            disputes,
            flag_charges: Arc::default(),
        }
    }

    /// Derives `G_k` for `disputes` from `g1`: removes the excluded nodes
    /// and disputed links, then lays `G_k` out with [`Gk::lay_out`], as
    /// [`ExecutionPlan::build`] lays out `G_1`. `ρ_k` is left to
    /// [`Gk::set_rho`].
    ///
    /// # Errors
    ///
    /// As [`Gk::lay_out`].
    pub(crate) fn derive(g1: &DiGraph, disputes: &DisputeState) -> Result<Gk, NabError> {
        let graph = disputes.current_graph(g1);
        Ok(Gk::lay_out(graph, dispute_sizes(disputes))?.0)
    }

    /// Lays `G_k` out on `graph`: `γ_k`, its arborescence packing from
    /// scratch (returned with what the packing took) and the route table.
    /// Every `G_k` is derived here: [`ExecutionPlan::build`] calls it for
    /// `G_1`, [`Gk::derive`] for each replan.
    ///
    /// # Errors
    ///
    /// Returns [`NabError::TooManyTrees`] if `γ_k` is above [`MAX_TREES`],
    /// and [`NabError::ArborescencePacking`] if no packing exists at
    /// `γ_k`.
    fn lay_out(graph: DiGraph, disputes: (usize, usize)) -> Result<(Gk, PackStats), NabError> {
        // Refused before anything packs it: a replan's `γ_k` can exceed
        // `γ₁` once an excluded node's thin links no longer bound it.
        let gamma = gamma_k(&graph, SOURCE);
        if gamma > MAX_TREES {
            return Err(NabError::TooManyTrees { gamma });
        }
        let (trees, stats) =
            pack_arborescences_with_stats(&graph, SOURCE, gamma).ok_or_else(|| {
                NabError::ArborescencePacking {
                    n: graph.active_count(),
                    edges: graph.edge_count(),
                    gamma,
                }
            })?;
        // DetSan (debug builds): re-verify the packing against `G_k`
        // before it is used.
        debug_assert_eq!(
            nab_netgraph::arborescence::validate_packing(&graph, SOURCE, &trees),
            Ok(()),
            "DetSan: the packing is invalid"
        );
        Ok((Gk::new(graph, gamma, trees, disputes), stats))
    }

    /// Whether this value was derived from `disputes` (and so is still
    /// `G_k` for it).
    pub(crate) fn derived_from(&self, disputes: &DisputeState) -> bool {
        self.disputes == dispute_sizes(disputes)
    }

    /// Records `ρ_k` once an instance has computed it, with the row layout
    /// every later instance's coding scheme shares.
    pub(crate) fn set_rho(&mut self, rho: u64) -> &(u64, Arc<RowLayout>) {
        self.rho
            .insert((rho, Arc::new(RowLayout::new(&self.graph))))
    }

    /// `ρ_k` and the row layout, once set.
    pub(crate) fn equality(&self) -> Option<&(u64, Arc<RowLayout>)> {
        self.rho.as_ref()
    }

    /// Step 2.2's charge for `kind` on the formula clock over `plan`'s
    /// router: what [`charge_flags`] reads on a fresh [`FormulaClock`]
    /// with `G_k`'s nodes as participants and `plan.f()` less `G_k`'s
    /// removed nodes as `f_residual`, the same inputs on every instance
    /// on `G_k`. The first call for a kind runs that replay; every later
    /// call, on this value or a clone, returns its f64 as it is.
    /// `plan` is the plan `G_k` was planned or derived on.
    pub(crate) fn flag_charge(&self, plan: &ExecutionPlan, kind: BroadcastKind) -> f64 {
        *self.flag_charges[kind as usize].get_or_init(|| {
            let participants: Vec<NodeId> = self.graph.nodes().collect();
            let f_residual = plan.f().saturating_sub(self.disputes.1);
            let clock = &mut FormulaClock::default();
            charge_flags(plan.router(), &participants, f_residual, kind, clock)
        })
    }

    /// The graph `G_k`.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// `γ_k`, the Phase-1 broadcast rate of `G_k`.
    pub fn gamma(&self) -> u64 {
        self.gamma
    }

    /// The `γ_k` arborescences Phase 1 streams over.
    pub fn trees(&self) -> &[Arborescence] {
        &self.trees
    }

    /// Phase 1's routes over [`Gk::trees`].
    pub fn routes(&self) -> &Arc<RouteTable> {
        &self.routes
    }

    /// `ρ_k`, once an instance on this `G_k` has reached the equality
    /// check (always set on `G_1`).
    pub fn rho(&self) -> Option<u64> {
        self.rho.as_ref().map(|&(rho, _)| rho)
    }
}

fn dispute_sizes(disputes: &DisputeState) -> (usize, usize) {
    (disputes.pairs.len(), disputes.removed.len())
}

/// Cache key. What actually gates plan reuse is the *labeled* digest
/// (plus the graph-equality check on hit): arborescences and routing
/// paths are expressed in concrete node ids, so only the identical
/// labeled network may share them — isomorphic-but-renamed graphs
/// deliberately get separate entries. The relabeling-invariant
/// *canonical* digest is the stable content-address component: it names
/// the topology family independent of node numbering, letting tooling
/// and diagnostics group cache entries (and collision analysis reason
/// about families) without affecting which plans are shared. `f` covers
/// the remaining planning input. Coding seeds and symbol counts are
/// deliberately absent: plans are seed-independent, which is what makes
/// them shareable across a sweep's jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Relabeling-invariant topology digest ([`canon::canonical_key`]).
    pub canon: u64,
    /// Labeled-graph digest ([`canon::labeled_key`]).
    pub labeled: u64,
    /// Fault bound.
    pub f: usize,
}

impl PlanKey {
    /// Computes the key of `(g, f)`.
    pub fn of(g: &DiGraph, f: usize) -> PlanKey {
        PlanKey {
            canon: canon::canonical_key(g),
            labeled: canon::labeled_key(g),
            f,
        }
    }
}

/// Result of one [`PlanCache::fetch`]: the shared plan plus whether this
/// call hit the cache and how long a miss spent building.
#[derive(Debug, Clone)]
pub struct PlanFetch {
    /// The (possibly freshly built) shared plan.
    pub plan: Arc<ExecutionPlan>,
    /// Whether the plan was already cached.
    pub hit: bool,
    /// Wall nanoseconds spent building (0 on a hit).
    pub build_ns: u64,
}

/// Aggregate counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Fetches served from the cache (in-memory or disk tier).
    pub hits: u64,
    /// Fetches that had to build a plan.
    pub misses: u64,
    /// Total wall nanoseconds spent building plans.
    pub build_ns: u64,
    /// Hits served by loading and verifying a persisted plan.
    pub disk_hits: u64,
    /// Freshly built plans persisted to the disk tier.
    pub disk_stores: u64,
    /// Persisted entries rejected by verification (corrupt or stale).
    pub disk_rejects: u64,
}

/// A concurrent content-addressed store of [`ExecutionPlan`]s, sharded
/// across `RwLock`ed hash maps so sweep worker threads contend only on
/// the shard their key lands in.
///
/// Lookups verify the stored plan's graph against the requested one
/// (`PlanKey` is a digest; on the astronomically unlikely collision the
/// cache builds a private plan instead of returning a wrong one), so a
/// hit is always semantically identical to a rebuild.
pub struct PlanCache {
    shards: Vec<RwLock<PointMap<PlanKey, Arc<ExecutionPlan>>>>,
    /// Disk tier root: misses probe it before building, fresh builds are
    /// persisted into it ([`crate::persist`]).
    dir: Option<std::path::PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    build_ns: AtomicU64,
    disk_hits: AtomicU64,
    disk_stores: AtomicU64,
    disk_rejects: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Lock shards of a [`PlanCache`].
const SHARDS: usize = 8;

impl PlanCache {
    /// A cache with no disk tier.
    pub fn new() -> Self {
        PlanCache {
            shards: (0..SHARDS).map(|_| RwLock::new(PointMap::new())).collect(),
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            build_ns: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_stores: AtomicU64::new(0),
            disk_rejects: AtomicU64::new(0),
        }
    }

    /// A cache whose misses fall through to a persistent on-disk store in
    /// `dir` before building: verified entries load warm, fresh builds
    /// are written back (atomically), and corrupt or stale entries are
    /// rejected with a warning and rebuilt.
    pub fn with_dir(dir: impl Into<std::path::PathBuf>) -> Self {
        let mut cache = Self::new();
        cache.dir = Some(dir.into());
        cache
    }

    fn shard(&self, key: &PlanKey) -> &RwLock<PointMap<PlanKey, Arc<ExecutionPlan>>> {
        let idx = (key.canon ^ key.labeled.rotate_left(17) ^ key.f as u64) as usize;
        &self.shards[idx % self.shards.len()]
    }

    /// Returns the plan for `(g, f)`, building and caching it on a miss.
    ///
    /// Build errors are **not** cached: planning a rejected network fails
    /// identically (same [`NabError`]) on every call, exactly as direct
    /// [`ExecutionPlan::build`] calls would.
    ///
    /// # Errors
    ///
    /// Returns the plan-validation failure.
    pub fn fetch(&self, g: &DiGraph, f: usize) -> Result<PlanFetch, NabError> {
        let key = PlanKey::of(g, f);
        let shard = self.shard(&key);
        // Poison-tolerant: shards only hold finished `Arc<Plan>` entries.
        if let Some(plan) = shard
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            if Self::verify_hit(plan, &key, g, f) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                nab_obs::trace::emit(nab_obs::trace::EventKind::PlanCacheHit);
                return Ok(PlanFetch {
                    plan: Arc::clone(plan),
                    hit: true,
                    build_ns: 0,
                });
            }
        }
        // Miss (or digest collision): build under the write lock so
        // concurrent workers asking for the same network build it once.
        let mut shard = shard
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(plan) = shard.get(&key) {
            if Self::verify_hit(plan, &key, g, f) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                nab_obs::trace::emit(nab_obs::trace::EventKind::PlanCacheHit);
                return Ok(PlanFetch {
                    plan: Arc::clone(plan),
                    hit: true,
                    build_ns: 0,
                });
            }
        }
        // Disk tier: a verified persisted plan substitutes for the build.
        if let Some(dir) = &self.dir {
            match crate::persist::load_plan(dir, &key, g, f) {
                crate::persist::LoadOutcome::Loaded(plan) => {
                    let plan: Arc<ExecutionPlan> = Arc::from(plan);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    nab_obs::trace::emit(nab_obs::trace::EventKind::PlanDiskHit);
                    shard.entry(key).or_insert_with(|| Arc::clone(&plan));
                    return Ok(PlanFetch {
                        plan,
                        hit: true,
                        build_ns: 0,
                    });
                }
                crate::persist::LoadOutcome::Rejected(why) => {
                    self.disk_rejects.fetch_add(1, Ordering::Relaxed);
                    nab_obs::trace::emit(nab_obs::trace::EventKind::PlanDiskReject);
                    eprintln!(
                        "warning: rejected persisted plan {}: {why}; rebuilding",
                        crate::persist::plan_path(dir, &key).display()
                    );
                }
                crate::persist::LoadOutcome::Missing => {}
            }
        }
        nab_obs::trace::emit(nab_obs::trace::EventKind::PlanCacheMiss);
        let plan = Arc::new(ExecutionPlan::build(g.clone(), f)?);
        let build_ns = plan.build_wall_ns();
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.build_ns.fetch_add(build_ns, Ordering::Relaxed);
        let s = plan.pack_stats;
        nab_obs::trace::emit(nab_obs::trace::EventKind::PlanBuilt {
            build_ns,
            pack: [
                s.tried,
                s.accepted,
                s.rejected,
                s.memo_skipped,
                s.repaired,
                s.searches,
            ],
        });
        if let Some(dir) = &self.dir {
            match crate::persist::save_plan(dir, &key, &plan) {
                Ok(()) => {
                    self.disk_stores.fetch_add(1, Ordering::Relaxed);
                    nab_obs::trace::emit(nab_obs::trace::EventKind::PlanDiskStore);
                }
                Err(e) => {
                    eprintln!("warning: could not persist plan to {}: {e}", dir.display());
                }
            }
        }
        // A digest collision (different graph already under this key)
        // keeps the incumbent and hands the caller a private plan.
        shard.entry(key).or_insert_with(|| Arc::clone(&plan));
        Ok(PlanFetch {
            plan,
            hit: false,
            build_ns,
        })
    }

    /// Hit verification: the stored labeled digest (fixed at build time)
    /// gates first — an O(1) compare that disposes of digest collisions
    /// and stale entries — and only a digest match proceeds to the O(E)
    /// structural equality check that makes collisions harmless.
    fn verify_hit(plan: &ExecutionPlan, key: &PlanKey, g: &DiGraph, f: usize) -> bool {
        plan.labeled_digest() == key.labeled && plan.f() == f && plan.graph() == g
    }

    /// Distinct plans currently cached.
    pub fn plan_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// Path systems the routers of the cached plans have extracted so far,
    /// each distinct plan counted once ([`PathRouter::routes_extracted`]):
    /// first-use routing, which is planning work although it runs inside
    /// whichever instance first routes a pair. A function of the pairs the
    /// jobs routed, not of the threads that ran them.
    pub fn routes_extracted(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let plans = s.read().unwrap_or_else(std::sync::PoisonError::into_inner);
                // An order-free sum over the shard.
                plans
                    .values()
                    .map(|plan| plan.router().routes_extracted())
                    .sum::<u64>()
            })
            .sum()
    }

    /// Snapshot of the hit/miss/build-time counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            build_ns: self.build_ns.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_stores: self.disk_stores.load(Ordering::Relaxed),
            disk_rejects: self.disk_rejects.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("plans", &self.plan_count())
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("build_ns", &s.build_ns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::HonestStrategy;
    use crate::phase2::flag_broadcast;
    use nab_netgraph::gen;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl Gk {
        /// The flag charge [`Gk::flag_charge`] keeps for `kind`, if any.
        pub(crate) fn cached_flag_charge(&self, kind: BroadcastKind) -> Option<f64> {
            self.flag_charges[kind as usize].get().copied()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On random `2f+1`-connected graphs (n ≤ 10, f ≤ 2), with 0 to f
        /// removed nodes and `f_residual` to match, the memoised flag
        /// charge of either kind is the f64 of a fresh `flag_broadcast`
        /// on a formula clock, bit for bit, whatever the flags say; a
        /// clone reads the same slot; and where Phase-King lacks the
        /// `n > 4·f_residual` participants it needs, it charges what EIG
        /// does.
        #[test]
        fn flag_charge_memo_is_bit_identical_to_a_fresh_replay(
            seed in any::<u64>(),
            n in 4usize..=10,
            f in 0usize..=2,
            max_cap in 1u64..5,
        ) {
            // `n ≥ 3f + 1`, and `random_k_connected` needs `n > 2f + 2`.
            let f = f.min((n - 1) / 3).min((n - 3) / 2);
            let mut rng = StdRng::seed_from_u64(seed);
            let g = gen::random_k_connected(n, 2 * f + 1, max_cap, 0.3, &mut rng);
            let Ok(plan) = ExecutionPlan::build(g, f) else {
                return Ok(());
            };
            let mut disputes = DisputeState::new();
            for removed in 0..=f {
                // Remove one more node that is not the source.
                while disputes.removed.len() < removed {
                    disputes.removed.insert(rng.gen_range(1..n));
                }
                let gk = if removed == 0 {
                    plan.g1().clone()
                } else {
                    match Gk::derive(plan.graph(), &disputes) {
                        Ok(gk) => gk,
                        Err(_) => continue,
                    }
                };
                let participants: Vec<NodeId> = gk.graph().nodes().collect();
                let f_residual = f - removed;
                let mut charges = Vec::new();
                for kind in [BroadcastKind::Eig, BroadcastKind::PhaseKing] {
                    prop_assert_eq!(gk.cached_flag_charge(kind), None);
                    let memo = gk.flag_charge(&plan, kind);
                    let computed = participants.iter().map(|&v| (v, rng.gen_bool(0.5))).collect();
                    let fresh = flag_broadcast(
                        plan.router(),
                        &participants,
                        f_residual,
                        &computed,
                        &BTreeSet::new(),
                        &mut HonestStrategy,
                        kind,
                        &mut FormulaClock::default(),
                    );
                    prop_assert_eq!(memo.to_bits(), fresh.duration.to_bits(), "{:?}, {} removed", kind, removed);
                    let clone = gk.clone();
                    prop_assert_eq!(clone.cached_flag_charge(kind).map(f64::to_bits), Some(memo.to_bits()));
                    prop_assert_eq!(clone.flag_charge(&plan, kind).to_bits(), memo.to_bits());
                    charges.push(memo.to_bits());
                }
                if participants.len() <= 4 * f_residual {
                    prop_assert_eq!(charges[0], charges[1], "Phase-King falls back to EIG");
                }
            }
        }
    }

    #[test]
    fn plan_captures_network_quantities() {
        let g = gen::complete(4, 2);
        let plan = ExecutionPlan::build(g.clone(), 1).unwrap();
        assert_eq!(plan.graph(), &g);
        assert_eq!(plan.f(), 1);
        assert_eq!(plan.gamma0(), gamma_k(&g, SOURCE));
        assert_eq!(plan.rho0(), rho_k(&g, 1, &BTreeSet::new()).unwrap());
        assert_eq!(plan.trees0().len(), plan.gamma0() as usize);
        assert_eq!(plan.router().copies(), 3);
        // K4 cap 2 admits the Theorem-1 packing of ρ₁ spanning trees.
        let u = nab_netgraph::UnGraph::from_digraph(plan.graph());
        let trees = nab_netgraph::treepack::pack_spanning_trees(&u, plan.rho0() as usize)
            .expect("packing exists");
        assert_eq!(trees.len(), plan.rho0() as usize);
    }

    /// The row layout a `G_k` caches gives the scheme
    /// `CodingScheme::random` lays out from scratch — the same stack and
    /// the same rows — on `G_1` and on a derived `G_k`, at several seeds.
    #[test]
    fn cached_row_layout_schemes_equal_random() {
        let plan = ExecutionPlan::build(gen::complete(5, 2), 1).unwrap();
        let mut disputes = DisputeState::new();
        disputes.pairs.insert((1, 3));
        let mut gk = Gk::derive(plan.graph(), &disputes).unwrap();
        gk.set_rho(rho_k(gk.graph(), 1, &disputes.pairs).unwrap());
        assert_ne!(gk.equality().unwrap().1, plan.g1().equality().unwrap().1);
        for gk in [plan.g1(), &gk] {
            let (rho, layout) = gk.equality().unwrap().clone();
            for seed in [0, 1, 42, u64::MAX] {
                let cached = CodingScheme::drawn(Arc::clone(&layout), rho as usize, seed);
                let fresh = CodingScheme::random(gk.graph(), rho as usize, seed);
                assert_eq!(cached.stacked(), fresh.stacked());
                for (_, e) in gk.graph().edges() {
                    assert_eq!(cached.rows(e.src, e.dst), fresh.rows(e.src, e.dst));
                }
            }
        }
    }

    #[test]
    fn plan_rejects_bad_networks_like_the_engine() {
        assert!(matches!(
            ExecutionPlan::build(gen::complete(3, 1), 1),
            Err(NabError::TooManyFaults { n: 3, f: 1 })
        ));
        assert!(matches!(
            ExecutionPlan::build(gen::ring(5, 1), 1),
            Err(NabError::InsufficientConnectivity)
        ));
        // γ₁ = 3·cap: just under `MAX_TREES` packs; just over it, and over
        // the packer's `u32` cells, is refused before packing.
        let cap = MAX_TREES / 3;
        assert!(ExecutionPlan::build(gen::complete(4, cap), 1).is_ok());
        for cap in [cap + 1, 1 << 31] {
            assert!(matches!(
                ExecutionPlan::build(gen::complete(4, cap), 1),
                Err(NabError::TooManyTrees { gamma }) if gamma == 3 * cap
            ));
        }
        // A replan is refused too: K5 whose node 4 has links of 1 and the
        // rest links of 2^20 plans at γ₁ = 4, but with node 4 excluded
        // `G_k` is a K4 of γ_k = 3·2^20.
        let mut g = DiGraph::new(5);
        for a in 0..5 {
            for b in (0..5).filter(|&b| b != a) {
                g.add_edge(a, b, if a == 4 || b == 4 { 1 } else { 1 << 20 });
            }
        }
        let plan = ExecutionPlan::build(g, 1).unwrap();
        assert_eq!(plan.gamma0(), 4);
        let mut disputes = DisputeState::new();
        disputes.removed.insert(4);
        assert!(matches!(
            Gk::derive(plan.graph(), &disputes),
            Err(NabError::TooManyTrees { gamma }) if gamma == 3 << 20
        ));
    }

    #[test]
    fn instance_scheme_matches_direct_construction() {
        let g = gen::complete(4, 2);
        let plan = ExecutionPlan::build(g.clone(), 1).unwrap();
        let a = plan.instance_scheme(42, 1);
        let b = CodingScheme::random(&g, plan.rho0() as usize, 43);
        let v = crate::value::Value::from_u64s(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(a.encode(0, 1, &v), b.encode(0, 1, &v));
    }

    #[test]
    fn bounds_are_cached_per_budget() {
        let g = gen::complete(4, 2);
        let plan = ExecutionPlan::build(g.clone(), 1).unwrap();
        let first = plan.bounds_report(1 << 14);
        let again = plan.bounds_report(1 << 14);
        assert_eq!(first, again);
        assert_eq!(
            first,
            crate::bounds::bounds_report(&g, SOURCE, 1, 1 << 14),
            "cached bounds equal direct computation"
        );
        // A different budget gets its own deterministic result — a plan
        // reused across sweeps must never serve one sweep's budget to
        // another (budget 2 forces the inexact γ* fallback on this graph).
        let tiny = plan.bounds_report(2);
        assert_eq!(
            tiny,
            crate::bounds::bounds_report(&g, SOURCE, 1, 2),
            "per-budget cache: small budget computed on its own terms"
        );
        assert!(!tiny.unwrap().gamma_star.exact);
        assert!(first.unwrap().gamma_star.exact);
    }

    #[test]
    fn cache_hits_on_identical_networks_and_counts() {
        let cache = PlanCache::new();
        let g = gen::complete(5, 2);
        let a = cache.fetch(&g, 1).unwrap();
        assert!(!a.hit);
        assert!(a.build_ns > 0);
        let b = cache.fetch(&g.clone(), 1).unwrap();
        assert!(b.hit);
        assert_eq!(b.build_ns, 0);
        assert!(Arc::ptr_eq(&a.plan, &b.plan), "hit returns the shared plan");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.build_ns >= a.build_ns);
        assert_eq!(cache.plan_count(), 1);
    }

    #[test]
    fn cache_distinguishes_f_and_capacities() {
        let cache = PlanCache::new();
        let p1 = cache.fetch(&gen::complete(7, 2), 1).unwrap().plan;
        let p2 = cache.fetch(&gen::complete(7, 2), 2).unwrap().plan;
        let p3 = cache.fetch(&gen::complete(7, 4), 1).unwrap().plan;
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.plan_count(), 3);
        assert_eq!(p1.router().copies(), 3);
        assert_eq!(p2.router().copies(), 5);
    }

    #[test]
    fn cache_does_not_cache_failures() {
        let cache = PlanCache::new();
        let g = gen::ring(5, 1);
        assert!(cache.fetch(&g, 1).is_err());
        assert!(cache.fetch(&g, 1).is_err());
        assert_eq!(cache.plan_count(), 0);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn disk_tier_warms_fresh_caches() {
        let dir = std::env::temp_dir().join(format!("nab-plan-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = gen::complete(5, 2);
        let c1 = PlanCache::with_dir(&dir);
        let a = c1.fetch(&g, 1).unwrap();
        assert!(!a.hit);
        assert_eq!(c1.stats().disk_stores, 1);
        // A fresh cache (new process, conceptually) starts warm from disk.
        let c2 = PlanCache::with_dir(&dir);
        let b = c2.fetch(&g, 1).unwrap();
        assert!(b.hit, "disk entry substitutes for the build");
        let s = c2.stats();
        assert_eq!((s.misses, s.disk_hits, s.disk_rejects), (0, 1, 0));
        assert_eq!(b.plan.trees0(), a.plan.trees0());
        assert_eq!(b.plan.gamma0(), a.plan.gamma0());
        assert_eq!(b.plan.rho0(), a.plan.rho0());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_fetches_share_one_plan() {
        let cache = PlanCache::new();
        let g = gen::complete(6, 2);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| cache.fetch(&g, 1).unwrap().plan))
                .collect();
            let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for p in &plans[1..] {
                assert!(Arc::ptr_eq(&plans[0], p));
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 4);
        assert_eq!(s.misses, 1, "write-lock build deduplicates");
    }
}
