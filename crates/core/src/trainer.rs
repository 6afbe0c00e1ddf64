//! The end-to-end two-phase training pipeline.
//!
//! One engine runs every configuration over the flat [`QArena`]: the
//! learning phase (Algorithm 1) for a configured number of rounds —
//! stepping the workload so VM averages accumulate, exactly like the
//! paper's 700 pre-run rounds — then the aggregation phase (Algorithm 2)
//! until the PMs' tables unify. Tracing, similarity recording (the
//! Figure 5 series), profiling, codecs and the worker count change what
//! is observed or which aggregation step runs, never the engine.

use crate::aggregation::{
    aggregation_round, build_agg_plan, emit_exchanges, mean_pairwise_similarity_by,
    round_start_sizes, AggIo,
};
use crate::config::GlapConfig;
use crate::learning::{
    duplicate_profiles, gather_profiles, gather_profiles_into, is_eligible, local_train,
    local_train_with, required_duplication,
};
use glap_cluster::{DataCenter, DemandSource, PmId, VmProfile};
use glap_codec::{CodecKind, FleetCodecs};
use glap_cyclon::{CyclonNode, CyclonOverlay, RoundIo};
use glap_dcsim::{stream_rng, SimRng, Stream};
use glap_par::parallel_for_each_timed;
use glap_profile::Profiler;
use glap_qlearn::{PairCaches, QArena, QTablePair};
use glap_telemetry::{ConvergenceMonitor, EventKind, OverlayHealth, Phase, Tracer};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which phase a similarity sample was taken in (Figure 5 plots the
/// learning phase as "WOG" — without gossip — and the aggregation phase as
/// "WG").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainPhase {
    /// Learning phase (local training only).
    Learning,
    /// Aggregation phase (gossip merging).
    Aggregation,
}

/// Record of a training run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// `(phase, round-within-phase, mean pairwise cosine similarity)`.
    pub similarity: Vec<(TrainPhase, usize, f64)>,
    /// Number of PMs that ran at least one local training round.
    pub pms_trained: usize,
    /// Total Bellman updates applied.
    pub updates: u64,
}

/// How many random PM pairs to sample per similarity measurement.
const SIMILARITY_SAMPLE_PAIRS: usize = 300;

/// Runs the full two-phase training protocol.
///
/// Steps `dc` through `cfg.learning_rounds` workload rounds (so averages
/// accumulate), training eligible PMs each round, then runs
/// `cfg.aggregation_rounds` of gossip merging. Returns the per-PM tables
/// and a report. Set `record_similarity` to collect the Figure 5 series
/// (costs one sampled similarity sweep per round).
pub fn train<D: DemandSource + ?Sized>(
    dc: &mut DataCenter,
    trace: &mut D,
    cfg: &GlapConfig,
    master_seed: u64,
    record_similarity: bool,
) -> (Vec<QTablePair>, TrainReport) {
    let (tables, report, _) = train_instrumented(
        dc,
        trace,
        cfg,
        master_seed,
        record_similarity,
        &Tracer::off(),
        None,
        &Profiler::off(),
    );
    (tables, report)
}

/// [`train_arena`] with the tables exported as boxed per-PM pairs.
#[allow(clippy::too_many_arguments)]
pub fn train_instrumented<D: DemandSource + ?Sized>(
    dc: &mut DataCenter,
    trace: &mut D,
    cfg: &GlapConfig,
    master_seed: u64,
    record_similarity: bool,
    tracer: &Tracer,
    threads: Option<usize>,
    profiler: &Profiler,
) -> (Vec<QTablePair>, TrainReport, ConvergenceMonitor) {
    let _train_span = profiler.span("train");
    let (arena, report, monitor) = run_engine(
        dc,
        trace,
        cfg,
        master_seed,
        record_similarity,
        tracer,
        threads,
        profiler,
    );
    (arena.export(), report, monitor)
}

/// The training engine: `cfg.learning_rounds` learning rounds, then
/// `cfg.aggregation_rounds` aggregation rounds, over one flat
/// [`QArena`] that is returned as is — uncoded runs never hold `n` boxed
/// pairs next to the slab.
///
/// * `record_similarity` appends the Figure 5 series to the report
///   (one sampled similarity sweep per round, drawing from the shared
///   learning RNG exactly where the series always has).
/// * With `tracer` on, every round emits its shuffle and merge events
///   and counters, and records a
///   [`ConvergenceSample`](glap_telemetry::ConvergenceSample) — the
///   population diameter (the machine-checkable face of Theorem 1),
///   mean cosine similarity to the unified table, and overlay health —
///   emitted as a `convergence_sampled` event stamped with the phase
///   and round. The monitor stays empty with the tracer off.
/// * `threads` sizes the worker pool (`None` resolves through
///   `glap_par::resolve_threads`). Each PM draws from its own
///   `Stream::LearningPm(pm)` RNG and merges run in vertex-disjoint
///   waves, so every thread count gives the same bytes.
/// * `profiler` records the spans `train` → `learn_round`
///   {`workload_step`, `shuffle`, `fanout`, `local_train` (+ per-worker
///   `worker_busy`/`worker_idle` samples), `similarity`, `convergence`}
///   and `agg_round` {`shuffle`, `merge`, `similarity`, `convergence`}.
///
/// Tracing, similarity and profiling read no randomness the run does not
/// already draw, so with them off or on the tables are the same. A
/// non-identity `cfg.codec` keeps the serial coded aggregation round
/// (codec state is per peer): the arena is exported once after the last
/// learning round and imported back once at the end.
#[allow(clippy::too_many_arguments)]
pub fn train_arena<D: DemandSource + ?Sized>(
    dc: &mut DataCenter,
    trace: &mut D,
    cfg: &GlapConfig,
    master_seed: u64,
    record_similarity: bool,
    tracer: &Tracer,
    threads: Option<usize>,
    profiler: &Profiler,
) -> (QArena, TrainReport, ConvergenceMonitor) {
    let _train_span = profiler.span("train");
    run_engine(
        dc,
        trace,
        cfg,
        master_seed,
        record_similarity,
        tracer,
        threads,
        profiler,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_engine<D: DemandSource + ?Sized>(
    dc: &mut DataCenter,
    trace: &mut D,
    cfg: &GlapConfig,
    master_seed: u64,
    record_similarity: bool,
    tracer: &Tracer,
    threads: Option<usize>,
    profiler: &Profiler,
) -> (QArena, TrainReport, ConvergenceMonitor) {
    cfg.validate().expect("invalid GLAP config");
    let mut ctx = TrainerCtx::new(dc, cfg, master_seed, threads, tracer, record_similarity);
    tracer.set_phase(Phase::Learning);
    for round in 0..cfg.learning_rounds {
        ctx.learn_round(dc, trace, round, profiler);
    }
    tracer.set_phase(Phase::Aggregation);
    if cfg.codec == CodecKind::Identity {
        for round in 0..cfg.aggregation_rounds {
            ctx.agg_round(round, profiler);
        }
    } else {
        ctx.coded_agg_rounds(profiler);
    }
    ctx.report.pms_trained = ctx.trained.iter().filter(|&&t| t).count();
    (ctx.arena, ctx.report, ctx.monitor)
}

/// Per-PM training workspace, persisting across learning rounds so the
/// hot loop never re-allocates its profile list or shuffle indices.
#[derive(Default)]
struct LearnScratch {
    profiles: Vec<VmProfile>,
    idxs: Vec<usize>,
}

/// One eligible PM's unit of work for a learning round: disjoint `&mut`
/// borrows of everything the PM touches (its RNG stream, its overlay
/// slot, its scratch, its row-max caches), with its tables reached
/// through a shared [`ArenaPtr`](glap_qlearn::ArenaPtr). The worker pool
/// can run the units in any order or interleaving without changing a
/// single byte of the result.
struct LearnTask<'a> {
    pm: PmId,
    rng: &'a mut SimRng,
    node: &'a mut CyclonNode,
    scratch: &'a mut LearnScratch,
    caches: &'a mut PairCaches,
}

/// The training engine's round-stage state: `{arena, overlay, RNG
/// cursors, per-PM scratch}` plus what the run observes. One method per
/// round shape; observation happens at round boundaries only.
struct TrainerCtx<'t> {
    cfg: GlapConfig,
    threads: Option<usize>,
    tracer: &'t Tracer,
    record_similarity: bool,
    arena: QArena,
    caches: Vec<PairCaches>,
    overlay: CyclonOverlay,
    overlay_rng: SimRng,
    learn_rng: SimRng,
    pm_rngs: Vec<SimRng>,
    scratch: Vec<LearnScratch>,
    trained: Vec<bool>,
    report: TrainReport,
    monitor: ConvergenceMonitor,
    /// Convergence-sample buffers: the unified reference vector and the
    /// liveness mask, reused across samples.
    reference: Vec<f64>,
    alive: Vec<bool>,
}

impl<'t> TrainerCtx<'t> {
    fn new(
        dc: &DataCenter,
        cfg: &GlapConfig,
        master_seed: u64,
        threads: Option<usize>,
        tracer: &'t Tracer,
        record_similarity: bool,
    ) -> Self {
        let n = dc.n_pms();
        let mut overlay = CyclonOverlay::new(n, cfg.cyclon_cache, cfg.cyclon_shuffle);
        let mut overlay_rng = stream_rng(master_seed, Stream::Overlay);
        overlay.bootstrap_random(&mut overlay_rng);
        for pm in dc.pms() {
            if !pm.is_active() {
                overlay.set_dead(pm.id().0);
            }
        }
        TrainerCtx {
            cfg: *cfg,
            threads,
            tracer,
            record_similarity,
            arena: QArena::from_env(n, cfg.qparams),
            caches: (0..n).map(|_| PairCaches::default()).collect(),
            overlay,
            overlay_rng,
            learn_rng: stream_rng(master_seed, Stream::Learning),
            pm_rngs: (0..n)
                .map(|i| stream_rng(master_seed, Stream::LearningPm(i as u32)))
                .collect(),
            scratch: (0..n).map(|_| LearnScratch::default()).collect(),
            trained: vec![false; n],
            report: TrainReport::default(),
            monitor: ConvergenceMonitor::new(),
            reference: Vec::new(),
            alive: Vec::new(),
        }
    }

    /// One learning round: workload step, overlay shuffle, then every
    /// eligible PM (from the data center's dirty-set index) trains on its
    /// own and one neighbour's VM profiles, in parallel.
    fn learn_round<D: DemandSource + ?Sized>(
        &mut self,
        dc: &mut DataCenter,
        trace: &mut D,
        round: usize,
        profiler: &Profiler,
    ) {
        let _round_span = profiler.span("learn_round");
        self.tracer.begin_round(round as u64);
        {
            let _s = profiler.span("workload_step");
            dc.step(trace);
        }
        {
            let _s = profiler.span("shuffle");
            self.overlay
                .run_round(&mut self.overlay_rng, RoundIo::traced(self.tracer));
        }
        let fanout_span = profiler.span("fanout");
        dc.refresh_eligibility(self.cfg.learning_threshold);
        let elig = dc.eligible_flags();
        let view = dc.view();
        let ptr = self.arena.as_ptr();
        let (nodes, alive) = self.overlay.split_mut();
        let mut tasks: Vec<LearnTask<'_>> = self
            .pm_rngs
            .iter_mut()
            .zip(nodes.iter_mut())
            .zip(self.scratch.iter_mut())
            .zip(self.caches.iter_mut())
            .enumerate()
            .filter(|&(i, _)| elig[i])
            .map(|(i, (((rng, node), scratch), caches))| LearnTask {
                pm: PmId(i as u32),
                rng,
                node,
                scratch,
                caches,
            })
            .collect();
        drop(fanout_span);
        let train_span = profiler.span("local_train");
        let (dup, iters) = (self.cfg.profile_duplication, self.cfg.learning_iterations);
        let timing = parallel_for_each_timed(&mut tasks, self.threads, |t| {
            let neighbor = CyclonOverlay::random_alive_peer_in(t.node, alive, t.rng).map(PmId);
            gather_profiles_into(view, t.pm, neighbor, dup, &mut t.scratch.profiles);
            t.caches.reset();
            // SAFETY: tasks carry disjoint PM indices, so this view is
            // the only access to PM `pm`'s slots; the arena outlives the
            // pool run.
            let mut pair = unsafe { ptr.pair_mut(t.pm.0 as usize, t.caches) };
            local_train_with(
                &mut pair,
                &t.scratch.profiles,
                iters,
                t.rng,
                &mut t.scratch.idxs,
            );
        });
        if profiler.is_on() {
            for w in &timing.workers {
                profiler.record_concurrent_ns("worker_busy", w.busy_ns);
                profiler
                    .record_concurrent_ns("worker_idle", timing.wall_ns.saturating_sub(w.busy_ns));
            }
        }
        drop(train_span);
        for t in &tasks {
            self.trained[t.pm.0 as usize] = true;
            self.report.updates += 2 * iters as u64;
        }
        self.observe(TrainPhase::Learning, round, profiler);
        self.tracer.end_round();
    }

    /// One uncoded aggregation round: shuffle, plan, merge waves, then
    /// the round's events and counters in exchange order.
    fn agg_round(&mut self, round: usize, profiler: &Profiler) {
        let _round_span = profiler.span("agg_round");
        self.tracer.begin_round(round as u64);
        {
            let _s = profiler.span("shuffle");
            self.overlay
                .run_round(&mut self.overlay_rng, RoundIo::traced(self.tracer));
        }
        {
            let _s = profiler.span("merge");
            let mut plan = build_agg_plan(&mut self.overlay, &mut self.learn_rng, self.threads);
            let arena = &self.arena;
            let sizes =
                round_start_sizes(Some(self.tracer), arena.len(), |i| arena.trained_pairs(i));
            let ptr = self.arena.as_ptr();
            for wave in plan.by_wave.iter_mut() {
                glap_par::parallel_for_each(wave, self.threads, |x| {
                    // SAFETY: wave pairs are vertex-disjoint (see
                    // AggPlan); the arena outlives the pool run.
                    unsafe {
                        ptr.merge_pms(x.p as usize, x.q as usize);
                        x.merged = ptr.trained_pairs(x.p as usize) as u64;
                    }
                });
            }
            emit_exchanges(&plan, sizes, Some(self.tracer), None);
        }
        self.observe(TrainPhase::Aggregation, round, profiler);
        self.tracer.end_round();
    }

    /// The aggregation phase for a non-identity codec: the serial coded
    /// [`aggregation_round`] on boxed tables, exported once and imported
    /// back once at the end. Observed rounds copy the tables into the
    /// arena first, so the same sampler reads them.
    fn coded_agg_rounds(&mut self, profiler: &Profiler) {
        let mut tables = self.arena.export();
        let mut codecs = FleetCodecs::new(tables.len(), self.cfg.codec);
        let observed = self.record_similarity || self.tracer.is_on();
        for round in 0..self.cfg.aggregation_rounds {
            let _round_span = profiler.span("agg_round");
            self.tracer.begin_round(round as u64);
            {
                let _s = profiler.span("shuffle");
                self.overlay
                    .run_round(&mut self.overlay_rng, RoundIo::traced(self.tracer));
            }
            {
                let _s = profiler.span("merge");
                let io = AggIo::traced(self.tracer).with_codec(&mut codecs);
                aggregation_round(&mut tables, &mut self.overlay, &mut self.learn_rng, io);
            }
            if observed {
                self.import(&tables);
            }
            self.observe(TrainPhase::Aggregation, round, profiler);
            self.tracer.end_round();
        }
        self.import(&tables);
    }

    fn import(&mut self, tables: &[QTablePair]) {
        for (i, t) in tables.iter().enumerate() {
            self.arena.import_pm(i, t);
        }
    }

    /// Round-boundary observation: the similarity sample (when recording)
    /// and the convergence sample (when tracing).
    fn observe(&mut self, phase: TrainPhase, round: usize, profiler: &Profiler) {
        if self.record_similarity {
            let _s = profiler.span("similarity");
            let arena = &self.arena;
            let sim = mean_pairwise_similarity_by(
                arena.len(),
                &self.overlay,
                SIMILARITY_SAMPLE_PAIRS,
                &mut self.learn_rng,
                |i, j| arena.cosine_similarity_pms(i, j),
            );
            self.report.similarity.push((phase, round, sim));
        }
        if self.tracer.is_on() {
            let _s = profiler.span("convergence");
            let phase = match phase {
                TrainPhase::Learning => Phase::Learning,
                TrainPhase::Aggregation => Phase::Aggregation,
            };
            self.sample_convergence(phase, round as u64);
        }
    }

    /// One monitor sample: population diameter + cosine-vs-unified over
    /// the alive PMs' arena rows, plus overlay health, recorded into the
    /// monitor and emitted as a `convergence_sampled` event. Reads no
    /// randomness, so it cannot perturb the run.
    fn sample_convergence(&mut self, phase: Phase, cycle: u64) {
        let (arena, overlay) = (&self.arena, &self.overlay);
        let unified = unified_arena_table(arena);
        self.reference.clear();
        self.reference.extend_from_slice(unified.out.raw_values());
        self.reference.extend_from_slice(unified.r#in.raw_values());
        self.alive.clear();
        self.alive
            .extend((0..overlay.len()).map(|i| overlay.is_alive(i as u32)));
        let health = OverlayHealth::from_in_degrees(
            &overlay.in_degrees(),
            &self.alive,
            overlay.is_connected(),
        );
        let rows = (0..arena.len())
            .filter(|&i| overlay.is_alive(i as u32))
            .map(|i| arena.pm_values(i));
        let sample = self
            .monitor
            .record(phase, cycle, rows, &self.reference, health);
        self.tracer.emit(EventKind::ConvergenceSampled {
            cycle: cycle as u32,
            diameter: sample.diameter,
            cosine: sample.mean_cosine_to_ref,
            alive: health.alive as u32,
            connected: health.connected,
        });
    }
}

/// Collapses per-PM tables into one unified table by merging everything —
/// the fixed point the gossip converges to (union of keys, averaged
/// values). Used to hand one shared table to the consolidation component
/// after convergence.
pub fn unified_table(tables: &[QTablePair]) -> QTablePair {
    let mut unified = tables.first().cloned().unwrap_or_default();
    for t in &tables[1..] {
        unified.merge(t);
    }
    unified
}

/// [`unified_table`] over an arena's PMs without exporting them: the
/// same left-to-right fold, bit-equal to `unified_table(&arena.export())`,
/// walking only each PM's visited rows.
pub fn unified_arena_table(arena: &QArena) -> QTablePair {
    if arena.is_empty() {
        return QTablePair::default();
    }
    let mut unified = arena.export_pm(0);
    for i in 1..arena.len() {
        arena.merge_pm_into(i, &mut unified);
    }
    unified
}

/// Re-runs the two-phase protocol *in place* on a live data center —
/// no workload stepping, using the demand averages the VMs have already
/// accumulated in production. This is the paper's re-trigger path:
/// "the learning component runs as required by a predefined policy, e.g.
/// if the arrival and departure rates of VMs exceed a threshold compared
/// to the last learning time or based on a fixed time interval" (§IV-B).
///
/// `passes` controls how many local-training sweeps each eligible PM runs
/// (each sweep applies `cfg.learning_iterations` simulated migrations).
/// Returns the unified post-aggregation table.
pub fn retrain_in_place<R: Rng>(
    dc: &DataCenter,
    cfg: &GlapConfig,
    passes: usize,
    rng: &mut R,
) -> QTablePair {
    let n = dc.n_pms();
    let mut tables: Vec<QTablePair> = (0..n).map(|_| QTablePair::new(cfg.qparams)).collect();
    let mut overlay = CyclonOverlay::new(n, cfg.cyclon_cache, cfg.cyclon_shuffle);
    // Bootstrap with the live membership: sleeping PMs are out.
    overlay.bootstrap_random(rng);
    for pm in dc.pms() {
        if !pm.is_active() {
            overlay.set_dead(pm.id().0);
        }
    }
    for _ in 0..passes {
        overlay.run_round(rng, RoundIo::default());
        for (i, table) in tables.iter_mut().enumerate() {
            let pm = PmId(i as u32);
            if !is_eligible(dc, pm, cfg) {
                continue;
            }
            let neighbor = overlay.random_alive_peer(i as u32, rng).map(PmId);
            // Adaptive duplication: on a consolidated cluster the eligible
            // PMs are the light ones, so the fixed factor is not enough to
            // cover high-load states ("duplicate vms if required").
            let base = gather_profiles(dc, pm, neighbor, 1);
            let dup = required_duplication(&base, cfg.profile_duplication);
            let profiles = duplicate_profiles(base, dup);
            local_train(table, &profiles, cfg.learning_iterations, rng);
        }
    }
    let mut codecs = (cfg.codec != CodecKind::Identity).then(|| FleetCodecs::new(n, cfg.codec));
    for _ in 0..cfg.aggregation_rounds {
        overlay.run_round(rng, RoundIo::default());
        let mut io = AggIo::default();
        if let Some(codecs) = codecs.as_mut() {
            io = io.with_codec(codecs);
        }
        aggregation_round(&mut tables, &mut overlay, rng, io);
    }
    unified_table(&tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_pass::{capture, pair_bytes, train_two_pass};
    use glap_cluster::{DataCenterConfig, Resources, VmId, VmSpec};

    fn setup(n_pms: usize, ratio: usize) -> DataCenter {
        let mut dc = DataCenter::new(DataCenterConfig::paper(n_pms));
        for _ in 0..n_pms * ratio {
            dc.add_vm(VmSpec::EC2_MICRO);
        }
        let mut rng = stream_rng(1, Stream::Placement);
        dc.random_placement(&mut rng);
        dc
    }

    fn small_cfg() -> GlapConfig {
        GlapConfig {
            learning_rounds: 10,
            aggregation_rounds: 10,
            learning_iterations: 10,
            ..Default::default()
        }
    }

    fn wave_trace(vm: VmId, round: u64) -> Resources {
        let x = 0.3 + 0.25 * ((round as f64 / 7.0) + vm.0 as f64).sin();
        Resources::splat(x)
    }

    #[test]
    fn training_produces_knowledge_and_convergence() {
        let mut dc = setup(30, 3);
        let cfg = small_cfg();
        let (tables, report) = train(&mut dc, &mut wave_trace, &cfg, 42, true);
        assert!(report.pms_trained > 0);
        assert!(report.updates > 0);
        assert!(tables.iter().any(|t| t.trained_pairs() > 0));
        // Similarity series: learning phase entries then aggregation.
        let learn_sims: Vec<f64> = report
            .similarity
            .iter()
            .filter(|(p, _, _)| *p == TrainPhase::Learning)
            .map(|&(_, _, s)| s)
            .collect();
        let agg_sims: Vec<f64> = report
            .similarity
            .iter()
            .filter(|(p, _, _)| *p == TrainPhase::Aggregation)
            .map(|&(_, _, s)| s)
            .collect();
        assert_eq!(learn_sims.len(), cfg.learning_rounds);
        assert_eq!(agg_sims.len(), cfg.aggregation_rounds);
        // The paper's headline: aggregation drives similarity near 1.
        let final_sim = *agg_sims.last().unwrap();
        assert!(final_sim > 0.99, "final similarity {final_sim}");
        // And learning alone plateaus lower than the aggregated result.
        let final_learn = *learn_sims.last().unwrap();
        assert!(
            final_learn < final_sim,
            "WOG {final_learn} vs WG {final_sim}"
        );
    }

    #[test]
    fn unified_table_covers_union_of_knowledge() {
        let mut dc = setup(20, 2);
        let (tables, _) = train(&mut dc, &mut wave_trace, &small_cfg(), 7, false);
        let uni = unified_table(&tables);
        let max_individual = tables.iter().map(|t| t.trained_pairs()).max().unwrap();
        assert!(uni.trained_pairs() >= max_individual);
    }

    #[test]
    fn training_is_deterministic() {
        let run = |seed: u64| {
            let mut dc = setup(15, 2);
            let (tables, _) = train(&mut dc, &mut wave_trace, &small_cfg(), seed, false);
            unified_table(&tables)
        };
        assert_eq!(run(9), run(9));
    }

    fn world(sleep_some: bool) -> DataCenter {
        let mut dc = setup(25, 2);
        if sleep_some {
            let empty: Vec<PmId> = dc.pms().filter(|p| p.is_empty()).map(|p| p.id()).collect();
            for pm in empty {
                dc.sleep_if_empty(pm);
            }
        }
        dc
    }

    /// The arena engine (dirty-set eligibility, masked merges, row-max
    /// caches, round-boundary observation) must reproduce the two-pass
    /// oracle bit for bit — tables, report, similarity and convergence
    /// series, event stream and per-round counters — at any thread
    /// count, with sleeping PMs in the mix, for the identity and delta
    /// codecs, and across the aggregation-round edge cases.
    #[test]
    fn arena_engine_matches_two_pass_reference_bitwise() {
        for codec in [CodecKind::Identity, CodecKind::Delta] {
            for (agg_rounds, sleep_some) in [(10usize, false), (10, true), (0, false), (1, true)] {
                let cfg = GlapConfig {
                    aggregation_rounds: agg_rounds,
                    codec,
                    ..small_cfg()
                };
                let want = capture(|tracer| {
                    let mut dc = world(sleep_some);
                    train_two_pass(&mut dc, &mut wave_trace, &cfg, 77, true, tracer, Some(1))
                });
                assert!(!want.events.is_empty());
                for threads in [1usize, 4] {
                    let got = capture(|tracer| {
                        let mut dc = world(sleep_some);
                        let (arena, report, monitor) = train_arena(
                            &mut dc,
                            &mut wave_trace,
                            &cfg,
                            77,
                            true,
                            tracer,
                            Some(threads),
                            &Profiler::off(),
                        );
                        (arena.export(), report, monitor)
                    });
                    assert_eq!(
                        got, want,
                        "codec={codec} agg_rounds={agg_rounds} sleep={sleep_some} threads={threads}"
                    );
                }
            }
        }
    }

    /// `train_arena` returns the same tables `train` exports, without
    /// the boxed materialization, and its unified table folds straight
    /// off the arena bit for bit.
    #[test]
    fn train_arena_matches_boxed_export() {
        let cfg = small_cfg();
        let boxed = {
            let mut dc = setup(20, 2);
            train(&mut dc, &mut wave_trace, &cfg, 13, false).0
        };
        let mut dc = setup(20, 2);
        let (arena, report, monitor) = train_arena(
            &mut dc,
            &mut wave_trace,
            &cfg,
            13,
            false,
            &Tracer::off(),
            None,
            &Profiler::off(),
        );
        assert!(report.pms_trained > 0);
        assert!(monitor.samples.is_empty(), "untraced runs sample nothing");
        for (i, b) in boxed.iter().enumerate() {
            assert_eq!(arena.export_pm(i), *b, "pm {i}");
        }
        assert_eq!(
            pair_bytes(&unified_arena_table(&arena)),
            pair_bytes(&unified_table(&boxed))
        );
    }

    /// Coded runs keep their pre-arena bytes: arena learning followed by
    /// the serial coded aggregation equals the oracle end to end.
    #[test]
    fn coded_runs_match_two_pass_reference_bitwise() {
        let cfg = GlapConfig {
            codec: CodecKind::Delta,
            ..small_cfg()
        };
        let reference = {
            let mut dc = setup(20, 2);
            let (tables, _, _) = train_two_pass(
                &mut dc,
                &mut wave_trace,
                &cfg,
                5,
                false,
                &Tracer::off(),
                None,
            );
            tables.iter().map(pair_bytes).collect::<Vec<_>>()
        };
        let mut dc = setup(20, 2);
        let (tables, _) = train(&mut dc, &mut wave_trace, &cfg, 5, false);
        assert_eq!(tables.iter().map(pair_bytes).collect::<Vec<_>>(), reference);
    }

    #[test]
    fn sleeping_pms_do_not_train() {
        let mut dc = setup(10, 2);
        // Empty PM 0 by construction is unlikely; force-sleep an empty one
        // if any, otherwise skip.
        let empty: Vec<PmId> = dc.pms().filter(|p| p.is_empty()).map(|p| p.id()).collect();
        for pm in &empty {
            dc.sleep_if_empty(*pm);
        }
        let (_, report) = train(&mut dc, &mut wave_trace, &small_cfg(), 3, false);
        assert!(report.pms_trained <= 10 - empty.len());
    }
}
