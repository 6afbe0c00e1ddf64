//! The two-pass training engine, kept as a test oracle for
//! [`glap::train_arena`]: boxed per-PM tables, full-scan eligibility,
//! separate learn and aggregate sweeps, and a convergence sampler that
//! copies every alive table into one dense matrix. Slow and simple on
//! purpose; the identity tests pin the production engine against it bit
//! for bit, observation included.
//!
//! Shared by the `glap` unit tests and the `proptests` integration
//! suite, so it names the library as `glap` in both.

use glap::aggregation::{
    aggregation_round, aggregation_round_sharded, mean_pairwise_similarity, AggIo,
};
use glap::{
    gather_profiles_into, is_eligible, local_train_with, unified_table, GlapConfig, TrainPhase,
    TrainReport,
};
use glap_cluster::{DataCenter, DemandSource, PmId, VmProfile};
use glap_codec::{CodecKind, FleetCodecs};
use glap_cyclon::{CyclonNode, CyclonOverlay, RoundIo};
use glap_dcsim::{stream_rng, SimRng, Stream};
use glap_par::parallel_for_each;
use glap_qlearn::QTablePair;
use glap_snapshot::{Checkpointable, Writer};
use glap_telemetry::{ConvergenceMonitor, EventKind, OverlayHealth, Phase, Tracer};

/// Pairs per similarity sample — the production engine's figure.
const SIMILARITY_SAMPLE_PAIRS: usize = 300;

#[derive(Default)]
struct LearnScratch {
    profiles: Vec<VmProfile>,
    idxs: Vec<usize>,
}

struct LearnTask<'a> {
    pm: PmId,
    table: &'a mut QTablePair,
    rng: &'a mut SimRng,
    node: &'a mut CyclonNode,
    scratch: &'a mut LearnScratch,
}

/// Population diameter and cosine-vs-unified over a dense copy of the
/// alive tables, plus overlay health.
fn sample_convergence(
    monitor: &mut ConvergenceMonitor,
    tracer: &Tracer,
    phase: Phase,
    cycle: u64,
    tables: &[QTablePair],
    overlay: &CyclonOverlay,
) {
    let dim = tables
        .first()
        .map(|t| t.out.raw_values().len() + t.r#in.raw_values().len())
        .unwrap_or(0);
    let mut flat = Vec::new();
    for (i, t) in tables.iter().enumerate() {
        if overlay.is_alive(i as u32) {
            flat.extend_from_slice(t.out.raw_values());
            flat.extend_from_slice(t.r#in.raw_values());
        }
    }
    let unified = unified_table(tables);
    let mut reference = unified.out.raw_values().to_vec();
    reference.extend_from_slice(unified.r#in.raw_values());
    let alive: Vec<bool> = (0..overlay.len())
        .map(|i| overlay.is_alive(i as u32))
        .collect();
    let health =
        OverlayHealth::from_in_degrees(&overlay.in_degrees(), &alive, overlay.is_connected());
    let sample = monitor.record(
        phase,
        cycle,
        flat.chunks_exact(dim.max(1)),
        &reference,
        health,
    );
    tracer.emit(EventKind::ConvergenceSampled {
        cycle: cycle as u32,
        diameter: sample.diameter,
        cosine: sample.mean_cosine_to_ref,
        alive: health.alive as u32,
        connected: health.connected,
    });
}

/// The oracle: [`glap::train_instrumented`]'s arguments (less the
/// profiler) and results.
#[allow(clippy::too_many_arguments)]
pub fn train_two_pass<D: DemandSource + ?Sized>(
    dc: &mut DataCenter,
    trace: &mut D,
    cfg: &GlapConfig,
    master_seed: u64,
    record_similarity: bool,
    tracer: &Tracer,
    threads: Option<usize>,
) -> (Vec<QTablePair>, TrainReport, ConvergenceMonitor) {
    let n = dc.n_pms();
    let mut tables: Vec<QTablePair> = (0..n).map(|_| QTablePair::new(cfg.qparams)).collect();
    let mut overlay = CyclonOverlay::new(n, cfg.cyclon_cache, cfg.cyclon_shuffle);
    let mut overlay_rng = stream_rng(master_seed, Stream::Overlay);
    let mut learn_rng = stream_rng(master_seed, Stream::Learning);
    overlay.bootstrap_random(&mut overlay_rng);
    for pm in dc.pms() {
        if !pm.is_active() {
            overlay.set_dead(pm.id().0);
        }
    }

    let mut report = TrainReport::default();
    let mut monitor = ConvergenceMonitor::new();
    let mut trained = vec![false; n];
    let mut pm_rngs: Vec<SimRng> = (0..n)
        .map(|i| stream_rng(master_seed, Stream::LearningPm(i as u32)))
        .collect();
    let mut scratch: Vec<LearnScratch> = (0..n).map(|_| LearnScratch::default()).collect();

    tracer.set_phase(Phase::Learning);
    for round in 0..cfg.learning_rounds {
        tracer.begin_round(round as u64);
        dc.step(trace);
        overlay.run_round(&mut overlay_rng, RoundIo::traced(tracer));
        let view = dc.view();
        let (nodes, alive) = overlay.split_mut();
        let mut tasks: Vec<LearnTask<'_>> = tables
            .iter_mut()
            .zip(pm_rngs.iter_mut())
            .zip(nodes.iter_mut())
            .zip(scratch.iter_mut())
            .enumerate()
            .filter(|(i, _)| is_eligible(dc, PmId(*i as u32), cfg))
            .map(|(i, (((table, rng), node), scr))| LearnTask {
                pm: PmId(i as u32),
                table,
                rng,
                node,
                scratch: scr,
            })
            .collect();
        parallel_for_each(&mut tasks, threads, |t| {
            let neighbor = CyclonOverlay::random_alive_peer_in(t.node, alive, t.rng).map(PmId);
            gather_profiles_into(
                view,
                t.pm,
                neighbor,
                cfg.profile_duplication,
                &mut t.scratch.profiles,
            );
            local_train_with(
                t.table,
                &t.scratch.profiles,
                cfg.learning_iterations,
                t.rng,
                &mut t.scratch.idxs,
            );
        });
        for t in &tasks {
            trained[t.pm.0 as usize] = true;
            report.updates += 2 * cfg.learning_iterations as u64;
        }
        if record_similarity {
            let sim = mean_pairwise_similarity(
                &tables,
                &overlay,
                SIMILARITY_SAMPLE_PAIRS,
                &mut learn_rng,
            );
            report.similarity.push((TrainPhase::Learning, round, sim));
        }
        if tracer.is_on() {
            let cycle = round as u64;
            sample_convergence(
                &mut monitor,
                tracer,
                Phase::Learning,
                cycle,
                &tables,
                &overlay,
            );
        }
        tracer.end_round();
    }

    tracer.set_phase(Phase::Aggregation);
    let mut codecs = (cfg.codec != CodecKind::Identity).then(|| FleetCodecs::new(n, cfg.codec));
    for round in 0..cfg.aggregation_rounds {
        tracer.begin_round(round as u64);
        overlay.run_round(&mut overlay_rng, RoundIo::traced(tracer));
        if let Some(codecs) = codecs.as_mut() {
            let io = AggIo::traced(tracer).with_codec(codecs);
            aggregation_round(&mut tables, &mut overlay, &mut learn_rng, io);
        } else {
            aggregation_round_sharded(
                &mut tables,
                &mut overlay,
                &mut learn_rng,
                threads,
                AggIo::traced(tracer),
            );
        }
        if record_similarity {
            let sim = mean_pairwise_similarity(
                &tables,
                &overlay,
                SIMILARITY_SAMPLE_PAIRS,
                &mut learn_rng,
            );
            report
                .similarity
                .push((TrainPhase::Aggregation, round, sim));
        }
        if tracer.is_on() {
            let cycle = round as u64;
            sample_convergence(
                &mut monitor,
                tracer,
                Phase::Aggregation,
                cycle,
                &tables,
                &overlay,
            );
        }
        tracer.end_round();
    }

    report.pms_trained = trained.iter().filter(|&&t| t).count();
    (tables, report, monitor)
}

/// Exact encoded bytes of a table pair — the strictest equality there
/// is (distinguishes even -0.0 from 0.0).
pub fn pair_bytes(t: &QTablePair) -> Vec<u8> {
    let mut w = Writer::new();
    t.save(&mut w);
    w.into_bytes()
}

/// Everything a traced training run returns or emits, in comparable
/// form: table bytes, the report (similarity series included), the
/// convergence series, the JSONL event lines and the per-round counter
/// and histogram CSVs.
#[derive(Debug, PartialEq)]
pub struct Capture {
    pub tables: Vec<Vec<u8>>,
    pub report: String,
    pub monitor: String,
    pub events: Vec<String>,
    pub counters: String,
}

/// Runs `train` against a fresh in-memory tracer and captures it all.
pub fn capture(
    train: impl FnOnce(&Tracer) -> (Vec<QTablePair>, TrainReport, ConvergenceMonitor),
) -> Capture {
    let (tracer, sink) = Tracer::memory();
    let (tables, report, monitor) = train(&tracer);
    Capture {
        tables: tables.iter().map(pair_bytes).collect(),
        report: format!("{report:?}"),
        monitor: format!("{:?}", monitor.samples),
        events: sink.events().iter().map(|e| e.to_json()).collect(),
        counters: tracer.counters_csv() + &tracer.histograms_csv(),
    }
}
