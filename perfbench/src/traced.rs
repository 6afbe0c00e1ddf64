//! The traced run: the same calls as [`run_plain`](crate::run_plain),
//! driven one at a time from this crate so each layer can be timed.
//!
//! Three phases, each with a named unattributed remainder
//! (`trace.*_gap_s`):
//!
//! * **setup** — `build_world` split into placement and trace synthesis;
//! * **train** — `build_policy` for GLAP: the world copy,
//!   `train_instrumented` under the observational `glap-profile`
//!   profiler (never the telemetry tracer, which would switch training
//!   onto the two-pass engine), `unified_table`, policy construction;
//! * **day** — the engine loop unrolled: `policy.init`, then per round
//!   `dc.step` / `net.begin_round` / `policy.round` / the collector's
//!   `on_round_end` / the checkpoint encode, then result assembly.
//!
//! Probes that are not part of the run — the Cyclon bootstrap replay
//! and one codec exchange — run outside the phase timers.

use crate::{check_run, median, Bench, Metrics, Outcomes};
use glap::{train_instrumented, unified_table, GlapPolicy, TableStore};
use glap_baselines::bfd_baseline;
use glap_cluster::{DataCenter, DataCenterConfig};
use glap_codec::{AnyCodec, CodecKind, TableCodec};
use glap_cyclon::CyclonOverlay;
use glap_dcsim::{stream_rng, CheckpointArgs, ConsolidationPolicy, NetworkModel, RoundCtx, Stream};
use glap_experiments::{build_policy, encode_checkpoint, Algorithm, Scenario};
use glap_metrics::{MetricsCollector, RunResult};
use glap_profile::{alloc_stats, ProfileReport, Profiler};
use glap_qlearn::QTablePair;
use glap_snapshot::Writer;
use glap_telemetry::Tracer;
use glap_workload::{GoogleLikeTraceGen, MaterializedTrace, OffsetTrace};
use std::hint::black_box;
use std::time::Instant;

/// Percentiles tried, highest first, for the policy-round tail: the
/// reported one is the highest with at least 10 samples beyond it.
const TAIL_PERCENTILES: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Runs a workload with per-layer timing. Returns the per-layer
/// metrics, the simulated outcomes and the output check's verdict.
pub fn run_traced(bench: &Bench) -> (Metrics, Outcomes, Result<(), String>) {
    let sc = &bench.scenario;
    let mut m = Metrics::default();

    // Setup: `build_world`, call by call.
    let setup_t = Instant::now();
    let t = Instant::now();
    let mut dc = DataCenter::new(DataCenterConfig::paper(sc.n_pms));
    for i in 0..sc.n_vms() {
        dc.add_vm(sc.vm_mix.spec(i));
    }
    dc.random_placement(&mut stream_rng(sc.world_seed(), Stream::Placement));
    let placement_s = secs(t);
    let t = Instant::now();
    let trace = GoogleLikeTraceGen::new(sc.trace_cfg).generate(
        sc.n_vms(),
        sc.glap.learning_rounds + sc.rounds as usize,
        &mut stream_rng(sc.world_seed(), Stream::Trace),
    );
    let generate_s = secs(t);
    let setup_s = secs(setup_t);
    m.push("workload.generate_s", generate_s, "s");
    m.push("cluster.placement_s", placement_s, "s");

    // Train: `build_policy`.
    let (mut policy, train) = match sc.algorithm {
        Algorithm::Glap => train_glap(sc, &dc, &trace),
        Algorithm::Pabfd => {
            let t = Instant::now();
            let policy = build_policy(sc, &dc, &trace);
            let train = TrainLayers {
                total_s: secs(t),
                ..TrainLayers::default()
            };
            (policy, train)
        }
        other => panic!("no benchmark workload runs {}", other.label()),
    };
    train.push_to(&mut m, sc.n_pms);

    // Day: the engine loop, one call at a time.
    let (day, result) = run_day(bench, &mut dc, &trace, policy.as_mut());
    drop(policy);
    day.push_to(&mut m, sc.algorithm);

    // Probes outside the timed phases.
    let bootstrap_s = match sc.algorithm {
        Algorithm::Glap => bootstrap_seconds(sc),
        _ => 0.0,
    };
    m.push("cyclon.bootstrap_s", bootstrap_s, "s");

    // Coverage: the bootstrap inside `train_instrumented` has no span; it
    // is credited with the replayed cost of the identical call, capped by
    // the train span's own unattributed time.
    let bootstrap_credit = bootstrap_s.min(train.train_self_s);
    let setup_gap = setup_s - placement_s - generate_s;
    let train_gap = train.total_s - train.attributed_s() - bootstrap_credit;
    let day_gap = day.total_s - day.attributed_s();
    let total_s = setup_s + train.total_s + day.total_s;
    m.push("trace.setup_gap_s", setup_gap, "s");
    m.push("trace.train_gap_s", train_gap, "s");
    m.push("trace.day_gap_s", day_gap, "s");
    m.push("trace.total_s", total_s, "s");
    let covered = total_s - setup_gap - train_gap - day_gap;
    m.push("trace.coverage_pct", 100.0 * covered / total_s, "%");

    let check = check_run(&dc, &result, sc.rounds);
    (m, Outcomes::of(&result), check)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Per-layer readings of the train phase.
#[derive(Default)]
struct TrainLayers {
    total_s: f64,
    profile: Option<ProfileReport>,
    /// The `train` span minus its child spans.
    train_self_s: f64,
    unify_s: f64,
    alloc_bytes: u64,
    updates: u64,
    pms_trained: usize,
    /// Dense cells per Q-table, and visited cells over all PMs' tables.
    cells_per_table: usize,
    visited_cells: usize,
    /// PMs alive in the training overlay (one exchange each per
    /// aggregation round).
    alive_pms: usize,
    exchange_us: f64,
}

impl TrainLayers {
    fn span_s(&self, path: &str) -> f64 {
        self.profile
            .as_ref()
            .and_then(|r| r.span(path))
            .map_or(0.0, |s| s.total_ns as f64 * 1e-9)
    }

    fn p50_ms(&self, path: &str) -> f64 {
        self.profile
            .as_ref()
            .and_then(|r| r.span(path))
            .map_or(0.0, |s| s.p50_ns as f64 * 1e-6)
    }

    /// Summed time of every span named `name`, at any depth.
    fn named_s(&self, name: &str) -> f64 {
        self.profile.as_ref().map_or(0.0, |r| {
            r.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.total_ns as f64 * 1e-9)
                .sum()
        })
    }

    /// Time inside spans the profiler records plus `unified_table`.
    fn attributed_s(&self) -> f64 {
        self.span_s("train") - self.train_self_s + self.unify_s
    }

    fn push_to(&self, m: &mut Metrics, n_pms: usize) {
        let learn_s = self.span_s("train/learn_round");
        m.push("core.learn_s", learn_s, "s");
        m.push(
            "core.learn_round_p50_ms",
            self.p50_ms("train/learn_round"),
            "ms",
        );
        m.push(
            "core.local_train_s",
            self.span_s("train/learn_round/local_train"),
            "s",
        );
        m.push("core.bellman_updates", self.updates as f64, "count");
        m.push(
            "core.pms_trained_frac",
            self.pms_trained as f64 / n_pms as f64,
            "frac",
        );
        let busy = self.named_s("worker_busy");
        let idle = self.named_s("worker_idle");
        let idle_frac = if busy + idle > 0.0 {
            idle / (busy + idle)
        } else {
            0.0
        };
        m.push("par.worker_idle_frac", idle_frac, "frac");
        m.push("cyclon.shuffle_s", self.named_s("shuffle"), "s");
        m.push("core.agg_s", self.span_s("train/agg_round"), "s");
        m.push(
            "core.agg_round_p50_ms",
            self.p50_ms("train/agg_round"),
            "ms",
        );
        m.push("core.fused_round_s", self.span_s("train/fused_round"), "s");
        // Computed: one push-pull exchange per alive PM per round, each
        // reading and writing both endpoints' dense table pairs.
        let pair_bytes = 2 * self.cells_per_table * (size_of::<f64>() + size_of::<bool>());
        let touched = self.alive_pms * 2 * 2 * pair_bytes;
        m.push(
            "core.agg_bytes_touched_mb_per_round",
            touched as f64 / 1e6,
            "MB",
        );
        m.push("core.train_unattributed_s", self.train_self_s, "s");
        m.push("core.unify_s", self.unify_s, "s");
        m.push("core.train_alloc_mb", self.alloc_bytes as f64 / 1e6, "MB");
        m.push("qlearn.table_mb", (n_pms * pair_bytes) as f64 / 1e6, "MB");
        let cells = n_pms * 2 * self.cells_per_table;
        let visited = if cells > 0 {
            self.visited_cells as f64 / cells as f64
        } else {
            0.0
        };
        m.push("qlearn.visited_cell_frac", visited, "frac");
        m.push("codec.exchange_us", self.exchange_us, "us");
    }
}

/// `build_policy` for GLAP, mirrored call by call.
fn train_glap(
    sc: &Scenario,
    dc: &DataCenter,
    trace: &MaterializedTrace,
) -> (Box<dyn ConsolidationPolicy>, TrainLayers) {
    let profiler = Profiler::enabled();
    let t = Instant::now();
    let mut train_dc = dc.clone();
    let mut train_trace = trace.clone();
    let (_, bytes_before) = alloc_stats();
    let (tables, report, _) = train_instrumented(
        &mut train_dc,
        &mut train_trace,
        &sc.glap,
        sc.policy_seed(),
        false,
        &Tracer::off(),
        None,
        &profiler,
    );
    let (_, bytes_after) = alloc_stats();
    drop((train_dc, train_trace));
    let u = Instant::now();
    let unified = unified_table(&tables);
    let unify_s = secs(u);
    let policy = GlapPolicy::new(sc.glap, TableStore::Shared(Box::new(unified)));
    let mut total_s = secs(t);

    // The exchange probe reads the trained tables outside the phase
    // timer; dropping them is part of `build_policy` and is timed.
    let exchange_us = exchange_micros(&tables);
    let cells_per_table = tables.first().map_or(0, |p| p.out.raw_values().len());
    let visited_cells = tables
        .iter()
        .map(|p| p.out.visited_count() + p.r#in.visited_count())
        .sum();
    let t = Instant::now();
    drop(tables);
    total_s += secs(t);

    let profile = profiler.snapshot();
    let train_self_s = profile.span("train").map_or(0.0, |train| {
        let children: u64 = profile
            .spans
            .iter()
            .filter(|s| s.depth == train.depth + 1 && s.path.starts_with(&train.path))
            .filter(|s| !s.concurrent)
            .map(|s| s.total_ns)
            .sum();
        train.total_ns.saturating_sub(children) as f64 * 1e-9
    });
    let layers = TrainLayers {
        total_s,
        profile: Some(profile),
        train_self_s,
        unify_s,
        alloc_bytes: bytes_after - bytes_before,
        updates: report.updates,
        pms_trained: report.pms_trained,
        cells_per_table,
        visited_cells,
        alive_pms: dc.active_pm_count(),
        exchange_us,
    };
    (Box::new(policy), layers)
}

/// One `delta` exchange (push, apply, reply) between the two PMs with
/// the most visited cells, on fresh codecs: the median of 21, in µs.
fn exchange_micros(tables: &[QTablePair]) -> f64 {
    let mut by_visits: Vec<usize> = (0..tables.len()).collect();
    by_visits.sort_by_key(|&i| std::cmp::Reverse(tables[i].trained_pairs()));
    let [a, b] = [by_visits[0], by_visits[1]];
    let samples: Vec<f64> = (0..21)
        .map(|_| {
            let (mut ta, mut tb) = (tables[a].clone(), tables[b].clone());
            let mut ca = AnyCodec::new(CodecKind::Delta);
            let mut cb = AnyCodec::new(CodecKind::Delta);
            let t = Instant::now();
            let push = ca.encode_push(b as u32, &ta);
            let reply = cb
                .apply_push(a as u32, &mut tb, &push)
                .expect("a fresh delta exchange decodes");
            ca.apply_reply(b as u32, &mut ta, &reply)
                .expect("a fresh delta reply decodes");
            let us = t.elapsed().as_secs_f64() * 1e6;
            black_box((ta, tb));
            us
        })
        .collect();
    median(&samples)
}

/// `CyclonOverlay::new` + `bootstrap_random` at the workload's size and
/// cache settings, on the policy's overlay stream: the call a GLAP run
/// makes once in training and once in `policy.init`.
fn bootstrap_seconds(sc: &Scenario) -> f64 {
    let t = Instant::now();
    let mut overlay = CyclonOverlay::new(sc.n_pms, sc.glap.cyclon_cache, sc.glap.cyclon_shuffle);
    overlay.bootstrap_random(&mut stream_rng(sc.policy_seed(), Stream::Overlay));
    let s = secs(t);
    black_box(overlay);
    s
}

/// Per-layer readings of the day phase.
struct DayLayers {
    total_s: f64,
    init_s: f64,
    step_us: Vec<f64>,
    net_begin_s: f64,
    round_us: Vec<f64>,
    observe_s: f64,
    snapshot_s: f64,
    snapshot_bytes: usize,
    result_s: f64,
}

impl DayLayers {
    fn attributed_s(&self) -> f64 {
        let sum_us = |xs: &[f64]| xs.iter().sum::<f64>() * 1e-6;
        self.init_s
            + sum_us(&self.step_us)
            + self.net_begin_s
            + sum_us(&self.round_us)
            + self.observe_s
            + self.snapshot_s
            + self.result_s
    }

    fn push_to(&self, m: &mut Metrics, algorithm: Algorithm) {
        m.push(
            "cluster.step_s",
            self.step_us.iter().sum::<f64>() * 1e-6,
            "s",
        );
        m.push("cluster.step_p50_us", median(&self.step_us), "us");
        m.push("dcsim.net_begin_s", self.net_begin_s, "s");
        m.push("core.policy_init_s", self.init_s, "s");
        let mut sorted = self.round_us.clone();
        sorted.sort_by(f64::total_cmp);
        let round_s = sorted.iter().sum::<f64>() * 1e-6;
        let n = sorted.len();
        let tail = TAIL_PERCENTILES
            .into_iter()
            .find(|q| (1.0 - q / 100.0) * n as f64 >= 10.0)
            .unwrap_or(50.0);
        let (glap, pabfd) = match algorithm {
            Algorithm::Pabfd => (None, Some(&sorted)),
            _ => (Some(&sorted), None),
        };
        m.push("core.policy_round_s", glap.map_or(0.0, |_| round_s), "s");
        m.push(
            "core.policy_round_p50_us",
            glap.map_or(0.0, |s| median(s)),
            "us",
        );
        m.push(
            "core.policy_round_tail_us",
            glap.map_or(0.0, |s| percentile(s, tail)),
            "us",
        );
        m.push("core.policy_round_tail_pctile", tail, "pctile");
        m.push("core.policy_round_count", n as f64, "count");
        m.push(
            "baselines.pabfd_round_s",
            pabfd.map_or(0.0, |_| round_s),
            "s",
        );
        m.push(
            "baselines.pabfd_round_p50_ms",
            pabfd.map_or(0.0, |s| median(s) * 1e-3),
            "ms",
        );
        m.push("snapshot.encode_s", self.snapshot_s, "s");
        m.push("snapshot.bytes", self.snapshot_bytes as f64, "bytes");
        m.push("metrics.observe_s", self.observe_s, "s");
        m.push("metrics.result_s", self.result_s, "s");
    }
}

/// Nearest-rank percentile `q` (0–100) of sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The measured day: what `run_simulation_resumable` does with the
/// tracer, profiler and debug audit off, one timed call at a time.
fn run_day(
    bench: &Bench,
    dc: &mut DataCenter,
    trace: &MaterializedTrace,
    policy: &mut dyn ConsolidationPolicy,
) -> (DayLayers, RunResult) {
    let sc = &bench.scenario;
    let tracer = Tracer::off();
    let day_t = Instant::now();
    let mut day = OffsetTrace::new(trace, sc.glap.learning_rounds as u64);
    let mut collector = MetricsCollector::new();
    let mut net = NetworkModel::new(sc.n_pms, sc.fault.clone(), sc.policy_seed());
    let mut rng = stream_rng(sc.policy_seed(), Stream::Policy);
    let t = Instant::now();
    policy.init(dc, &mut rng);
    let mut layers = DayLayers {
        total_s: 0.0,
        init_s: secs(t),
        step_us: Vec::with_capacity(sc.rounds as usize),
        net_begin_s: 0.0,
        round_us: Vec::with_capacity(sc.rounds as usize),
        observe_s: 0.0,
        snapshot_s: 0.0,
        snapshot_bytes: 0,
        result_s: 0.0,
    };
    for _ in 0..sc.rounds {
        let round = dc.round();
        let t = Instant::now();
        dc.step(&mut day);
        layers.step_us.push(secs(t) * 1e6);
        let t = Instant::now();
        net.begin_round(round);
        layers.net_begin_s += secs(t);
        let t = Instant::now();
        policy.round(&mut RoundCtx {
            round,
            dc: &mut *dc,
            rng: &mut rng,
            churn_events: 0,
            net: &mut net,
            tracer: &tracer,
        });
        layers.round_us.push(secs(t) * 1e6);
        let t = Instant::now();
        glap_dcsim::Observer::on_round_end(&mut collector, round, dc);
        layers.observe_s += secs(t);
        if bench.checkpoint_every > 0 && dc.round().is_multiple_of(bench.checkpoint_every) {
            let t = Instant::now();
            let mut policy_state = Writer::new();
            policy.save_state(&mut policy_state);
            let args = CheckpointArgs {
                round: dc.round(),
                dc,
                net: &net,
                rng: &rng,
                tracer: &tracer,
                policy_state: policy_state.bytes(),
            };
            let bytes = encode_checkpoint(sc, &args, &collector);
            layers.snapshot_s += secs(t);
            layers.snapshot_bytes = bytes.len();
        }
    }
    let t = Instant::now();
    let mut result = RunResult::from_run(sc.algorithm.label(), collector, dc);
    result.bfd_bins = bfd_baseline(dc);
    layers.result_s = secs(t);
    layers.total_s = secs(day_t);
    (layers, result)
}
