//! The untraced end-to-end run: the program's public entry points,
//! composed exactly as `run_scenario` composes them, each call timed.

use crate::{check_run, median, Bench, Metrics, Outcomes};
use glap_baselines::bfd_baseline;
use glap_cluster::DataCenter;
use glap_dcsim::{
    run_simulation_resumable, stream_rng, CheckpointArgs, NetworkModel, Observer, Stream,
};
use glap_experiments::{build_policy, build_world, encode_checkpoint};
use glap_metrics::{MetricsCollector, RunResult};
use glap_profile::Profiler;
use glap_snapshot::SnapshotError;
use glap_telemetry::Tracer;
use glap_workload::OffsetTrace;
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// A `build_policy` call shorter than this is re-timed in batches: a
/// single sub-millisecond reading is mostly clock noise.
const BATCH_BELOW_S: f64 = 1e-3;

/// One untraced run.
pub struct PlainRun {
    /// Every `build_world` timing, in seconds.
    pub setup_samples: Vec<f64>,
    /// `build_policy`, in seconds.
    pub train_s: f64,
    /// The measured day including policy init and result assembly, in
    /// seconds.
    pub day_s: f64,
    /// The run's result bundle.
    pub result: RunResult,
    /// The output check's verdict.
    pub check: Result<(), String>,
}

impl PlainRun {
    /// The median `build_world` time.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_samples)
    }

    /// Setup + train + day.
    pub fn total_s(&self) -> f64 {
        self.setup_s() + self.train_s + self.day_s
    }

    /// The end-to-end metrics this run measured (peak RSS is the
    /// caller's: it is a property of the whole process).
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("setup_s", self.setup_s(), "s");
        m.push("train_s", self.train_s, "s");
        m.push("day_s", self.day_s, "s");
        m.push("total_s", self.total_s(), "s");
        Outcomes::of(&self.result).push_to(&mut m);
        m
    }
}

/// Runs a workload end to end with all observation off. `build_world`
/// runs `setups` times (the last world is kept; the worlds are
/// identical).
pub fn run_plain(bench: &Bench, setups: usize) -> PlainRun {
    let sc = &bench.scenario;
    let mut setup_samples = Vec::with_capacity(setups);
    let mut world = None;
    for _ in 0..setups.max(1) {
        drop(world.take());
        let t = Instant::now();
        world = Some(build_world(sc));
        setup_samples.push(t.elapsed().as_secs_f64());
    }
    let (mut dc, trace) = world.expect("at least one setup");

    let t = Instant::now();
    let mut policy = build_policy(sc, &dc, &trace);
    let mut train_s = t.elapsed().as_secs_f64();
    if train_s < BATCH_BELOW_S {
        train_s = batched_seconds(|| drop(black_box(build_policy(sc, &dc, &trace))));
    }

    let t = Instant::now();
    let mut day = OffsetTrace::new(&trace, sc.glap.learning_rounds as u64);
    let collector = Rc::new(RefCell::new(MetricsCollector::new()));
    let mut observer = SharedCollector(collector.clone());
    let mut net = NetworkModel::new(sc.n_pms, sc.fault.clone(), sc.policy_seed());
    let mut rng = stream_rng(sc.policy_seed(), Stream::Policy);
    let hook_collector = collector.clone();
    let mut hook = move |args: &CheckpointArgs<'_>| -> Result<(), SnapshotError> {
        black_box(encode_checkpoint(sc, args, &hook_collector.borrow()));
        Ok(())
    };
    run_simulation_resumable(
        &mut dc,
        &mut day,
        policy.as_mut(),
        &mut [&mut observer],
        sc.rounds,
        &mut net,
        &Tracer::off(),
        &Profiler::off(),
        &mut rng,
        true,
        bench.checkpoint_every,
        &mut hook,
    )
    .expect("in-memory checkpoints cannot fail");
    drop(observer);
    drop(hook);
    let collector = Rc::try_unwrap(collector)
        .map_err(|_| ())
        .expect("observer and hook are done")
        .into_inner();
    let mut result = RunResult::from_run(sc.algorithm.label(), collector, &dc);
    result.bfd_bins = bfd_baseline(&dc);
    let day_s = t.elapsed().as_secs_f64();

    let check = check_run(&dc, &result, sc.rounds);
    PlainRun {
        setup_samples,
        train_s,
        day_s,
        result,
        check,
    }
}

/// Lets the engine and the checkpoint hook share the collector, the way
/// `run_scenario_checkpointed` does.
struct SharedCollector(Rc<RefCell<MetricsCollector>>);

impl Observer for SharedCollector {
    fn on_round_end(&mut self, round: u64, dc: &mut DataCenter) {
        self.0.borrow_mut().on_round_end(round, dc);
    }
}

/// Per-call seconds of a very short call: the median over 15 batches
/// sized to about a millisecond each.
fn batched_seconds(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((BATCH_BELOW_S / once) as usize).clamp(1, 1_000_000);
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    median(&samples)
}
