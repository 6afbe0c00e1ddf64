//! The GLAP simulator's benchmark: four named scenarios driven through
//! the program's public entry points.
//!
//! * [`run_plain`] is the end-to-end measurement. It composes
//!   `build_world` → `build_policy` → `run_simulation_resumable` →
//!   `RunResult::from_run` + `bfd_baseline` with the profiler, the
//!   tracer and allocation counting off, and times each call.
//! * [`run_traced`] drives the same calls from this crate's own code —
//!   including the day loop, one call at a time — so each layer can be
//!   timed. Inside training it only reads the spans the observational
//!   `glap-profile` profiler already records, which keeps the
//!   production training engine.
//!
//! Both check their output ([`check_run`]) and report the simulated
//! outcomes ([`Outcomes`]), whose digest must match between the two.

pub mod args;
pub mod metrics;
mod plain;
mod traced;
mod workload;

pub use metrics::Metrics;
pub use plain::{run_plain, PlainRun};
pub use traced::run_traced;
pub use workload::{Bench, Workload};

use glap_cluster::DataCenter;
use glap_metrics::RunResult;

/// The simulated outcomes of one run: what the paper's figures report.
/// Deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcomes {
    /// Mean active PMs per round (Fig. 6).
    pub active_pms_mean: f64,
    /// Mean share of active PMs that are overloaded, in percent (Fig. 7).
    pub overload_pct: f64,
    /// Migrations over the day (Figs. 8/9).
    pub migrations: u64,
    /// SLA violation, `SLAVO × SLALM` (Table 1).
    pub slav: f64,
    /// FNV-1a digest of the whole encoded [`RunResult`].
    pub digest: u64,
}

impl Outcomes {
    /// Summarizes a finished run.
    pub fn of(result: &RunResult) -> Outcomes {
        Outcomes {
            active_pms_mean: result.collector.mean_active_pms(),
            overload_pct: 100.0 * result.collector.mean_overloaded_fraction(),
            migrations: result.collector.total_migrations(),
            slav: result.sla.slav,
            digest: fnv1a(&glap_experiments::encode_result(result)),
        }
    }

    /// Appends the outcomes (all but the digest) as metrics.
    pub fn push_to(&self, m: &mut Metrics) {
        m.push("active_pms_mean", self.active_pms_mean, "count");
        m.push("overload_pct", self.overload_pct, "%");
        m.push("migrations", self.migrations as f64, "count");
        m.push("slav", self.slav, "ratio");
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The output check every run must pass: the final world is internally
/// consistent, every VM is placed, the day ran every round, and the
/// simulated outcomes are finite.
pub fn check_run(dc: &DataCenter, result: &RunResult, rounds: u64) -> Result<(), String> {
    dc.check_invariants()?;
    if let Some(vm) = dc.vms().find(|v| v.host.is_none()) {
        return Err(format!("VM {} is not placed", vm.id.0));
    }
    let sampled = result.collector.samples.len() as u64;
    if sampled != rounds {
        return Err(format!("{sampled} rounds sampled, {rounds} simulated"));
    }
    let o = Outcomes::of(result);
    for (name, v) in [
        ("active_pms_mean", o.active_pms_mean),
        ("overload_pct", o.overload_pct),
        ("slav", o.slav),
        ("slavo", result.sla.slavo),
        ("slalm", result.sla.slalm),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(format!("{name} = {v} is not a finite non-negative number"));
        }
    }
    if result.bfd_bins == 0 {
        return Err("BFD baseline packed the fleet into 0 PMs".into());
    }
    Ok(())
}

/// Median of `xs` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}
