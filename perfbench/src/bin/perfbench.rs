//! The untraced end-to-end run of one workload in a fresh process
//! (so its peak RSS is its own). Prints one JSON record on stdout.
//!
//! ```text
//! perfbench --workload paper_cell --seed 7
//! ```

use glap_perfbench::{args, metrics::record_json, run_plain, Outcomes};
use glap_profile::peak_rss_bytes;

/// `build_world` calls per process; `setup_s` is their median.
const SETUPS: usize = 2;

fn main() {
    let bench = args::parse("perfbench");
    let run = run_plain(&bench, SETUPS);
    let mut metrics = run.metrics();
    let rss = peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1e6);
    metrics.push("peak_rss_mb", rss, "MB");
    println!(
        "{}",
        record_json(&metrics, &Outcomes::of(&run.result), &run.check)
    );
}
