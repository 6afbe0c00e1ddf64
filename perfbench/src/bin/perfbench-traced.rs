//! The traced run of one workload: per-layer metrics, with allocation
//! counting on. Prints one JSON record on stdout.
//!
//! ```text
//! perfbench-traced --workload paper_cell --seed 7
//! ```

use glap_perfbench::{args, metrics::record_json, run_traced};

#[global_allocator]
static ALLOC: glap_profile::CountingAllocator = glap_profile::CountingAllocator;

fn main() {
    let bench = args::parse("perfbench-traced");
    let (metrics, outcomes, check) = run_traced(&bench);
    println!("{}", record_json(&metrics, &outcomes, &check));
}
