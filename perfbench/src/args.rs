//! Command-line arguments shared by the two benchmark binaries.

use crate::{Bench, Workload};

/// `--workload <name> --seed <n>`. Exits with a usage message on
/// anything else.
pub fn parse(bin: &str) -> Bench {
    let usage = || -> ! {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        eprintln!("usage: {bin} --workload <{}> --seed <n>", names.join("|"));
        std::process::exit(2)
    };
    let (mut workload, mut seed) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    match (workload, seed) {
        (Some(w), Some(s)) => w.bench(s),
        _ => usage(),
    }
}
