//! The four benchmark workloads. Each is a full scenario of the paper's
//! evaluation (§V-A) chosen to stress a different layer; the seed picks
//! the repetition (`Scenario::rep`), which drives every RNG stream.

use glap::GlapConfig;
use glap_codec::CodecKind;
use glap_dcsim::FaultProfile;
use glap_experiments::{Algorithm, Scenario, VmMix};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GLAP on the paper's largest cell: 2000 PMs × ratio 4, 100
    /// learning + 30 aggregation rounds, a 720-round day.
    PaperCell,
    /// GLAP on 6000 PMs × ratio 2, 40 learning + 30 aggregation rounds,
    /// a 120-round day: the dense Q-table arena and the Cyclon bootstrap
    /// dominate. (With 20 learning rounds the learned policy falls into
    /// one of two modes depending on the seed, and the outcomes with it.)
    LargeFleet,
    /// GLAP on 500 PMs × ratio 4 with the mixed VM fleet, the `delta`
    /// codec, a faulty network and an in-memory checkpoint every 60
    /// rounds.
    CodedFaulty,
    /// PABFD on 1000 PMs × ratio 2 over a 720-round day: no learning,
    /// codec or Cyclon work at all.
    PabfdDay,
}

/// A workload instantiated for one seed.
#[derive(Debug, Clone)]
pub struct Bench {
    /// The scenario the public entry points run.
    pub scenario: Scenario,
    /// Encode an in-memory checkpoint every this many day rounds (0 =
    /// never).
    pub checkpoint_every: u64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperCell,
        Workload::LargeFleet,
        Workload::CodedFaulty,
        Workload::PabfdDay,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCell => "paper_cell",
            Workload::LargeFleet => "large_fleet",
            Workload::CodedFaulty => "coded_faulty",
            Workload::PabfdDay => "pabfd_day",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload for seed `seed`.
    pub fn bench(self, seed: u64) -> Bench {
        let rep = usize::try_from(seed).expect("seed fits the repetition index");
        let paper = |n_pms, ratio, algorithm| Scenario::paper(n_pms, ratio, rep, algorithm);
        let (scenario, checkpoint_every) = match self {
            Workload::PaperCell => (paper(2000, 4, Algorithm::Glap), 0),
            Workload::LargeFleet => (
                Scenario {
                    rounds: 120,
                    glap: GlapConfig {
                        learning_rounds: 40,
                        aggregation_rounds: 30,
                        ..GlapConfig::default()
                    },
                    ..paper(6000, 2, Algorithm::Glap)
                },
                0,
            ),
            Workload::CodedFaulty => (
                Scenario {
                    glap: GlapConfig {
                        codec: CodecKind::Delta,
                        ..GlapConfig::default()
                    },
                    vm_mix: VmMix::Mixed,
                    fault: FaultProfile::faulty(0.05, 0.01, 0.2),
                    ..paper(500, 4, Algorithm::Glap)
                },
                60,
            ),
            Workload::PabfdDay => (paper(1000, 2, Algorithm::Pabfd), 0),
        };
        Bench {
            scenario,
            checkpoint_every,
        }
    }
}
