//! The benchmark measures the program, not a look-alike: at a reduced
//! size, both of its composed runs reproduce `run_scenario` exactly, and
//! the `delta` codec of `coded_faulty` is lossless.

use glap::{retrain_in_place, GlapConfig};
use glap_codec::CodecKind;
use glap_dcsim::{stream_rng, Stream};
use glap_experiments::{build_world, run_scenario};
use glap_perfbench::{check_run, run_plain, run_traced, Bench, Outcomes, Workload};

/// `w` at a size a debug build runs in seconds, with every feature of
/// the full workload (algorithm, fleet mix, codec, faults, checkpoints)
/// kept.
fn reduced(w: Workload, seed: u64) -> Bench {
    let mut bench = w.bench(seed);
    let sc = &mut bench.scenario;
    sc.n_pms = 40;
    sc.rounds = 48;
    sc.glap.learning_rounds = 12;
    sc.glap.aggregation_rounds = 6;
    if bench.checkpoint_every > 0 {
        bench.checkpoint_every = 16;
    }
    bench
}

#[test]
fn composed_runs_match_run_scenario() {
    for w in Workload::ALL {
        let bench = reduced(w, 3);
        let reference = run_scenario(&bench.scenario);
        let expected = Outcomes::of(&reference);

        let plain = run_plain(&bench, 2);
        assert_eq!(plain.check, Ok(()), "{}", w.name());
        assert_eq!(
            Outcomes::of(&plain.result),
            expected,
            "{} untraced",
            w.name()
        );

        let (metrics, traced, check) = run_traced(&bench);
        assert_eq!(check, Ok(()), "{}", w.name());
        assert_eq!(traced, expected, "{} traced", w.name());
        let coverage = metrics
            .get("trace.coverage_pct")
            .expect("coverage reported");
        assert!(
            coverage > 0.0 && coverage <= 100.0,
            "{}: {coverage}",
            w.name()
        );
    }
}

#[test]
fn seeds_pick_distinct_worlds() {
    let a = Outcomes::of(&run_plain(&reduced(Workload::PabfdDay, 1), 1).result);
    let b = Outcomes::of(&run_plain(&reduced(Workload::PabfdDay, 2), 1).result);
    assert_ne!(a.digest, b.digest);
}

/// `train_instrumented` routes the identity codec onto the sharded arena
/// engine, whose partner picks come from other RNG streams, so the twin
/// is built on the serial engine both codecs share: `retrain_in_place`
/// on the workload's own world, after some rounds of demand history.
#[test]
fn delta_codec_gives_the_identity_twins_unified_table() {
    let bench = reduced(Workload::CodedFaulty, 5);
    let sc = &bench.scenario;
    assert_eq!(sc.glap.codec, CodecKind::Delta);
    let (mut dc, mut trace) = build_world(sc);
    for _ in 0..sc.glap.learning_rounds {
        dc.step(&mut trace);
    }
    let unified = |codec| {
        let cfg = GlapConfig { codec, ..sc.glap };
        retrain_in_place(
            &dc,
            &cfg,
            3,
            &mut stream_rng(sc.policy_seed(), Stream::Learning),
        )
    };
    let delta = unified(CodecKind::Delta);
    assert!(delta.trained_pairs() > 0, "training visited no cell");
    assert_eq!(delta, unified(CodecKind::Identity));
}

#[test]
fn output_check_rejects_a_short_day() {
    let bench = reduced(Workload::PaperCell, 1);
    let plain = run_plain(&bench, 1);
    let (dc, _) = build_world(&bench.scenario);
    let err = check_run(&dc, &plain.result, bench.scenario.rounds + 1).unwrap_err();
    assert!(err.contains("rounds"), "{err}");
}
