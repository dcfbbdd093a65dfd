//! Full-stack determinism: identical seeds must give bit-identical
//! simulation outcomes, across mechanisms and attack scenarios; different
//! seeds must actually differ.

use coop_attacks::AttackPlan;
use coop_incentives::MechanismKind;
use coop_swarm::{flash_crowd, SimResult, Simulation, SwarmConfig};

fn config(seed: u64) -> SwarmConfig {
    let mut c = SwarmConfig::tiny_test();
    c.seed = seed;
    c
}

fn run(kind: MechanismKind, seed: u64, plan: Option<AttackPlan>) -> SimResult {
    let config = config(seed);
    let population = flash_crowd(&config, 14, kind, seed);
    let mut builder = Simulation::builder(config).population(population);
    if let Some(plan) = plan {
        builder = builder.attack_plan(plan);
    }
    builder.build().unwrap().run()
}

fn fingerprint(r: &SimResult) -> Vec<(u64, u64, u64, Option<u64>)> {
    r.peers
        .iter()
        .map(|p| {
            (
                p.bytes_sent,
                p.bytes_received_raw,
                p.bytes_received_usable,
                p.completion_s.map(|c| (c * 1000.0) as u64),
            )
        })
        .collect()
}

#[test]
fn identical_seeds_identical_runs_all_mechanisms() {
    for kind in MechanismKind::ALL {
        let a = run(kind, 77, None);
        let b = run(kind, 77, None);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{kind}");
        assert_eq!(a.rounds_run, b.rounds_run, "{kind}");
        assert_eq!(a.totals, b.totals, "{kind}");
        assert_eq!(
            a.fairness_avg.points(),
            b.fairness_avg.points(),
            "{kind} time series"
        );
    }
}

#[test]
fn identical_seeds_identical_runs_under_attack() {
    for kind in [
        MechanismKind::TChain,
        MechanismKind::FairTorrent,
        MechanismKind::Reputation,
    ] {
        let plan = AttackPlan::with_large_view(kind, 0.2);
        let a = run(kind, 88, Some(plan));
        let b = run(kind, 88, Some(plan));
        assert_eq!(fingerprint(&a), fingerprint(&b), "{kind}");
        assert_eq!(
            a.susceptibility.points(),
            b.susceptibility.points(),
            "{kind}"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(MechanismKind::BitTorrent, 1, None);
    let b = run(MechanismKind::BitTorrent, 2, None);
    assert_ne!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn analysis_is_pure() {
    use coop_experiments::runners::table3;
    use coop_experiments::{Scale, ScopedOutputDir};
    let _out = ScopedOutputDir::temp("analysis_is_pure");
    let a = table3::run(Scale::Quick, 5);
    let b = table3::run(Scale::Quick, 5);
    assert_eq!(a.pi_ir, b.pi_ir);
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(x.exploitable_bps, y.exploitable_bps);
        assert_eq!(x.collusion_probability, y.collusion_probability);
    }
}
