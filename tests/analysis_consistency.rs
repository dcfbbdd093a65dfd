//! Cross-checks between the analytical model's components and against the
//! simulator: the paper's propositions must hold over randomized inputs,
//! and analytic predictions must agree with measured behavior in sign.

use coop_des::rng::SeedTree;
use coop_experiments::runners::{fig4, table2};
use coop_experiments::{Scale, ScopedOutputDir};
use coop_incentives::analysis::bootstrap::{bootstrap_probability, BootstrapParams};
use coop_incentives::analysis::capacity::CapacityClassMix;
use coop_incentives::analysis::equilibrium::{
    download_rates, equilibrium_summary, optimal_download_rates, EquilibriumParams,
};
use coop_incentives::analysis::exchange::{pi_bt, pi_tc, q, PieceCountDistribution};
use coop_incentives::metrics::efficiency_from_rates;
use coop_incentives::MechanismKind;

#[test]
fn lemma1_no_algorithm_beats_the_optimum() {
    // Over many random capacity vectors, every algorithm's equilibrium
    // efficiency is at least the Lemma 1 optimum.
    let mix = CapacityClassMix::paper_default();
    for seed in 0..20 {
        let mut rng = SeedTree::new(seed).rng(1);
        let caps = mix.sample(30, &mut rng);
        let params = EquilibriumParams::default();
        let e_opt = efficiency_from_rates(&optimal_download_rates(&caps, 0.0));
        for kind in MechanismKind::EXTENDED {
            let s = equilibrium_summary(kind, &caps, &params);
            assert!(
                s.efficiency >= e_opt - 1e-9,
                "seed {seed} {kind}: E = {} < optimum {e_opt}",
                s.efficiency
            );
        }
    }
}

#[test]
fn eq1_conservation_in_the_analytic_model() {
    // Σ d_i = Σ u_i for every transferring algorithm in Table I.
    let mix = CapacityClassMix::paper_default();
    for seed in 0..10 {
        let mut rng = SeedTree::new(seed).rng(2);
        let caps = mix.sample(25, &mut rng);
        let params = EquilibriumParams::default();
        for kind in MechanismKind::EXTENDED {
            let d: f64 = download_rates(kind, &caps, &params).iter().sum();
            let u: f64 = match kind {
                MechanismKind::Reciprocity => 0.0,
                _ => caps.total(),
            };
            assert!(
                (d - u).abs() <= 1e-6 * u.max(1.0),
                "{kind} seed {seed}: Σd = {d}, Σu = {u}"
            );
        }
    }
}

#[test]
fn exchange_probabilities_are_probabilities_and_ordered() {
    let m = 48;
    let dist = PieceCountDistribution::uniform(m);
    for m_i in (0..=m).step_by(7) {
        for m_j in (0..=m).step_by(7) {
            let qv = q(m_i, m_j, m);
            assert!((0.0..=1.0).contains(&qv));
            let tc = pi_tc(m_i, m_j, m, &dist, 200);
            let bt = pi_bt(m_i, m_j, m, 0.2);
            assert!((0.0..=1.0).contains(&tc));
            assert!((0.0..=1.0).contains(&bt));
            // Corollary 2: altruism's q(i,j) dominates both.
            assert!(qv >= tc - 1e-12, "({m_i},{m_j})");
            assert!(qv >= bt - 1e-12, "({m_i},{m_j})");
        }
    }
}

#[test]
fn table2_probabilities_monotone_in_z_and_k() {
    let base = BootstrapParams::paper_example();
    for kind in [
        MechanismKind::TChain,
        MechanismKind::Altruism,
        MechanismKind::BitTorrent,
        MechanismKind::FairTorrent,
        MechanismKind::Reputation,
    ] {
        let mut lo = base;
        lo.z = 50;
        let mut hi = base;
        hi.z = 900;
        assert!(
            bootstrap_probability(kind, &hi) >= bootstrap_probability(kind, &lo),
            "{kind} monotone in z"
        );
    }
    // K helps the K-dependent algorithms.
    for kind in [MechanismKind::TChain, MechanismKind::Altruism] {
        let mut lo = base;
        lo.k = 1;
        let mut hi = base;
        hi.k = 10;
        assert!(
            bootstrap_probability(kind, &hi) > bootstrap_probability(kind, &lo),
            "{kind} monotone in K"
        );
    }
}

#[test]
fn analytic_bootstrap_ranking_predicts_simulated_ranking() {
    let _out = ScopedOutputDir::temp("analytic_bootstrap_ranking_predicts_simulated_ranking");
    // Table II's analytic ranking (altruism fastest … reciprocity slowest)
    // must agree with the simulated mean bootstrap times on the extremes.
    let analytic = table2::run(Scale::Quick, 9);
    let simulated = fig4::run(Scale::Quick, 9);
    let a = |k: MechanismKind| analytic.get(k).expected_bootstrap_rounds;
    let s = |k: MechanismKind| simulated.get(k).mean_bootstrap_s.expect("bootstraps");
    // Analytic: altruism is fastest, reciprocity slowest.
    for kind in [
        MechanismKind::TChain,
        MechanismKind::BitTorrent,
        MechanismKind::FairTorrent,
        MechanismKind::Reputation,
        MechanismKind::Reciprocity,
    ] {
        assert!(a(MechanismKind::Altruism) <= a(kind) + 1e-9, "{kind}");
    }
    // Simulated agrees on both extremes.
    assert!(s(MechanismKind::Altruism) < s(MechanismKind::Reciprocity));
    assert!(s(MechanismKind::Reputation) < s(MechanismKind::Reciprocity));
    assert!(s(MechanismKind::Altruism) < s(MechanismKind::Reputation));
}

#[test]
fn epoch_open_fraction_predicts_simulated_susceptibility_ladder() {
    // The Table-I-style epoch row: the closed form's open-epoch fraction
    // λ(e) = e/(e+H) says how much of the epoch-settled mechanism's
    // capacity flows through the unprotected altruistic channel. Running
    // the fig-epoch cadence ladder under its fixed free-ride attack, the
    // simulated susceptibility must track λ: monotone along the ladder,
    // landing on the altruism baseline as λ → 1 (a cadence longer than
    // the run never settles), and well below it at λ ≈ 0.
    use coop_experiments::runners::fig_epoch;
    use coop_experiments::{Executor, OutputDir, TelemetryOpts};
    let dir = std::env::temp_dir().join(format!(
        "coop-epoch-ladder-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (r, _) = fig_epoch::try_run(
        Scale::Quick,
        17,
        Some(&[1, 16, 256]),
        &Executor::default(),
        &TelemetryOpts::disabled(),
        &OutputDir::new(&dir),
    )
    .expect("fig-epoch batch");
    let lambda = |e: u64| {
        r.epoch(e)
            .predicted_open_fraction
            .expect("epoch rung carries λ")
    };
    let s = |e: u64| r.epoch(e).susceptibility;
    assert!(
        lambda(1) < lambda(16) && lambda(16) < lambda(256),
        "λ must grow with the cadence"
    );
    // Simulated susceptibility follows the prediction at the ends of the
    // ladder. The middle is only loosely ordered: λ is a first-order
    // story, and at short cadences the spend granularity works against
    // it (one round's receipts make tiny balances, so most of the budget
    // still falls through to the altruistic channel), which can locally
    // invert the small-e ordering.
    assert!(s(16) <= s(256) + 0.02, "{} vs {}", s(16), s(256));
    assert!(s(1) < s(256), "the ladder endpoints must separate");
    let alt = r.baseline(MechanismKind::Altruism).susceptibility;
    assert!(
        (s(256) - alt).abs() < 0.02,
        "λ→1 rung must land on the altruism baseline ({} vs {alt})",
        s(256)
    );
    assert!(
        s(1) < alt * 0.85,
        "λ≈0 rung must claw back leakage vs altruism ({} vs {alt})",
        s(1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig2_predicts_fig4_fairness_extremes() {
    let _out = ScopedOutputDir::temp("fig2_predicts_fig4_fairness_extremes");
    // The idealized model says T-Chain/FairTorrent are the fairest and
    // altruism the least fair; the simulation must agree.
    let sim = fig4::run(Scale::Quick, 13);
    let f = |k: MechanismKind| sim.get(k).fairness_f;
    assert!(f(MechanismKind::TChain) < f(MechanismKind::Altruism));
    assert!(f(MechanismKind::FairTorrent) < f(MechanismKind::Altruism));
}
