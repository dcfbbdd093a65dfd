//! Ablations beyond the paper's figures: design-choice sweeps DESIGN.md
//! calls out.
//!
//! * `α_BT` sweep — Proposition 2's threshold (Eq. 8) in simulation: more
//!   optimistic unchoking raises BitTorrent's bootstrap speed *and* its
//!   susceptibility (Table III says exploitable resources are `α_BT ΣU`).
//! * Free-rider-fraction sweep — how susceptibility scales with the share
//!   of attackers for a susceptible (altruism) and a resistant (T-Chain)
//!   algorithm.
//! * Reputation false-praise attack — the collusion Table III rates as
//!   probability 1, which the paper discusses but does not simulate.
//! * Whitewash-interval sweep — FairTorrent's attack knob.

use coop_attacks::AttackPlan;
use coop_incentives::MechanismKind;
use serde::Serialize;

use crate::exec::{backoff_ms, BatchError, Executor, FailureKind, JobFailure, SimJob};
use crate::table::num;
use crate::{Scale, Table};

/// One sweep sample.
#[derive(Clone, Debug, Serialize)]
pub struct SweepPoint {
    /// Swept parameter value.
    pub x: f64,
    /// Mean completion time (seconds) of compliant peers.
    pub mean_completion_s: Option<f64>,
    /// Mean bootstrap time (seconds).
    pub mean_bootstrap_s: Option<f64>,
    /// Cumulative susceptibility.
    pub susceptibility: f64,
    /// Fairness `F`.
    pub fairness_f: f64,
}

/// The ablation report.
#[derive(Clone, Debug, Serialize)]
pub struct AblationReport {
    /// Scale used.
    pub scale: String,
    /// BitTorrent `α_BT` sweep under 20 % simple free-riding.
    pub alpha_bt_sweep: Vec<SweepPoint>,
    /// Altruism free-rider fraction sweep.
    pub altruism_fraction_sweep: Vec<SweepPoint>,
    /// T-Chain free-rider fraction sweep (with collusion).
    pub tchain_fraction_sweep: Vec<SweepPoint>,
    /// Reputation under false praise vs simple free-riding, 20 % attackers:
    /// `[simple, false_praise]`.
    pub reputation_false_praise: Vec<SweepPoint>,
    /// FairTorrent whitewash interval sweep (rounds).
    pub whitewash_sweep: Vec<SweepPoint>,
    /// Piece-selection strategy sensitivity (x = 0 rarest-first, 1 random,
    /// 2 sequential) under the altruism mechanism.
    pub piece_strategy_sweep: Vec<SweepPoint>,
    /// Arrival-model sensitivity for the reputation algorithm: x = 0 flash
    /// crowd (the paper's extreme case), x = 1 Poisson arrivals into a
    /// warmed-up system.
    pub arrival_model_sweep: Vec<SweepPoint>,
}

impl AblationReport {
    /// Renders the report.
    pub fn render(&self) -> String {
        let section = |title: &str, xlabel: &str, points: &[SweepPoint]| {
            let mut t = Table::new(vec![
                xlabel,
                "mean ct (s)",
                "mean bootstrap (s)",
                "susceptibility",
                "F",
            ]);
            for p in points {
                t.row(vec![
                    num(p.x),
                    p.mean_completion_s.map_or("n/a".into(), num),
                    p.mean_bootstrap_s.map_or("n/a".into(), num),
                    num(p.susceptibility),
                    num(p.fairness_f),
                ]);
            }
            format!("{title}\n{}", t.render())
        };
        [
            section(
                "Ablation A — BitTorrent α_BT sweep (20% simple free-riders)",
                "alpha_bt",
                &self.alpha_bt_sweep,
            ),
            section(
                "Ablation B — altruism vs free-rider fraction",
                "fraction",
                &self.altruism_fraction_sweep,
            ),
            section(
                "Ablation C — T-Chain vs free-rider fraction (collusion)",
                "fraction",
                &self.tchain_fraction_sweep,
            ),
            section(
                "Ablation D — reputation: simple free-riding vs false praise (x = 0/1)",
                "false praise",
                &self.reputation_false_praise,
            ),
            section(
                "Ablation E — FairTorrent whitewash interval",
                "interval (rounds)",
                &self.whitewash_sweep,
            ),
            section(
                "Ablation F — piece selection (0 = rarest-first, 1 = random, 2 = sequential)",
                "strategy",
                &self.piece_strategy_sweep,
            ),
            section(
                "Ablation G — reputation bootstrap vs arrival model (0 = flash crowd, 1 = Poisson)",
                "arrival model",
                &self.arrival_model_sweep,
            ),
        ]
        .join("\n")
    }
}

/// One attacked flash-crowd run at the scale's defaults.
fn attacked(kind: MechanismKind, scale: Scale, seed: u64, plan: AttackPlan) -> SimJob {
    SimJob {
        plan: Some(plan),
        ..SimJob::new(kind, scale, seed)
    }
}

fn point(x: f64, result: &coop_swarm::SimResult) -> SweepPoint {
    SweepPoint {
        x,
        mean_completion_s: result.mean_completion_time(),
        mean_bootstrap_s: result.mean_bootstrap_time(),
        susceptibility: result.final_susceptibility(),
        fairness_f: result.final_fairness_stat(),
    }
}

/// Runs all ablations with machine-sized parallelism.
pub fn run(scale: Scale, seed: u64) -> AblationReport {
    try_run(scale, seed, &Executor::default()).expect("ablations batch")
}

/// Runs all ablations on the given executor. Each sweep's points are
/// independent simulations, so they fan out as one batch per sweep;
/// results (and the JSON artifact) are identical for any worker count.
/// Points run under the executor's panic-isolation/retry policy: a sweep
/// point that fails every attempt yields `Err` naming its sweep, after
/// every healthy point has still run. No artifact is written on failure.
///
/// # Errors
///
/// Returns the failed points when any point fails every attempt.
pub fn try_run(
    scale: Scale,
    seed: u64,
    executor: &Executor,
) -> Result<AblationReport, BatchError> {
    let mut failures: Vec<JobFailure> = Vec::new();
    let mut total = 0usize;
    // Converts one sweep's isolated runs into points, recording each
    // failed point under the sweep's mechanism label.
    let mut take = |label: &str, runs: Vec<Result<SweepPoint, String>>| -> Vec<SweepPoint> {
        total += runs.len();
        runs.into_iter()
            .enumerate()
            .filter_map(|(slot, run)| match run {
                Ok(point) => Some(point),
                Err(message) => {
                    failures.push(JobFailure {
                        slot,
                        mechanism: label.to_string(),
                        peers: scale.peers(),
                        seed,
                        attempts: executor.retries() + 1,
                        kind: FailureKind::Panic,
                        message,
                        backoff_ms: (0..executor.retries())
                            .map(|a| backoff_ms(slot as u64, a))
                            .collect(),
                    });
                    None
                }
            })
            .collect()
    };

    // A: α_BT sweep. The mechanism parameter lives in the swarm config.
    let alpha_bt_sweep = take(
        "BitTorrent (alpha_bt sweep)",
        executor.try_map(&[0.0, 0.1, 0.2, 0.4], |_, &alpha| {
            let mut config = scale.config(seed);
            config.mechanism_params.alpha_bt = alpha;
            let mix = coop_incentives::analysis::capacity::CapacityClassMix::paper_default();
            let population = coop_swarm::flash_crowd_with(
                &config,
                scale.peers(),
                MechanismKind::BitTorrent,
                seed,
                &mix,
                scale.arrival_window(),
            );
            let result = coop_swarm::Simulation::builder(config)
                .population(population)
                .attack_plan(AttackPlan::simple(0.2))
                .build()
                .expect("valid config")
                .run();
            point(alpha, &result)
        }),
    );

    // B & C: free-rider fraction sweeps.
    let fractions = [0.0, 0.1, 0.2, 0.4];
    let altruism_fraction_sweep = take(
        "Altruism (free-rider fraction sweep)",
        executor.try_map(&fractions, |_, &f| {
            let job = attacked(MechanismKind::Altruism, scale, seed, AttackPlan::simple(f));
            point(f, &job.run())
        }),
    );
    let tchain_fraction_sweep = take(
        "T-Chain (free-rider fraction sweep)",
        executor.try_map(&fractions, |_, &f| {
            let plan = AttackPlan::most_effective(MechanismKind::TChain, f);
            point(f, &attacked(MechanismKind::TChain, scale, seed, plan).run())
        }),
    );

    // D: reputation false praise.
    let praise_plans = [
        (0.0, AttackPlan::simple(0.2)),
        (1.0, AttackPlan::false_praise(0.2)),
    ];
    let reputation_false_praise = take(
        "Reputation (false-praise ablation)",
        executor.try_map(&praise_plans, |_, &(x, plan)| {
            point(x, &attacked(MechanismKind::Reputation, scale, seed, plan).run())
        }),
    );

    // E: whitewash interval sweep.
    let whitewash_sweep = take(
        "FairTorrent (whitewash interval sweep)",
        executor.try_map(&[5u64, 10, 20, 40], |_, &w| {
            let mut plan = AttackPlan::simple(0.2);
            plan.whitewash_interval = Some(w);
            point(w as f64, &attacked(MechanismKind::FairTorrent, scale, seed, plan).run())
        }),
    );

    // F: the paper assumes local-rarest-first selection; quantify what the
    // alternatives cost.
    let strategies = [
        coop_swarm::PieceStrategy::RarestFirst,
        coop_swarm::PieceStrategy::Random,
        coop_swarm::PieceStrategy::Sequential,
    ];
    let piece_strategy_sweep = take(
        "Altruism (piece-strategy sweep)",
        executor.try_map(&strategies, |i, &strategy| {
            let mut config = scale.config(seed);
        config.piece_strategy = strategy;
        let mix = coop_incentives::analysis::capacity::CapacityClassMix::paper_default();
        let population = coop_swarm::flash_crowd_with(
            &config,
            scale.peers(),
            MechanismKind::Altruism,
            seed,
            &mix,
            scale.arrival_window(),
        );
        let result = coop_swarm::Simulation::builder(config)
            .population(population)
            .build()
            .expect("valid config")
            .run();
        point(i as f64, &result)
        }),
    );

    // G: the paper's flash crowd is the worst case for reputation
    // bootstrapping (everyone has zero reputation at once). Staggered
    // Poisson arrivals let newcomers land in a system with established
    // reputations.
    let arrival_model_sweep = take(
        "Reputation (arrival-model ablation)",
        executor.try_map(&[false, true], |_, &staggered| {
            let config = scale.config(seed);
            let mix = coop_incentives::analysis::capacity::CapacityClassMix::paper_default();
            let population = if staggered {
                coop_swarm::staggered_arrivals(
                    &config,
                    scale.peers(),
                    MechanismKind::Reputation,
                    seed,
                    &mix,
                    coop_des::Duration::from_millis(500),
                )
            } else {
                coop_swarm::flash_crowd_with(
                    &config,
                    scale.peers(),
                    MechanismKind::Reputation,
                    seed,
                    &mix,
                    scale.arrival_window(),
                )
            };
            let result = coop_swarm::Simulation::builder(config)
                .population(population)
                .build()
                .expect("valid config")
                .run();
            point(if staggered { 1.0 } else { 0.0 }, &result)
        }),
    );

    if !failures.is_empty() {
        return Err(BatchError {
            figure: "ablations".to_string(),
            total,
            failures,
        });
    }
    let report = AblationReport {
        scale: scale.name().to_string(),
        alpha_bt_sweep,
        altruism_fraction_sweep,
        tchain_fraction_sweep,
        reputation_false_praise,
        whitewash_sweep,
        piece_strategy_sweep,
        arrival_model_sweep,
    };
    let _ = crate::write_json(&format!("ablations_{}", scale.name()), &report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn susceptibility_grows_with_freerider_fraction_for_altruism() {
        let r = run(Scale::Quick, 51);
        let s: Vec<f64> = r
            .altruism_fraction_sweep
            .iter()
            .map(|p| p.susceptibility)
            .collect();
        assert_eq!(s[0], 0.0, "no free-riders, no susceptibility");
        assert!(s[2] > s[1] * 0.9, "more attackers, more leakage: {s:?}");
        assert!(s[3] > s[1], "{s:?}");
    }

    #[test]
    fn tchain_stays_resistant_across_fractions() {
        let r = run(Scale::Quick, 52);
        for p in &r.tchain_fraction_sweep {
            // Collusion scales as m(m−1)/(N(N−1)); even at 40% attackers
            // the leak must stay well below the attacker share.
            assert!(
                p.susceptibility < (p.x * 0.5).max(0.02),
                "fraction {}: susceptibility {}",
                p.x,
                p.susceptibility
            );
        }
    }

    #[test]
    fn false_praise_beats_simple_freeriding_against_reputation() {
        let r = run(Scale::Quick, 53);
        let simple = r.reputation_false_praise[0].susceptibility;
        let praise = r.reputation_false_praise[1].susceptibility;
        assert!(
            praise > simple,
            "false praise should extract more: {simple} vs {praise}"
        );
    }

    #[test]
    fn render_covers_all_sections() {
        let text = run(Scale::Quick, 54).render();
        for tag in [
            "Ablation A",
            "Ablation B",
            "Ablation C",
            "Ablation D",
            "Ablation E",
            "Ablation F",
            "Ablation G",
        ] {
            assert!(text.contains(tag), "{tag}");
        }
    }

    #[test]
    fn staggered_arrivals_complete_and_bootstrap() {
        let r = run(Scale::Quick, 56);
        for p in &r.arrival_model_sweep {
            assert!(
                p.mean_completion_s.is_some(),
                "reputation completes under arrival model {}",
                p.x
            );
        }
        // Both arrival models produce finite, positive bootstrap times.
        for p in &r.arrival_model_sweep {
            let b = p.mean_bootstrap_s.expect("bootstraps");
            assert!(b > 0.0 && b.is_finite());
        }
    }

    #[test]
    fn all_piece_strategies_complete_but_rarest_first_is_competitive() {
        let r = run(Scale::Quick, 55);
        let rarest = r.piece_strategy_sweep[0].mean_completion_s.unwrap();
        for p in &r.piece_strategy_sweep {
            let ct = p
                .mean_completion_s
                .expect("every strategy completes under altruism");
            assert!(
                rarest <= ct * 1.25,
                "rarest-first should not lose badly to strategy {}: {rarest} vs {ct}",
                p.x
            );
        }
    }
}
