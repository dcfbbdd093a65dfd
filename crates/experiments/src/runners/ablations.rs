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
use coop_des::Duration;
use coop_incentives::{MechanismKind, MechanismParams};
use coop_swarm::PieceStrategy;
use serde::Serialize;

use crate::exec::{BatchError, Executor, SimJob};
use crate::scenario::{JobLabel, Workload};
use crate::table::num;
use crate::telemetry::TelemetryOpts;
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

fn point(x: f64, result: &coop_swarm::SimResult) -> SweepPoint {
    SweepPoint {
        x,
        mean_completion_s: result.mean_completion_time(),
        mean_bootstrap_s: result.mean_bootstrap_time(),
        susceptibility: result.final_susceptibility(),
        fairness_f: result.final_fairness_stat(),
    }
}

/// The seven sweeps A–G in report order, each as its `(x, job)` points.
/// Every job carries its sweep's label, which the journal and
/// `failures.json` name it by.
fn sweeps(scale: Scale, seed: u64) -> [Vec<(f64, SimJob)>; 7] {
    use MechanismKind::{Altruism, BitTorrent, FairTorrent, Reputation, TChain};
    type Point = (f64, Option<AttackPlan>, Workload);
    let sweep = |label: &str, kind, points: Vec<Point>| -> Vec<(f64, SimJob)> {
        let label = Some(JobLabel::new(label));
        let job = |plan, workload| SimJob {
            plan,
            workload: Some(Workload { label, ..workload }),
            ..SimJob::new(kind, scale, seed)
        };
        points
            .into_iter()
            .map(|(x, plan, w)| (x, job(plan, w)))
            .collect()
    };
    let none = Workload::default();
    let freeride = Some(AttackPlan::simple(0.2));
    let fractions = [0.0, 0.1, 0.2, 0.4];
    [
        // A: α_BT sweep under 20 % simple free-riding.
        sweep(
            "BitTorrent (alpha_bt sweep)",
            BitTorrent,
            [0.0, 0.1, 0.2, 0.4]
                .map(|alpha_bt| {
                    let params = MechanismParams {
                        alpha_bt,
                        ..MechanismParams::default()
                    };
                    (
                        alpha_bt,
                        freeride,
                        Workload {
                            params: Some(params),
                            ..none
                        },
                    )
                })
                .to_vec(),
        ),
        // B & C: free-rider fraction sweeps.
        sweep(
            "Altruism (free-rider fraction sweep)",
            Altruism,
            fractions
                .map(|f| (f, Some(AttackPlan::simple(f)), none))
                .to_vec(),
        ),
        sweep(
            "T-Chain (free-rider fraction sweep)",
            TChain,
            fractions
                .map(|f| (f, Some(AttackPlan::most_effective(TChain, f)), none))
                .to_vec(),
        ),
        // D: reputation false praise.
        sweep(
            "Reputation (false-praise ablation)",
            Reputation,
            vec![
                (0.0, freeride, none),
                (1.0, Some(AttackPlan::false_praise(0.2)), none),
            ],
        ),
        // E: whitewash interval sweep.
        sweep(
            "FairTorrent (whitewash interval sweep)",
            FairTorrent,
            [5u64, 10, 20, 40]
                .map(|w| {
                    let plan = AttackPlan {
                        whitewash_interval: Some(w),
                        ..AttackPlan::simple(0.2)
                    };
                    (w as f64, Some(plan), none)
                })
                .to_vec(),
        ),
        // F: the paper assumes local-rarest-first selection; quantify what
        // the alternatives cost.
        sweep(
            "Altruism (piece-strategy sweep)",
            Altruism,
            vec![
                (
                    0.0,
                    None,
                    Workload {
                        piece_strategy: Some(PieceStrategy::RarestFirst),
                        ..none
                    },
                ),
                (
                    1.0,
                    None,
                    Workload {
                        piece_strategy: Some(PieceStrategy::Random),
                        ..none
                    },
                ),
                (
                    2.0,
                    None,
                    Workload {
                        piece_strategy: Some(PieceStrategy::Sequential),
                        ..none
                    },
                ),
            ],
        ),
        // G: the paper's flash crowd is the worst case for reputation
        // bootstrapping (everyone has zero reputation at once). Staggered
        // Poisson arrivals let newcomers land in a system with established
        // reputations.
        sweep(
            "Reputation (arrival-model ablation)",
            Reputation,
            vec![
                (0.0, None, none),
                (
                    1.0,
                    None,
                    Workload {
                        arrival_gap: Some(Duration::from_millis(500)),
                        ..none
                    },
                ),
            ],
        ),
    ]
}

/// Every ablation job, sweeps A–G in report order.
pub fn jobs(scale: Scale, seed: u64) -> Vec<SimJob> {
    sweeps(scale, seed)
        .into_iter()
        .flatten()
        .map(|(_, job)| job)
        .collect()
}

/// Runs all ablations with machine-sized parallelism.
pub fn run(scale: Scale, seed: u64) -> AblationReport {
    try_run(scale, seed, &Executor::default()).expect("ablations batch")
}

/// Runs all ablations on the given executor. Every sweep point is an
/// independent simulation, so the seven sweeps run as one [`SimJob`]
/// batch; results (and the JSON artifact) are identical for any worker
/// count. A point that fails every attempt yields `Err` naming its
/// sweep, after every healthy point has still run. No artifact is
/// written on failure.
///
/// # Errors
///
/// Returns the failed points when any point fails every attempt.
pub fn try_run(scale: Scale, seed: u64, executor: &Executor) -> Result<AblationReport, BatchError> {
    let sweeps = sweeps(scale, seed);
    let jobs: Vec<SimJob> = sweeps.iter().flatten().map(|&(_, job)| job).collect();
    let (results, _) = executor
        .run_sims_robust(&jobs, &TelemetryOpts::disabled())
        .into_complete("ablations")?;
    let mut results = results.iter();
    let [alpha_bt_sweep, altruism_fraction_sweep, tchain_fraction_sweep, reputation_false_praise, whitewash_sweep, piece_strategy_sweep, arrival_model_sweep] =
        sweeps.map(|points| {
            points
                .iter()
                .map(|&(x, _)| point(x, results.next().expect("one result per job")))
                .collect()
        });
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
