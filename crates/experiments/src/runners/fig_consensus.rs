//! **fig-consensus** — the consensus-reputation defense sweep: the
//! consensus mechanism re-run over an adaptive-attacker-fraction ladder
//! under three named defense policies (ban threshold × decay × quorum).
//!
//! Every attacked cell faces the full adaptive mix
//! ([`coop_attacks::AttackPlan::adaptive_mix`]): threshold-aware
//! defectors that park their strike level just under the ban threshold,
//! ban-evading whitewash rings that rotate identities ahead of the
//! permanent ban, and Sybil report-stuffers fabricating matched transfer
//! pairs inside a collusion ring. The `fraction = 0` column is the
//! attack-free baseline each policy is judged against.
//!
//! The three policies bracket the defense space:
//!
//! * `defense` — the tuned default (small quorum, moderate threshold,
//!   fast decay): bans land on reckless attackers while compliant
//!   completion stays near the attack-free baseline.
//! * `lax` — threshold and decay so forgiving that the ban ladder never
//!   engages: the susceptibility cost of running consensus with teeth
//!   removed.
//! * `collapse` — a quorum larger than most uploaders' corroboration
//!   set, so legitimate claims fail consensus and honest uploaders
//!   accrue strikes: the friendly-fire failure mode.
//!
//! Outputs follow the sweep convention: `figconsensus_sweep_{scale}.csv`
//! and `figconsensus_{scale}.json` hold only deterministic columns and
//! are byte-identical for any `--jobs`/`--shards` count.

use coop_attacks::AttackPlan;
use coop_incentives::{MechanismKind, MechanismParams};
use coop_swarm::SimResult;
use serde::Serialize;

use crate::exec::{BatchError, Executor, SimJob};
use crate::runners::fig4::run_grid;
use crate::scenario::{JobLabel, Workload};
use crate::table::num;
use crate::telemetry::{BatchTrace, TelemetryOpts};
use crate::{OutputDir, Scale, Table};

/// The default adaptive-attacker-fraction ladder. `0.0` is the
/// attack-free baseline column every policy is compared against.
pub const FRACTIONS: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// One named defense policy: the consensus knobs a cell runs under.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct DefensePolicy {
    /// Short policy name (the sweep's row label).
    pub name: &'static str,
    /// Corroborating reports required before a disputed claim is
    /// credited against the receiver.
    pub quorum: usize,
    /// Strike level at which the ban ladder fires.
    pub ban_threshold: u32,
    /// Per-round multiplicative strike/score decay.
    pub decay: f64,
    /// Length of the first (temporary) ban in rounds.
    pub temp_ban_rounds: u64,
}

/// The three policies the default sweep brackets the defense space with.
pub const POLICIES: [DefensePolicy; 3] = [
    DefensePolicy {
        name: "defense",
        quorum: 1,
        ban_threshold: 4,
        decay: 0.9,
        temp_ban_rounds: 16,
    },
    DefensePolicy {
        name: "lax",
        quorum: 1,
        ban_threshold: 64,
        decay: 0.995,
        temp_ban_rounds: 16,
    },
    DefensePolicy {
        name: "collapse",
        quorum: 8,
        ban_threshold: 4,
        decay: 0.9,
        temp_ban_rounds: 16,
    },
];

/// One deterministic cell of the sweep.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ConsensusRow {
    /// Defense policy name.
    pub policy: String,
    /// Corroboration quorum of the policy.
    pub quorum: usize,
    /// Ban threshold of the policy.
    pub ban_threshold: u32,
    /// Strike decay of the policy.
    pub decay: f64,
    /// Adaptive-attacker population fraction (0 = attack-free baseline).
    pub attack_fraction: f64,
    /// Population simulated.
    pub peers: usize,
    /// Fraction of compliant peers that completed the download.
    pub completed_fraction: f64,
    /// Mean completion time (seconds) over completed compliant peers.
    pub mean_completion_s: Option<f64>,
    /// Final fairness statistic `F` (0 = perfectly fair).
    pub fairness_f: f64,
    /// Cumulative susceptibility (free-rider share of peer upload bytes).
    pub susceptibility: f64,
    /// Transfer reports aggregated over the run.
    pub reports: u64,
    /// Claim/ack mismatches put to quorum.
    pub disputes: u64,
    /// Temporary bans issued.
    pub bans_temp: u64,
    /// Permanent bans issued.
    pub bans_perm: u64,
    /// Bans (of either kind) that landed on compliant peers.
    pub bans_compliant: u64,
    /// Bans that landed on attackers.
    pub bans_noncompliant: u64,
    /// Whether the run ended in an unsatisfiable (stalled) swarm.
    pub stalled: bool,
}

/// The sweep report: policies in [`POLICIES`] order, fractions ascending
/// within each policy.
#[derive(Clone, Debug, Serialize)]
pub struct ConsensusReport {
    /// Artifact name ("fig-consensus").
    pub figure: String,
    /// Scale used.
    pub scale: String,
    /// Seed used.
    pub seed: u64,
    /// Rows: policy-major, fraction ascending.
    pub rows: Vec<ConsensusRow>,
}

impl ConsensusReport {
    /// The cell for one policy at one attacker fraction.
    pub fn cell(&self, policy: &str, fraction: f64) -> &ConsensusRow {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.attack_fraction == fraction)
            .expect("all grid cells present")
    }

    /// Renders the sweep table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "policy",
            "quorum",
            "thresh",
            "decay",
            "attackers",
            "completed",
            "mean ct (s)",
            "F",
            "suscept.",
            "disputes",
            "bans t/p",
            "bans hon/atk",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.policy.clone(),
                r.quorum.to_string(),
                r.ban_threshold.to_string(),
                num(r.decay),
                num(r.attack_fraction),
                num(r.completed_fraction),
                r.mean_completion_s.map_or("n/a".into(), num),
                num(r.fairness_f),
                num(r.susceptibility),
                r.disputes.to_string(),
                format!("{}/{}", r.bans_temp, r.bans_perm),
                format!("{}/{}", r.bans_compliant, r.bans_noncompliant),
            ]);
        }
        format!(
            "fig-consensus — consensus-reputation defense sweep ({} scale, seed {}, {} peers, adaptive mix)\n{}",
            self.scale,
            self.seed,
            self.rows.first().map_or(0, |r| r.peers),
            t.render()
        )
    }
}

impl DefensePolicy {
    /// The mechanism parameters a cell under this policy runs with.
    pub fn params(self) -> MechanismParams {
        MechanismParams {
            consensus_quorum: self.quorum,
            consensus_ban_threshold: self.ban_threshold,
            consensus_decay: self.decay,
            consensus_temp_ban_rounds: self.temp_ban_rounds,
            ..MechanismParams::default()
        }
    }
}

/// The grid's (policy, attacker fraction) cells, policy-major.
fn cells(fractions: &[f64]) -> impl Iterator<Item = (DefensePolicy, f64)> + '_ {
    POLICIES
        .into_iter()
        .flat_map(move |policy| fractions.iter().map(move |&fraction| (policy, fraction)))
}

/// Runs the default sweep with machine-sized parallelism and no telemetry.
pub fn run(scale: Scale, seed: u64) -> ConsensusReport {
    try_run(
        scale,
        seed,
        None,
        None,
        &Executor::default(),
        &TelemetryOpts::disabled(),
        &OutputDir::default_dir(),
    )
    .expect("fig-consensus batch")
    .0
}

/// The sweep's jobs, in report row order: the consensus mechanism under
/// every [`POLICIES`] entry at every rung of `fractions`, labeled
/// `consensus:{policy}@{fraction}`. The attacked cells face the adaptive
/// mix; `peers` overrides the scale's population.
pub fn jobs(scale: Scale, seed: u64, peers: Option<usize>, fractions: &[f64]) -> Vec<SimJob> {
    cells(fractions)
        .map(|(policy, fraction)| SimJob {
            plan: (fraction > 0.0).then(|| AttackPlan::adaptive_mix(fraction)),
            workload: Some(Workload {
                peers,
                params: Some(policy.params()),
                label: Some(JobLabel::new(&format!(
                    "consensus:{}@{fraction}",
                    policy.name
                ))),
                ..Workload::default()
            }),
            ..SimJob::new(MechanismKind::ConsensusReputation, scale, seed)
        })
        .collect()
}

/// Runs the defense sweep over `fractions` (default [`FRACTIONS`]); see
/// [`jobs`] for the cells; `peers` is the `--peers` flag. The cells run
/// as one [`SimJob`] batch on `executor`, and the artifacts are written
/// from slot-ordered results, so they are byte-identical for any worker
/// count. A cell that fails every attempt yields `Err` naming it, after
/// every healthy cell has still run. No artifacts are written on failure.
///
/// # Errors
///
/// Returns the batch's failures when any cell fails every attempt.
#[allow(clippy::too_many_arguments)] // one parameter per orthogonal override
pub fn try_run(
    scale: Scale,
    seed: u64,
    peers: Option<usize>,
    fractions: Option<&[f64]>,
    executor: &Executor,
    opts: &TelemetryOpts,
    out: &OutputDir,
) -> Result<(ConsensusReport, Option<BatchTrace>), BatchError> {
    let fractions = fractions.unwrap_or(&FRACTIONS);
    let jobs = jobs(scale, seed, peers, fractions);
    run_grid(
        "fig-consensus",
        "adaptive-mix",
        &jobs,
        scale,
        seed,
        executor,
        opts,
        out,
        |results, _| write_artifacts(scale, seed, fractions, &jobs, results, out),
    )
}

/// Builds the report from the slot-ordered results and writes the sweep
/// CSV and JSON.
fn write_artifacts(
    scale: Scale,
    seed: u64,
    fractions: &[f64],
    jobs: &[SimJob],
    results: &[SimResult],
    out: &OutputDir,
) -> ConsensusReport {
    let rows = cells(fractions)
        .zip(jobs.iter().zip(results))
        .map(|((policy, fraction), (job, result))| {
            let summary = result
                .consensus
                .expect("the consensus mechanism reports its summary");
            ConsensusRow {
                policy: policy.name.to_string(),
                quorum: policy.quorum,
                ban_threshold: policy.ban_threshold,
                decay: policy.decay,
                attack_fraction: fraction,
                peers: job.peers(),
                completed_fraction: result.completed_fraction(),
                mean_completion_s: result.mean_completion_time(),
                fairness_f: result.final_fairness_stat(),
                susceptibility: result.final_susceptibility(),
                reports: summary.reports,
                disputes: summary.disputes,
                bans_temp: summary.bans_temp,
                bans_perm: summary.bans_perm,
                bans_compliant: summary.bans_compliant,
                bans_noncompliant: summary.bans_noncompliant,
                stalled: result.stalled,
            }
        })
        .collect();
    let report = ConsensusReport {
        figure: "fig-consensus".to_string(),
        scale: scale.name().to_string(),
        seed,
        rows,
    };

    let csv_rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.quorum.to_string(),
                r.ban_threshold.to_string(),
                format!("{}", r.decay),
                format!("{}", r.attack_fraction),
                r.peers.to_string(),
                format!("{}", r.completed_fraction),
                r.mean_completion_s
                    .map_or(String::new(), |v| format!("{v}")),
                format!("{}", r.fairness_f),
                format!("{}", r.susceptibility),
                r.reports.to_string(),
                r.disputes.to_string(),
                r.bans_temp.to_string(),
                r.bans_perm.to_string(),
                r.bans_compliant.to_string(),
                r.bans_noncompliant.to_string(),
                r.stalled.to_string(),
            ]
        })
        .collect();
    let _ = out.csv_rows(
        &format!("figconsensus_sweep_{}", scale.name()),
        &[
            "policy",
            "quorum",
            "ban_threshold",
            "decay",
            "attack_fraction",
            "peers",
            "completed_fraction",
            "mean_completion_s",
            "fairness_f",
            "susceptibility",
            "reports",
            "disputes",
            "bans_temp",
            "bans_perm",
            "bans_compliant",
            "bans_noncompliant",
            "stalled",
        ],
        &csv_rows,
    );
    let _ = out.json(&format!("figconsensus_{}", scale.name()), &report);

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> OutputDir {
        OutputDir::new(std::env::temp_dir().join(format!(
            "coop-consensus-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        )))
    }

    #[test]
    fn sweep_covers_grid_and_is_deterministic_across_worker_counts() {
        let out = tmp();
        let opts = TelemetryOpts::disabled();
        let run = |jobs: usize| {
            try_run(
                Scale::Quick,
                17,
                None,
                Some(&[0.0, 0.2]),
                &Executor::new(jobs),
                &opts,
                &out,
            )
            .expect("fig-consensus batch")
        };
        let (seq, trace) = run(1);
        assert!(trace.is_none());
        assert_eq!(seq.rows.len(), POLICIES.len() * 2);
        // The attack-free baselines carry no disputes from attackers but
        // still aggregate reports every round.
        for policy in POLICIES {
            let baseline = seq.cell(policy.name, 0.0);
            assert!(baseline.reports > 0, "{}: no reports", policy.name);
            assert_eq!(baseline.attack_fraction, 0.0);
        }
        // The attacked defense cell sees the adaptive mix actually bite:
        // disputes happen and bans land.
        let attacked = seq.cell("defense", 0.2);
        assert!(attacked.disputes > 0);
        assert!(attacked.bans_temp > 0);

        // Deterministic artifacts: identical report for any worker count.
        let (par, _) = run(4);
        assert_eq!(seq.rows, par.rows);
        assert!(seq.render().contains("fig-consensus"));
        assert!(out.path().join("figconsensus_sweep_quick.csv").is_file());
        let _ = std::fs::remove_dir_all(out.path());
    }
}
