//! **Fig. 5** — performance with 20 % free-riders, each algorithm attacked
//! by its most effective strategy (Section V-B2): simple free-riding
//! everywhere, plus collusion against T-Chain and whitewashing against
//! FairTorrent.

use coop_attacks::AttackPlan;
use coop_incentives::MechanismKind;

use crate::exec::{BatchError, Executor};
use crate::runners::fig4::{ReplicatedReport, SimFigure, SimFigureReport};
use crate::telemetry::{BatchTrace, TelemetryOpts};
use crate::{OutputDir, Scale};

/// The paper's free-rider fraction.
pub const FREERIDER_FRACTION: f64 = 0.2;

/// Fig. 5: each mechanism under its most effective attack.
const FIGURE: SimFigure = SimFigure {
    name: "fig5",
    attack: "most-effective-per-mechanism (20% free-riders)",
    plan_for: |kind| Some(AttackPlan::most_effective(kind, FREERIDER_FRACTION)),
};

/// Runs Fig. 5 with machine-sized parallelism, panicking on a failed
/// batch.
pub fn run(scale: Scale, seed: u64) -> SimFigureReport {
    FIGURE.quick(scale, seed)
}

/// Runs Fig. 5 for one seed (the CLI path); see
/// [`fig4::try_run`](crate::runners::fig4::try_run) for the guarantees.
///
/// # Errors
///
/// Returns the batch's failures when any job fails every attempt.
pub fn try_run(
    scale: Scale,
    seed: u64,
    executor: &Executor,
    opts: &TelemetryOpts,
    out: &OutputDir,
) -> Result<(SimFigureReport, Option<BatchTrace>), BatchError> {
    FIGURE.single(scale, seed, &MechanismKind::EXTENDED, executor, opts, out)
}

/// Runs Fig. 5 over several seeds and aggregates.
///
/// # Errors
///
/// Returns the batch's failures when any job fails every attempt.
pub fn try_run_replicated(
    scale: Scale,
    seeds: &[u64],
    executor: &Executor,
    opts: &TelemetryOpts,
    out: &OutputDir,
) -> Result<(ReplicatedReport, Option<BatchTrace>), BatchError> {
    FIGURE.replicated(scale, seeds, executor, opts, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_susceptibility_ordering() {
        let _out = crate::ScopedOutputDir::temp("fig5-fig5_susceptibility_ordering");
        let r = run(Scale::Quick, 31);
        let s = |k: MechanismKind| r.get(k).susceptibility;
        // Reciprocity and T-Chain are (almost) immune.
        assert_eq!(s(MechanismKind::Reciprocity), 0.0);
        assert!(
            s(MechanismKind::TChain) < 0.05,
            "T-Chain leaks only through rare collusion: {}",
            s(MechanismKind::TChain)
        );
        // Altruism is the most susceptible.
        for kind in [
            MechanismKind::TChain,
            MechanismKind::BitTorrent,
            MechanismKind::FairTorrent,
            MechanismKind::Reputation,
        ] {
            // Cumulative susceptibility saturates once free-riders own a
            // full file, so allow a small epsilon on the comparison.
            assert!(
                s(MechanismKind::Altruism) >= s(kind) - 0.01,
                "altruism ≥ {kind}: {} vs {}",
                s(MechanismKind::Altruism),
                s(kind)
            );
        }
        // The susceptible algorithms leak a nontrivial share.
        assert!(s(MechanismKind::Altruism) > 0.1);
        assert!(s(MechanismKind::BitTorrent) > 0.02);
    }

    #[test]
    fn fig5_tchain_stays_fair_and_efficient() {
        let _out = crate::ScopedOutputDir::temp("fig5-fig5_tchain_stays_fair_and_efficient");
        let r = run(Scale::Quick, 32);
        let tc = r.get(MechanismKind::TChain);
        assert!(tc.completed_fraction > 0.9);
        assert!(
            tc.fairness_f < r.get(MechanismKind::Altruism).fairness_f,
            "T-Chain stays fairer than altruism under attack"
        );
    }

    #[test]
    fn compliant_peers_still_complete() {
        let _out = crate::ScopedOutputDir::temp("fig5-compliant_peers_still_complete");
        let r = run(Scale::Quick, 33);
        for kind in [
            MechanismKind::TChain,
            MechanismKind::BitTorrent,
            MechanismKind::FairTorrent,
            MechanismKind::Reputation,
            MechanismKind::Altruism,
        ] {
            assert!(
                r.get(kind).completed_fraction > 0.85,
                "{kind}: {}",
                r.get(kind).completed_fraction
            );
        }
    }
}
