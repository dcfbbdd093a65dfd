//! **Fig. 6** — the Fig. 5 attacks plus the large-view exploit: free-riders
//! connect to the entire swarm, multiplying their exposure to altruistic
//! and optimistic-unchoke bandwidth.

use coop_attacks::AttackPlan;
use coop_incentives::MechanismKind;

use crate::exec::{BatchError, Executor};
use crate::runners::fig4::{ReplicatedReport, SimFigure, SimFigureReport};
use crate::runners::fig5::FREERIDER_FRACTION;
use crate::telemetry::{BatchTrace, TelemetryOpts};
use crate::{OutputDir, Scale};

/// Fig. 6: the Fig. 5 attacks plus the large-view exploit.
const FIGURE: SimFigure = SimFigure {
    name: "fig6",
    attack: "most-effective-per-mechanism + large-view (20% free-riders)",
    plan_for: |kind| Some(AttackPlan::with_large_view(kind, FREERIDER_FRACTION)),
};

/// Runs Fig. 6 with machine-sized parallelism, panicking on a failed
/// batch.
pub fn run(scale: Scale, seed: u64) -> SimFigureReport {
    FIGURE.quick(scale, seed)
}

/// Runs Fig. 6 for one seed (the CLI path); see
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

/// Runs Fig. 6 over several seeds and aggregates.
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
    use crate::runners::fig5;

    #[test]
    fn large_view_increases_susceptibility() {
        let seed = 41;
        let base = fig5::run(Scale::Quick, seed);
        let lv = run(Scale::Quick, seed);
        // The large-view exploit increases (or at least does not reduce)
        // what free-riders extract from the susceptible algorithms, and
        // altruism/FairTorrent/BitTorrent leak visibly more at their peak.
        let mut strictly_higher = 0;
        for kind in [
            MechanismKind::Altruism,
            MechanismKind::BitTorrent,
            MechanismKind::FairTorrent,
            MechanismKind::Reputation,
        ] {
            let before = base.get(kind).susceptibility;
            let after = lv.get(kind).susceptibility;
            assert!(
                after > before * 0.8,
                "{kind}: large view should not materially reduce leakage ({before} → {after})"
            );
            if after > before * 1.1 {
                strictly_higher += 1;
            }
        }
        assert!(
            strictly_higher >= 2,
            "large view should visibly amplify at least two algorithms"
        );
    }

    #[test]
    fn tchain_remains_near_immune_under_large_view() {
        let r = run(Scale::Quick, 42);
        assert!(
            r.get(MechanismKind::TChain).susceptibility < 0.06,
            "{}",
            r.get(MechanismKind::TChain).susceptibility
        );
        assert_eq!(r.get(MechanismKind::Reciprocity).susceptibility, 0.0);
    }

    #[test]
    fn tchain_beats_bittorrent_on_fairness_under_large_view() {
        // The paper's Fig. 6 observation: with the large-view exploit,
        // T-Chain is visibly more fair (and efficient) than BitTorrent.
        let r = run(Scale::Quick, 43);
        assert!(
            r.get(MechanismKind::TChain).fairness_f < r.get(MechanismKind::BitTorrent).fairness_f
        );
    }
}
