//! The parallel executor must be an optimization, not a semantic change:
//! fanning a job grid across worker threads has to produce *byte-identical*
//! results to running the same grid sequentially, in the same order.

use coop_attacks::AttackPlan;
use coop_experiments::{Executor, Scale, SimJob};
use coop_incentives::MechanismKind;

#[test]
fn parallel_batches_match_sequential_byte_for_byte() {
    // All eight mechanisms at quick scale, each under its most effective
    // attack — covering compliant allocation, free-riding, collusion,
    // whitewashing, epoch-settled and consensus-reputation code paths
    // in one grid.
    let jobs = SimJob::grid(Scale::Quick, &[9], |kind| {
        Some(AttackPlan::most_effective(kind, 0.2))
    });
    assert_eq!(jobs.len(), MechanismKind::EXTENDED.len());

    let sequential = Executor::sequential().run_sims(&jobs);
    let parallel = Executor::new(4).run_sims(&jobs);

    assert_eq!(sequential.len(), parallel.len());
    for ((kind, seq), par) in MechanismKind::EXTENDED
        .iter()
        .zip(&sequential)
        .zip(&parallel)
    {
        // SimResult derives PartialEq over every observable — peer records,
        // totals, byte counters and all six time series — so equality here
        // means the artifacts rendered from these results are identical.
        assert_eq!(seq, par, "{kind}: parallel run diverged from sequential");
    }
}
