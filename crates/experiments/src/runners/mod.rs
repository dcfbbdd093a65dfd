//! One runner per paper table/figure, plus ablations beyond the paper.

pub mod ablations;
pub mod extensions;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig4_scale;
pub mod fig5;
pub mod fig6;
pub mod fig_consensus;
pub mod fig_epoch;
pub mod fluid;
pub mod perf_diff;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;

use crate::Scale;

/// The capacity vector used by the analytic runners: one sampled
/// population at the given scale, sorted descending as the analysis
/// requires.
pub(crate) fn analytic_capacities(
    scale: Scale,
    seed: u64,
) -> coop_incentives::analysis::capacity::CapacityVector {
    use coop_des::rng::SeedTree;
    let mix = coop_incentives::analysis::capacity::CapacityClassMix::paper_default();
    let mut rng = SeedTree::new(seed).rng(0xCAFE);
    mix.sample(scale.peers(), &mut rng)
}
