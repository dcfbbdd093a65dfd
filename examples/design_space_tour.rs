//! A tour of the analytical API: the Fig. 1 classification, the Table I
//! equilibrium rates, the Table II bootstrap probabilities (including the
//! paper's example column) and the Table III attack surface — all without
//! running a simulation.
//!
//! ```text
//! cargo run --example design_space_tour
//! ```

use coop_incentives::analysis::bootstrap::{bootstrap_probability, BootstrapParams};
use coop_incentives::analysis::capacity::CapacityVector;
use coop_incentives::analysis::equilibrium::{equilibrium_summary, EquilibriumParams};
use coop_incentives::analysis::freeride::{exploitable_resources, FreeRideParams};
use coop_incentives::MechanismKind;

fn main() {
    println!("== Fig. 1: the classification ==");
    for kind in MechanismKind::ALL {
        let e = kind.expected();
        println!(
            "{:<12} combines {:?}: fairness {}, efficiency {}, bootstrap {}, free-ride resistance {}",
            kind.name(),
            kind.classes(),
            e.fairness,
            e.efficiency,
            e.bootstrapping,
            e.freeride_resistance
        );
    }

    // A toy population: three capacity classes.
    let caps = CapacityVector::new(vec![
        256.0, 256.0, 128.0, 128.0, 128.0, 64.0, 64.0, 64.0, 64.0, 64.0,
    ])
    .expect("positive capacities");
    assert!(caps.no_dominant_user(), "paper's capacity assumption");

    println!(
        "\n== Table I / Fig. 2: idealized equilibrium (10 users, ΣU = {:.0}) ==",
        caps.total()
    );
    let params = EquilibriumParams::default();
    for kind in MechanismKind::ALL {
        let s = equilibrium_summary(kind, &caps, &params);
        println!(
            "{:<12} F = {:<8} E = {}",
            kind.name(),
            if s.fairness.is_infinite() {
                "undef".to_string()
            } else {
                format!("{:.4}", s.fairness)
            },
            if s.efficiency.is_infinite() {
                "∞ (never finishes)".to_string()
            } else {
                format!("{:.5}", s.efficiency)
            }
        );
    }

    println!("\n== Table II: bootstrap probabilities at the paper's example parameters ==");
    let bp = BootstrapParams::paper_example();
    for kind in MechanismKind::ALL {
        println!(
            "{:<12} {:>6.1}%",
            kind.name(),
            bootstrap_probability(kind, &bp) * 100.0
        );
    }

    println!("\n== Table III: exploitable resources (fraction of ΣU) ==");
    let fr = FreeRideParams {
        total_capacity: caps.total(),
        ..FreeRideParams::default()
    };
    for kind in MechanismKind::ALL {
        println!(
            "{:<12} {:>5.1}%",
            kind.name(),
            exploitable_resources(kind, &fr) / caps.total() * 100.0
        );
    }
    println!(
        "\nReading the three tables together gives the paper's conclusion: \
         T-Chain matches reciprocity's zero attack surface while bootstrapping \
         almost as fast as altruism."
    );
}
