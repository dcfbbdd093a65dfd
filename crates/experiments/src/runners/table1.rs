//! **Table I** — expected download rates in equilibrium with perfect piece
//! availability and no free-riders.
//!
//! The analytic half evaluates the closed forms of
//! [`coop_incentives::analysis::equilibrium`] on a sampled capacity
//! population; the measured half runs the simulator and reports the
//! per-capacity-class usable download rates over the mid-phase of the run
//! (the regime the paper identifies as closest to the idealized
//! equilibrium: "the idealized scenario can model the middle of the
//! simulation").

use std::collections::BTreeMap;

use coop_incentives::analysis::equilibrium::{download_rates, EquilibriumParams};
use coop_incentives::MechanismKind;
use serde::Serialize;

use crate::exec::SimJob;
use crate::runners::analytic_capacities;
use crate::table::num;
use crate::{Scale, Table};

/// One algorithm's analytic and measured mean download utilization.
#[derive(Clone, Debug, Serialize)]
pub struct Table1Row {
    /// Algorithm name.
    pub algorithm: String,
    /// Analytic mean download utilization (`d_i − u_S/N`, averaged over
    /// users), in bytes/second.
    pub analytic_mean: f64,
    /// Analytic utilization for the highest-capacity class.
    pub analytic_top_class: f64,
    /// Analytic utilization for the lowest-capacity class.
    pub analytic_bottom_class: f64,
    /// Measured mean usable download rate over completed compliant peers,
    /// bytes/second.
    pub measured_mean: f64,
    /// Measured correlation between capacity and download rate (sign
    /// distinguishes the fair algorithms, where `d_i` tracks `U_i`, from
    /// altruism, where it does not).
    pub capacity_rate_correlation: f64,
}

/// The full Table I report.
#[derive(Clone, Debug, Serialize)]
pub struct Table1Report {
    /// Scale used.
    pub scale: String,
    /// Rows in the paper's algorithm order.
    pub rows: Vec<Table1Row>,
}

impl Table1Report {
    /// Renders the report as text.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Algorithm",
            "analytic mean d_i-u_S/N (B/s)",
            "analytic top class",
            "analytic bottom class",
            "measured mean d_i (B/s)",
            "corr(U_i, d_i)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.algorithm.clone(),
                num(r.analytic_mean),
                num(r.analytic_top_class),
                num(r.analytic_bottom_class),
                num(r.measured_mean),
                num(r.capacity_rate_correlation),
            ]);
        }
        format!(
            "Table I — equilibrium download rates ({} scale)\n{}",
            self.scale,
            t.render()
        )
    }
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        f64::NAN
    } else {
        cov / (vx * vy).sqrt()
    }
}

/// Runs the Table I experiment.
pub fn run(scale: Scale, seed: u64) -> Table1Report {
    let caps = analytic_capacities(scale, seed);
    let params = EquilibriumParams {
        seeder_rate: scale.config(seed).seeder_bps,
        ..EquilibriumParams::default()
    };
    let slice = caps.as_slice();
    let rows = MechanismKind::ALL
        .iter()
        .map(|&kind| {
            let d = download_rates(kind, &caps, &params);
            let seeder_each = params.seeder_rate / caps.len() as f64;
            let util: Vec<f64> = d.iter().map(|x| x - seeder_each).collect();
            let analytic_mean = util.iter().sum::<f64>() / util.len() as f64;

            // Measured side: usable download rate of each completed
            // compliant peer (bytes received / time to completion).
            let sim = SimJob::new(kind, scale, seed).run();
            let mut rates: Vec<(f64, f64)> = Vec::new(); // (capacity, rate)
            for p in sim.compliant() {
                if let Some(ct) = p.completion_s {
                    if ct > 0.0 {
                        rates.push((p.capacity_bps, p.bytes_received_usable as f64 / ct));
                    }
                }
            }
            let measured_mean = if rates.is_empty() {
                0.0
            } else {
                rates.iter().map(|&(_, r)| r).sum::<f64>() / rates.len() as f64
            };
            let (xs, ys): (Vec<f64>, Vec<f64>) = rates.into_iter().unzip();
            Table1Row {
                algorithm: kind.name().to_string(),
                analytic_mean,
                analytic_top_class: util.first().copied().unwrap_or(0.0),
                analytic_bottom_class: util.last().copied().unwrap_or(0.0),
                measured_mean,
                capacity_rate_correlation: pearson(&xs, &ys),
            }
        })
        .collect();
    // Keep a per-class analytic breakdown as a CSV artifact.
    let mut class_rows: Vec<Vec<String>> = Vec::new();
    for &kind in &MechanismKind::ALL {
        let d = download_rates(kind, &caps, &params);
        let mut by_class: BTreeMap<u64, (f64, u32)> = BTreeMap::new();
        for (u, di) in slice.iter().zip(&d) {
            let e = by_class.entry(*u as u64).or_insert((0.0, 0));
            e.0 += di;
            e.1 += 1;
        }
        for (class, (sum, n)) in by_class {
            class_rows.push(vec![
                kind.name().to_string(),
                class.to_string(),
                format!("{}", sum / n as f64),
            ]);
        }
    }
    let _ = crate::OutputDir::default_dir().csv_rows(
        &format!("table1_class_rates_{}", scale.name()),
        &["algorithm", "capacity_class_bps", "analytic_d_i_bps"],
        &class_rows,
    );
    Table1Report {
        scale: scale.name().to_string(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_has_expected_shape() {
        let _out = crate::ScopedOutputDir::temp("table1-quick_report_has_expected_shape");
        let report = run(Scale::Quick, 7);
        assert_eq!(report.rows.len(), 6);
        let get = |name: &str| {
            report
                .rows
                .iter()
                .find(|r| r.algorithm == name)
                .unwrap()
                .clone()
        };
        // Reciprocity: zero utilization analytically, zero measured (no
        // completions).
        let rec = get("Reciprocity");
        assert_eq!(rec.analytic_mean, 0.0);
        assert_eq!(rec.measured_mean, 0.0);
        // T-Chain / FairTorrent: analytic d_i == U_i, so top class strictly
        // above bottom class.
        for name in ["T-Chain", "FairTorrent"] {
            let r = get(name);
            assert!(r.analytic_top_class > r.analytic_bottom_class, "{name}");
        }
        // Altruism: capacity-independent analytic rates (top ≈ bottom).
        let alt = get("Altruism");
        assert!(
            (alt.analytic_top_class - alt.analytic_bottom_class).abs() / alt.analytic_bottom_class
                < 0.15,
            "altruism rates are nearly capacity-independent"
        );
        // Measured: the capacity-fair algorithms correlate d with U far
        // more strongly than altruism does.
        let tc = get("T-Chain");
        assert!(
            tc.capacity_rate_correlation > alt.capacity_rate_correlation,
            "tc corr {} vs alt {}",
            tc.capacity_rate_correlation,
            alt.capacity_rate_correlation
        );
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert!(pearson(&[1.0], &[1.0]).is_nan());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_nan());
    }

    #[test]
    fn render_contains_all_algorithms() {
        let _out = crate::ScopedOutputDir::temp("table1-render_contains_all_algorithms");
        let report = run(Scale::Quick, 3);
        let text = report.render();
        for kind in MechanismKind::ALL {
            assert!(text.contains(kind.name()), "{}", kind.name());
        }
    }
}
