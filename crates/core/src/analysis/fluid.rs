//! A Qiu–Srikant-style fluid model of swarm evolution.
//!
//! The paper's piece-availability model is "inspired by the quantification
//! of file sharing effectiveness in \[27\]" (footnote 3) — Qiu & Srikant's
//! fluid model of BitTorrent-like networks. This module closes the loop:
//! the *effectiveness* parameter `η` of that model is exactly the expected
//! piece-exchange probability of Proposition 2, so each of the six
//! algorithms induces its own fluid dynamics.
//!
//! State: `x(t)` downloaders (leechers), `y(t)` seeds. Dynamics:
//!
//! ```text
//! dx/dt = λ − θ·x − min(c·x, μ·(η·x + y))
//! dy/dt =          min(c·x, μ·(η·x + y)) − γ·y
//! ```
//!
//! with `λ` the arrival rate, `μ` per-peer upload capacity (files/second),
//! `c` per-peer download capacity, `θ` the abort rate and `γ` the seed
//! departure rate. Little's law then gives the steady-state mean download
//! time `T = x̄ / (λ − θ·x̄)`.

use crate::analysis::exchange::{expected_exchange_probability, PieceCountDistribution};
use crate::MechanismKind;

/// Parameters of the fluid model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidParams {
    /// Leecher arrival rate (peers/second). Zero models a pure flash
    /// crowd given through the initial condition.
    pub lambda: f64,
    /// Per-peer upload capacity in files/second (e.g. capacity / file
    /// size).
    pub mu: f64,
    /// Per-peer download capacity in files/second.
    pub c: f64,
    /// File-sharing effectiveness `η ∈ [0, 1]` — the probability that a
    /// leecher's capacity can actually be used, i.e. the expected
    /// piece-exchange probability of the mechanism.
    pub eta: f64,
    /// Leecher abort rate (1/second).
    pub theta: f64,
    /// Seed departure rate (1/second). The paper's experiments have seeds
    /// leave immediately (large `γ`), keeping one persistent seeder via
    /// `y0`.
    pub gamma: f64,
}

impl FluidParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("lambda", self.lambda),
            ("mu", self.mu),
            ("theta", self.theta),
            ("gamma", self.gamma),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and nonnegative, got {v}"));
            }
        }
        // Download capacity may be infinite (unconstrained, as in the
        // paper's bandwidth model).
        if self.c.is_nan() || self.c < 0.0 {
            return Err(format!("c must be nonnegative, got {}", self.c));
        }
        if !(0.0..=1.0).contains(&self.eta) {
            return Err(format!("eta must be in [0,1], got {}", self.eta));
        }
        if self.mu == 0.0 && self.c == 0.0 {
            return Err("mu and c cannot both be zero".to_string());
        }
        Ok(())
    }
}

/// One trajectory sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidState {
    /// Time in seconds.
    pub t: f64,
    /// Leecher population.
    pub x: f64,
    /// Seed population (including any persistent seeder mass).
    pub y: f64,
}

/// The fluid model with initial conditions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidModel {
    /// Dynamics parameters.
    pub params: FluidParams,
    /// Initial leecher population (`N` for a flash crowd).
    pub x0: f64,
    /// Initial seed population (the persistent seeder's capacity in
    /// peer-equivalents).
    pub y0: f64,
}

impl FluidModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid or the initial conditions are
    /// negative.
    pub fn new(params: FluidParams, x0: f64, y0: f64) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid fluid parameters: {e}"));
        assert!(x0 >= 0.0 && y0 >= 0.0, "initial populations must be ≥ 0");
        FluidModel { params, x0, y0 }
    }

    /// The instantaneous download completion flux at state `(x, y)`:
    /// `min(c·x, μ·(η·x + y))` files/second.
    pub fn completion_flux(&self, x: f64, y: f64) -> f64 {
        let p = &self.params;
        (p.c * x).min(p.mu * (p.eta * x + y))
    }

    /// Integrates the dynamics with forward Euler at step `dt`, sampling
    /// every step, until `t_end`. Populations are clamped at zero.
    ///
    /// # Panics
    ///
    /// Panics if `dt` or `t_end` is nonpositive.
    pub fn integrate(&self, t_end: f64, dt: f64) -> Vec<FluidState> {
        assert!(dt > 0.0 && t_end > 0.0, "dt and t_end must be positive");
        let p = self.params;
        let mut x = self.x0;
        let mut y = self.y0;
        let mut t = 0.0;
        let mut out = vec![FluidState { t, x, y }];
        while t < t_end {
            let flux = self.completion_flux(x, y);
            let dx = p.lambda - p.theta * x - flux;
            let dy = flux - p.gamma * (y - self.y0).max(0.0);
            // The persistent seeder mass y0 never departs; only surplus
            // seeds (completed leechers that linger) decay at rate γ.
            x = (x + dx * dt).max(0.0);
            y = (y + dy * dt)
                .max(self.y0.min(y + dy * dt).max(0.0))
                .max(0.0);
            if y < self.y0 {
                y = self.y0;
            }
            t += dt;
            out.push(FluidState { t, x, y });
        }
        out
    }

    /// Integrates until the state stops changing (steady state) or
    /// `max_t` is reached; returns the final state.
    pub fn steady_state(&self, max_t: f64, dt: f64) -> FluidState {
        let traj = self.integrate(max_t, dt);
        *traj.last().expect("trajectory nonempty")
    }

    /// Steady-state mean download time via Little's law,
    /// `T = x̄ / throughput` (throughput = completion flux at steady
    /// state). Returns infinity when nothing completes.
    pub fn mean_download_time(&self, max_t: f64, dt: f64) -> f64 {
        let s = self.steady_state(max_t, dt);
        let flux = self.completion_flux(s.x, s.y);
        if flux <= 0.0 {
            f64::INFINITY
        } else {
            s.x / flux
        }
    }

    /// Time for a flash crowd (`x0` leechers, `λ = 0`) to drain below
    /// `fraction` of its initial size, or `None` within `max_t`.
    pub fn drain_time(&self, fraction: f64, max_t: f64, dt: f64) -> Option<f64> {
        let threshold = self.x0 * fraction.clamp(0.0, 1.0);
        self.integrate(max_t, dt)
            .iter()
            .find(|s| s.x <= threshold)
            .map(|s| s.t)
    }
}

/// Maps a mechanism to its fluid-model effectiveness `η`: the expected
/// piece-exchange probability of Proposition 2 under the given piece-count
/// distribution and swarm size (reciprocity gets exactly 0 — no exchange
/// can be initiated).
pub fn effectiveness(
    kind: MechanismKind,
    dist: &PieceCountDistribution,
    n: usize,
    alpha_bt: f64,
) -> f64 {
    expected_exchange_probability(kind, dist, n, alpha_bt)
}

/// Builds the flash-crowd fluid model the paper's experiments correspond
/// to: `n` leechers at `t = 0`, no further arrivals, one persistent seeder
/// of `seeder_peer_equivalents` upload mass, completed peers leaving
/// immediately (large `γ`).
pub fn flash_crowd_model(
    kind: MechanismKind,
    n: usize,
    dist: &PieceCountDistribution,
    mu_files_per_sec: f64,
    seeder_peer_equivalents: f64,
) -> FluidModel {
    let eta = effectiveness(kind, dist, n, 0.2);
    FluidModel::new(
        FluidParams {
            lambda: 0.0,
            mu: mu_files_per_sec,
            c: f64::INFINITY,
            eta,
            theta: 0.0,
            gamma: 10.0, // completed peers leave almost immediately
        },
        n as f64,
        seeder_peer_equivalents,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(eta: f64) -> FluidParams {
        FluidParams {
            lambda: 1.0,
            mu: 0.01,
            c: 0.05,
            eta,
            theta: 0.0,
            gamma: 1.0,
        }
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut p = params(0.5);
        p.eta = 1.5;
        assert!(p.validate().is_err());
        p = params(0.5);
        p.lambda = -1.0;
        assert!(p.validate().is_err());
        p = params(0.5);
        p.mu = 0.0;
        p.c = 0.0;
        assert!(p.validate().is_err());
        assert!(params(0.5).validate().is_ok());
    }

    #[test]
    fn populations_stay_nonnegative() {
        let m = FluidModel::new(params(1.0), 100.0, 1.0);
        for s in m.integrate(500.0, 0.1) {
            assert!(s.x >= 0.0);
            assert!(s.y >= 0.0);
        }
    }

    #[test]
    fn higher_effectiveness_means_faster_downloads() {
        let slow = FluidModel::new(params(0.2), 0.0, 1.0).mean_download_time(5000.0, 0.1);
        let fast = FluidModel::new(params(0.9), 0.0, 1.0).mean_download_time(5000.0, 0.1);
        assert!(fast < slow, "η = 0.9 should beat η = 0.2: {fast} vs {slow}");
    }

    #[test]
    fn zero_effectiveness_is_seeder_limited() {
        // η = 0 (reciprocity): only the persistent seeder serves, so the
        // steady-state leecher population balloons with arrivals.
        let m0 = FluidModel::new(params(0.0), 0.0, 1.0);
        let m1 = FluidModel::new(params(0.8), 0.0, 1.0);
        let x0 = m0.steady_state(2000.0, 0.1).x;
        let x1 = m1.steady_state(2000.0, 0.1).x;
        assert!(
            x0 > 5.0 * x1,
            "without peer exchange the queue explodes: {x0} vs {x1}"
        );
    }

    #[test]
    fn flash_crowd_drains_monotonically() {
        let dist = PieceCountDistribution::uniform(64);
        let m = flash_crowd_model(MechanismKind::Altruism, 200, &dist, 0.01, 2.0);
        let traj = m.integrate(2000.0, 0.5);
        for w in traj.windows(2) {
            assert!(w[1].x <= w[0].x + 1e-9, "no arrivals, x must not grow");
        }
        assert!(
            traj.last().unwrap().x < 1.0,
            "the crowd eventually finishes"
        );
    }

    #[test]
    fn fluid_ordering_matches_corollary2() {
        // Drain times should order by effectiveness: altruism ≤ T-Chain ≤
        // BitTorrent ≤ reciprocity (which never drains).
        let dist = PieceCountDistribution::uniform(64);
        let drain = |kind| {
            flash_crowd_model(kind, 500, &dist, 0.01, 2.0)
                .drain_time(0.05, 20_000.0, 0.5)
                .unwrap_or(f64::INFINITY)
        };
        let alt = drain(MechanismKind::Altruism);
        let tc = drain(MechanismKind::TChain);
        let bt = drain(MechanismKind::BitTorrent);
        let rec = drain(MechanismKind::Reciprocity);
        assert!(alt <= tc + 1e-9, "altruism ≤ T-Chain ({alt} vs {tc})");
        assert!(tc <= bt + 1e-9, "T-Chain ≤ BitTorrent ({tc} vs {bt})");
        assert!(rec.is_infinite(), "reciprocity never drains via peers");
    }

    #[test]
    fn seeder_mass_never_departs() {
        let m = FluidModel::new(
            FluidParams {
                lambda: 0.0,
                mu: 0.01,
                c: 1.0,
                eta: 0.5,
                theta: 0.0,
                gamma: 10.0,
            },
            50.0,
            3.0,
        );
        for s in m.integrate(1000.0, 0.1) {
            assert!(s.y >= 3.0 - 1e-9, "persistent seeder mass preserved");
        }
    }

    #[test]
    fn little_law_consistency() {
        // With arrivals λ and steady state, throughput ≈ λ (conservation),
        // so T ≈ x̄/λ.
        let m = FluidModel::new(params(0.8), 0.0, 1.0);
        let s = m.steady_state(5000.0, 0.05);
        let flux = m.completion_flux(s.x, s.y);
        assert!(
            (flux - m.params.lambda).abs() < 0.05 * m.params.lambda,
            "steady-state throughput ≈ arrival rate: {flux}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid fluid parameters")]
    fn constructor_panics_on_bad_params() {
        let mut p = params(0.5);
        p.eta = -1.0;
        FluidModel::new(p, 0.0, 1.0);
    }
}
