//! Timeslot ("round") bookkeeping.
//!
//! The paper's analysis (Section IV) is phrased in discrete timeslots in
//! which every user uploads up to its per-slot capacity. [`RoundDriver`]
//! maps the continuous event clock onto a sequence of fixed-length rounds.

use crate::{Duration, SimTime};

/// The index of a timeslot, starting at 0.
pub type Round = u64;

/// Maps simulation time onto fixed-length rounds and produces the schedule
/// of round-tick times.
///
/// # Example
///
/// ```
/// use coop_des::{Duration, RoundDriver, SimTime};
///
/// let rd = RoundDriver::new(Duration::from_secs(1));
/// assert_eq!(rd.round_of(SimTime::from_millis(1500)), 1);
/// assert_eq!(rd.start_of(2), SimTime::from_secs(2));
/// assert_eq!(rd.next_tick_after(SimTime::from_millis(300)), SimTime::from_secs(1));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundDriver {
    length: Duration,
}

impl RoundDriver {
    /// Creates a driver with the given round length.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    pub fn new(length: Duration) -> Self {
        assert!(!length.is_zero(), "round length must be positive");
        RoundDriver { length }
    }

    /// The length of one round.
    pub fn length(&self) -> Duration {
        self.length
    }

    /// Returns the round containing time `t`.
    pub fn round_of(&self, t: SimTime) -> Round {
        t.as_millis() / self.length.as_millis()
    }

    /// Returns the start time of round `r`.
    pub fn start_of(&self, r: Round) -> SimTime {
        SimTime::from_millis(r * self.length.as_millis())
    }

    /// Returns the first round-boundary strictly after `t`.
    pub fn next_tick_after(&self, t: SimTime) -> SimTime {
        self.start_of(self.round_of(t) + 1)
    }

    /// Converts a bytes-per-second rate into a per-round byte budget.
    pub fn bytes_per_round(&self, bytes_per_sec: u64) -> u64 {
        // Rounded to the nearest byte so sub-second rounds do not
        // systematically under-allocate.
        (bytes_per_sec as u128 * self.length.as_millis() as u128 / 1000) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_boundaries() {
        let rd = RoundDriver::new(Duration::from_secs(1));
        assert_eq!(rd.round_of(SimTime::ZERO), 0);
        assert_eq!(rd.round_of(SimTime::from_millis(999)), 0);
        assert_eq!(rd.round_of(SimTime::from_secs(1)), 1);
        assert_eq!(rd.start_of(5), SimTime::from_secs(5));
    }

    #[test]
    fn next_tick_is_strictly_after() {
        let rd = RoundDriver::new(Duration::from_millis(250));
        assert_eq!(rd.next_tick_after(SimTime::ZERO), SimTime::from_millis(250));
        assert_eq!(
            rd.next_tick_after(SimTime::from_millis(250)),
            SimTime::from_millis(500)
        );
    }

    #[test]
    fn bytes_per_round_scales_with_length() {
        let one_sec = RoundDriver::new(Duration::from_secs(1));
        let half_sec = RoundDriver::new(Duration::from_millis(500));
        assert_eq!(one_sec.bytes_per_round(1_000_000), 1_000_000);
        assert_eq!(half_sec.bytes_per_round(1_000_000), 500_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_round_length_panics() {
        RoundDriver::new(Duration::ZERO);
    }
}
