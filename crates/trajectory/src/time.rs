//! Time representation.
//!
//! The paper partitions the time domain of a day into α-minute intervals and
//! asks whether a trajectory occurred on a path "at time `t`" where only the
//! time of day matters (traffic patterns repeat daily). Simulation timestamps
//! therefore carry both a day index and a time of day.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of seconds in a day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// A time of day in seconds since midnight, in `[0, 86 400)`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize, Default)]
pub struct TimeOfDay(pub f64);

impl TimeOfDay {
    /// Creates a time of day from hours, minutes and seconds.
    pub fn from_hms(hours: u32, minutes: u32, seconds: u32) -> Self {
        TimeOfDay(((hours % 24) as f64) * 3600.0 + (minutes as f64) * 60.0 + seconds as f64)
    }

    /// Seconds since midnight.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// Hours component (0–23).
    pub fn hours(self) -> u32 {
        (self.0 / 3600.0) as u32 % 24
    }

    /// Minutes component (0–59).
    pub fn minutes(self) -> u32 {
        ((self.0 / 60.0) as u32) % 60
    }

    /// The minute of the day, `floor(seconds / 60)`, clamped to `0..=1 439`
    /// (NaN reads 0). Each trajectory-store posting keeps it, so a
    /// time-of-day filter can pass over a posting without opening the
    /// trajectory.
    pub fn minute_of_day(self) -> u16 {
        // `as` saturates: NaN and negatives read 0, anything past the day
        // 65 535.
        ((self.0 / 60.0) as u16).min(1_439)
    }

    /// Wraps an arbitrary number of seconds into `[0, 86 400)`.
    pub fn wrap(seconds: f64) -> Self {
        TimeOfDay(seconds.rem_euclid(SECONDS_PER_DAY))
    }
}

impl fmt::Display for TimeOfDay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}:{:02}", self.hours(), self.minutes())
    }
}

/// An absolute simulation timestamp: seconds since day 0, 00:00.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize, Default)]
pub struct Timestamp(pub f64);

impl Timestamp {
    /// Creates a timestamp from a day index and a time of day.
    pub fn new(day: u32, tod: TimeOfDay) -> Self {
        Timestamp(day as f64 * SECONDS_PER_DAY + tod.seconds())
    }

    /// Creates a timestamp from a day index plus hours/minutes/seconds.
    pub fn from_day_hms(day: u32, hours: u32, minutes: u32, seconds: u32) -> Self {
        Timestamp::new(day, TimeOfDay::from_hms(hours, minutes, seconds))
    }

    /// Seconds since the simulation epoch.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The day index of this timestamp.
    pub fn day(self) -> u32 {
        (self.0 / SECONDS_PER_DAY).floor().max(0.0) as u32
    }

    /// The time of day of this timestamp.
    pub fn time_of_day(self) -> TimeOfDay {
        TimeOfDay::wrap(self.0)
    }

    /// A timestamp advanced by `seconds`.
    pub fn plus(self, seconds: f64) -> Timestamp {
        Timestamp(self.0 + seconds)
    }

    /// Difference in seconds (`self − other`).
    pub fn minus(self, other: Timestamp) -> f64 {
        self.0 - other.0
    }
}

/// A half-open interval of times of day `[start, end)` in seconds since midnight.
///
/// Intervals never span midnight in this system (the day is partitioned into
/// α-minute slots starting at 00:00).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeInterval {
    /// Inclusive start, seconds since midnight.
    pub start: f64,
    /// Exclusive end, seconds since midnight.
    pub end: f64,
}

impl TimeInterval {
    /// Creates an interval; `end` must not precede `start`. An empty interval
    /// (an arrival window clamped at midnight) overlaps nothing.
    pub fn new(start: f64, end: f64) -> Self {
        debug_assert!(end >= start, "interval [{start}, {end}) is reversed");
        TimeInterval { start, end }
    }

    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// `true` if the time of day falls inside the interval.
    pub fn contains(&self, tod: TimeOfDay) -> bool {
        tod.seconds() >= self.start && tod.seconds() < self.end
    }

    /// Length of overlap (in seconds) with another interval.
    pub fn overlap(&self, other: &TimeInterval) -> f64 {
        (self.end.min(other.end) - self.start.max(other.start)).max(0.0)
    }

    /// `true` if the two intervals overlap on a positive-length range.
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.overlap(other) > 0.0
    }
}

impl fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {})",
            TimeOfDay::wrap(self.start),
            TimeOfDay::wrap(self.end)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_of_day_components() {
        let t = TimeOfDay::from_hms(8, 30, 15);
        assert_eq!(t.hours(), 8);
        assert_eq!(t.minutes(), 30);
        assert!((t.seconds() - (8.0 * 3600.0 + 30.0 * 60.0 + 15.0)).abs() < 1e-9);
        assert_eq!(t.to_string(), "08:30");
    }

    #[test]
    fn minute_of_day_floors_and_stays_in_the_day() {
        assert_eq!(TimeOfDay::from_hms(8, 30, 0).minute_of_day(), 510);
        assert_eq!(
            TimeOfDay(f64::from_bits(30_600f64.to_bits() - 1)).minute_of_day(),
            509
        );
        assert_eq!(TimeOfDay(0.0).minute_of_day(), 0);
        assert_eq!(TimeOfDay(SECONDS_PER_DAY).minute_of_day(), 1_439);
        assert_eq!(TimeOfDay(f64::NAN).minute_of_day(), 0);
        assert_eq!(TimeOfDay(f64::INFINITY).minute_of_day(), 1_439);
    }

    #[test]
    fn wrap_handles_overflow_and_negative() {
        assert!((TimeOfDay::wrap(SECONDS_PER_DAY + 10.0).seconds() - 10.0).abs() < 1e-9);
        assert!((TimeOfDay::wrap(-10.0).seconds() - (SECONDS_PER_DAY - 10.0)).abs() < 1e-9);
    }

    #[test]
    fn timestamp_day_and_tod() {
        let t = Timestamp::from_day_hms(3, 7, 45, 0);
        assert_eq!(t.day(), 3);
        assert_eq!(t.time_of_day().hours(), 7);
        assert_eq!(t.time_of_day().minutes(), 45);
        let later = t.plus(3600.0);
        assert_eq!(later.time_of_day().hours(), 8);
        assert!((later.minus(t) - 3600.0).abs() < 1e-9);
    }

    #[test]
    fn interval_contains_and_overlap() {
        let morning = TimeInterval::new(8.0 * 3600.0, 8.5 * 3600.0);
        assert!(morning.contains(TimeOfDay::from_hms(8, 10, 0)));
        assert!(!morning.contains(TimeOfDay::from_hms(8, 30, 0)));
        assert!(!morning.contains(TimeOfDay::from_hms(7, 59, 59)));
        let other = TimeInterval::new(8.25 * 3600.0, 9.0 * 3600.0);
        assert!(morning.overlaps(&other));
        assert!((morning.overlap(&other) - 0.25 * 3600.0).abs() < 1e-9);
        let disjoint = TimeInterval::new(10.0 * 3600.0, 11.0 * 3600.0);
        assert!(!morning.overlaps(&disjoint));
        assert!((morning.duration() - 1800.0).abs() < 1e-9);
    }
}
