//! GPS records and trajectories.

use crate::error::TrajError;
use crate::time::Timestamp;
use pathcost_roadnet::Point;
use serde::{Deserialize, Serialize};

/// A single GPS fix: a location and the time it was observed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsRecord {
    /// Location in the network's planar frame.
    pub location: Point,
    /// Observation time.
    pub time: Timestamp,
}

/// A trajectory: the time-ordered GPS records of one trip (§2.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Identifier of the trajectory within its dataset.
    pub id: u64,
    records: Vec<GpsRecord>,
}

impl Trajectory {
    /// Creates a trajectory, validating that there are at least two records
    /// and that the record times strictly increase.
    pub fn new(id: u64, records: Vec<GpsRecord>) -> Result<Self, TrajError> {
        if records.len() < 2 {
            return Err(TrajError::TooFewRecords(records.len()));
        }
        for w in records.windows(2) {
            if w[1].time.seconds() <= w[0].time.seconds() {
                return Err(TrajError::NonMonotonicTime);
            }
        }
        Ok(Trajectory { id, records })
    }

    /// The GPS records in time order.
    pub fn records(&self) -> &[GpsRecord] {
        &self.records
    }

    /// Number of GPS records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if the trajectory has no records (never the case for validated
    /// trajectories, provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The departure time of the trip (time of the first record).
    pub fn start_time(&self) -> Timestamp {
        self.records[0].time
    }

    /// The arrival time of the trip (time of the last record).
    pub fn end_time(&self) -> Timestamp {
        self.records[self.records.len() - 1].time
    }

    /// Total duration of the trip in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_time().minus(self.start_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeOfDay;

    fn rec(x: f64, y: f64, t: f64) -> GpsRecord {
        GpsRecord {
            location: Point::new(x, y),
            time: Timestamp(t),
        }
    }

    #[test]
    fn valid_trajectory_reports_times() {
        let t = Trajectory::new(
            1,
            vec![
                rec(0.0, 0.0, 10.0),
                rec(30.0, 40.0, 20.0),
                rec(30.0, 140.0, 35.0),
            ],
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.start_time().seconds(), 10.0);
        assert_eq!(t.end_time().seconds(), 35.0);
        assert!((t.duration_s() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_too_few_records() {
        assert_eq!(
            Trajectory::new(1, vec![rec(0.0, 0.0, 0.0)]).unwrap_err(),
            TrajError::TooFewRecords(1)
        );
        assert_eq!(
            Trajectory::new(1, vec![]).unwrap_err(),
            TrajError::TooFewRecords(0)
        );
    }

    #[test]
    fn rejects_non_monotonic_time() {
        assert_eq!(
            Trajectory::new(1, vec![rec(0.0, 0.0, 10.0), rec(1.0, 1.0, 10.0)]).unwrap_err(),
            TrajError::NonMonotonicTime
        );
        assert_eq!(
            Trajectory::new(1, vec![rec(0.0, 0.0, 10.0), rec(1.0, 1.0, 5.0)]).unwrap_err(),
            TrajError::NonMonotonicTime
        );
    }

    #[test]
    fn start_time_time_of_day_is_preserved() {
        let depart = Timestamp::new(2, TimeOfDay::from_hms(8, 1, 0));
        let t = Trajectory::new(
            7,
            vec![
                GpsRecord {
                    location: Point::new(0.0, 0.0),
                    time: depart,
                },
                GpsRecord {
                    location: Point::new(10.0, 0.0),
                    time: depart.plus(30.0),
                },
            ],
        )
        .unwrap();
        assert_eq!(t.start_time().day(), 2);
        assert_eq!(t.start_time().time_of_day().hours(), 8);
    }
}
