//! Time slices: a [`Period`] chopped into fixed-width admission
//! windows.
//!
//! The paper's contracts are quarterly; Hummingbird-style fine-grained
//! admission needs something between "the whole quarter" and "right
//! now". A [`SliceGrid`] divides an enforcement period into equal
//! slices (the last one absorbs the remainder), and every market
//! entitlement or admission is keyed by the slice it occupies.

use entitlement_core::{Period, Quarter};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of one slice within a [`SliceGrid`], 0-based.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SliceId(pub u32);

impl fmt::Display for SliceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An enforcement period divided into fixed-width time slices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SliceGrid {
    /// The period the grid covers.
    pub period: Period,
    /// Width of each slice in days (the final slice absorbs any
    /// remainder).
    pub slice_days: u32,
}

impl SliceGrid {
    /// Build a grid; `slice_days` is clamped to at least one day and at
    /// most the whole period.
    pub fn new(period: Period, slice_days: u32) -> SliceGrid {
        SliceGrid {
            period,
            slice_days: slice_days.clamp(1, period.days()),
        }
    }

    /// The grid for a planning quarter.
    pub fn quarterly(quarter: Quarter, slice_days: u32) -> SliceGrid {
        SliceGrid::new(quarter.period(), slice_days)
    }

    /// Number of slices in the grid.
    pub fn slice_count(&self) -> u32 {
        self.period.days() / self.slice_days
    }

    /// All slice ids, in order.
    pub fn slices(&self) -> impl Iterator<Item = SliceId> {
        (0..self.slice_count()).map(SliceId)
    }

    /// The slice containing `day`, if the day falls inside the period.
    pub fn slice_of(&self, day: u32) -> Option<SliceId> {
        if !self.period.contains(day) {
            return None;
        }
        let idx = (day - self.period.start_day) / self.slice_days;
        // The remainder tail belongs to the last full slice.
        Some(SliceId(idx.min(self.slice_count() - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarterly_grid_partitions_the_period() {
        let grid = SliceGrid::quarterly(Quarter(0), 7);
        assert_eq!(grid.slice_count(), 12, "90 days / 7 = 12 full slices");
        let mut days = vec![0; grid.slice_count() as usize];
        for d in grid.period.start_day..grid.period.end_day {
            days[grid.slice_of(d).expect("slices tile the period").0 as usize] += 1;
        }
        assert!(days[..11].iter().all(|&n| n == 7), "{days:?}");
        // The last slice absorbs the 6-day remainder.
        assert_eq!(days[11], 13);
    }

    #[test]
    fn slice_of_maps_days_to_slices() {
        let grid = SliceGrid::quarterly(Quarter(1), 30);
        let p = Quarter(1).period();
        assert_eq!(grid.slice_of(p.start_day), Some(SliceId(0)));
        assert_eq!(grid.slice_of(p.start_day + 30), Some(SliceId(1)));
        assert_eq!(grid.slice_of(p.end_day - 1), Some(SliceId(2)));
        assert_eq!(grid.slice_of(p.end_day), None, "outside the period");
        assert_eq!(grid.slice_of(0), None);
    }

    #[test]
    fn degenerate_widths_are_clamped() {
        let grid = SliceGrid::new(Period::new(0, 10), 0);
        assert_eq!(grid.slice_days, 1);
        let grid = SliceGrid::new(Period::new(0, 10), 99);
        assert_eq!(grid.slice_days, 10);
        assert_eq!(grid.slice_count(), 1);
    }
}
