//! Bandwidth rates.
//!
//! [`Rate`] is a thin newtype over `f64` bits-per-second. Entitled rates in
//! the paper are "bits/s" fields of the contract; our simulations span six
//! orders of magnitude (Mbps host flows up to 100 Tbps backbone totals), so
//! a float representation with explicit unit constructors keeps the code
//! honest about units without fixed-point overflow headaches.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A non-negative bandwidth in bits per second.
///
/// Negative intermediate values can arise from subtraction; use
/// [`Rate::clamp_zero`] before interpreting a difference as a rate.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Rate(pub f64);

impl Rate {
    /// Zero bandwidth.
    pub const ZERO: Rate = Rate(0.0);

    /// Construct from bits per second.
    pub fn bps(v: f64) -> Rate {
        Rate(v)
    }

    /// Construct from megabits per second.
    pub fn mbps(v: f64) -> Rate {
        Rate(v * 1e6)
    }

    /// Construct from gigabits per second.
    pub fn gbps(v: f64) -> Rate {
        Rate(v * 1e9)
    }

    /// Construct from terabits per second.
    pub fn tbps(v: f64) -> Rate {
        Rate(v * 1e12)
    }

    /// Value in bits per second.
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// Value in gigabits per second.
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Value in terabits per second.
    pub fn as_tbps(self) -> f64 {
        self.0 / 1e12
    }

    /// Clamp negative values (from subtraction) to zero.
    pub fn clamp_zero(self) -> Rate {
        Rate(self.0.max(0.0))
    }

    /// Element-wise minimum.
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// Element-wise maximum.
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }

    /// True when the rate is effectively zero (below one bit/s).
    pub fn is_zero(self) -> bool {
        self.0 < 1.0
    }

    /// Fraction `self / other`, or 0 if `other` is zero. Handy for
    /// conform-ratio style computations that must not divide by zero.
    pub fn ratio_of(self, other: Rate) -> f64 {
        if other.is_zero() {
            0.0
        } else {
            self.0 / other.0
        }
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0.abs();
        if v >= 1e12 {
            write!(f, "{:.3}Tbps", self.0 / 1e12)
        } else if v >= 1e9 {
            write!(f, "{:.3}Gbps", self.0 / 1e9)
        } else if v >= 1e6 {
            write!(f, "{:.3}Mbps", self.0 / 1e6)
        } else if v >= 1e3 {
            write!(f, "{:.3}Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.1}bps", self.0)
        }
    }
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl AddAssign for Rate {
    fn add_assign(&mut self, rhs: Rate) {
        self.0 += rhs.0;
    }
}

impl Sub for Rate {
    type Output = Rate;
    fn sub(self, rhs: Rate) -> Rate {
        Rate(self.0 - rhs.0)
    }
}

impl SubAssign for Rate {
    fn sub_assign(&mut self, rhs: Rate) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    fn mul(self, rhs: f64) -> Rate {
        Rate(self.0 * rhs)
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    fn div(self, rhs: f64) -> Rate {
        Rate(self.0 / rhs)
    }
}

impl Div for Rate {
    type Output = f64;
    fn div(self, rhs: Rate) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for Rate {
    type Output = Rate;
    fn neg(self) -> Rate {
        Rate(-self.0)
    }
}

impl std::str::FromStr for Rate {
    type Err = String;

    /// Parse rates like `"1.5Tbps"`, `"300G"`, `"40 mbps"`, `"1200"`
    /// (bare numbers are bits per second). Case-insensitive; the `bps`
    /// suffix is optional after a unit letter.
    fn from_str(s: &str) -> std::result::Result<Rate, String> {
        let t = s.trim().to_ascii_lowercase().replace(' ', "");
        let (num_part, mult) = if let Some(p) = t.strip_suffix("tbps").or(t.strip_suffix("t")) {
            (p, 1e12)
        } else if let Some(p) = t.strip_suffix("gbps").or(t.strip_suffix("g")) {
            (p, 1e9)
        } else if let Some(p) = t.strip_suffix("mbps").or(t.strip_suffix("m")) {
            (p, 1e6)
        } else if let Some(p) = t.strip_suffix("kbps").or(t.strip_suffix("k")) {
            (p, 1e3)
        } else if let Some(p) = t.strip_suffix("bps") {
            (p, 1.0)
        } else {
            (t.as_str(), 1.0)
        };
        let v: f64 = num_part
            .parse()
            .map_err(|_| format!("cannot parse rate '{s}'"))?;
        if v < 0.0 {
            return Err(format!("negative rate '{s}'"));
        }
        Ok(Rate(v * mult))
    }
}

impl Sum for Rate {
    fn sum<I: Iterator<Item = Rate>>(iter: I) -> Rate {
        Rate(iter.map(|r| r.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors() {
        assert_eq!(Rate::gbps(1.0).as_bps(), 1e9);
        assert_eq!(Rate::tbps(2.0).as_gbps(), 2000.0);
        assert_eq!(Rate::mbps(500.0).as_gbps(), 0.5);
    }

    #[test]
    fn arithmetic() {
        let a = Rate::gbps(3.0) + Rate::gbps(2.0);
        assert!((a.as_gbps() - 5.0).abs() < 1e-12);
        let b = a - Rate::gbps(10.0);
        assert!(b.as_gbps() < 0.0);
        assert_eq!(b.clamp_zero(), Rate::ZERO);
        assert!((Rate::gbps(4.0) / Rate::gbps(2.0) - 2.0).abs() < 1e-12);
        let s: Rate = [Rate::gbps(1.0), Rate::gbps(2.0)].into_iter().sum();
        assert!((s.as_gbps() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_of_handles_zero() {
        assert_eq!(Rate::gbps(1.0).ratio_of(Rate::ZERO), 0.0);
        assert!((Rate::gbps(1.0).ratio_of(Rate::gbps(4.0)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Rate::tbps(1.5).to_string(), "1.500Tbps");
        assert_eq!(Rate::gbps(1.5).to_string(), "1.500Gbps");
        assert_eq!(Rate::mbps(1.5).to_string(), "1.500Mbps");
        assert_eq!(Rate::bps(12.0).to_string(), "12.0bps");
    }

    #[test]
    fn parsing_accepts_common_spellings() {
        let cases = [
            ("1.5Tbps", 1.5e12),
            ("300G", 300e9),
            ("40 mbps", 40e6),
            ("12K", 12e3),
            ("1200", 1200.0),
            ("7bps", 7.0),
            ("  2.5 Gbps ", 2.5e9),
        ];
        for (s, want) in cases {
            let r: Rate = s.parse().unwrap();
            assert!(
                (r.as_bps() - want).abs() < 1e-6 * want.max(1.0),
                "{s}: {} vs {want}",
                r.as_bps()
            );
        }
        assert!("fast".parse::<Rate>().is_err());
        assert!("-5G".parse::<Rate>().is_err());
        // Round trip through Display for the G case.
        let r: Rate = Rate::gbps(1.5).to_string().parse().unwrap();
        assert!((r.as_gbps() - 1.5).abs() < 1e-9);
    }
}
