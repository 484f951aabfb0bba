//! Quality-of-Service classes.
//!
//! Meta classifies backbone traffic into four classes c1..c4 with strictly
//! decreasing priority (paper §4.3); each class is further split into a
//! `low`/`high` band, giving the eight approval buckets the approval engine
//! sweeps from `c1_low` (most premium) down to `c4_high`. The paper's
//! figures 1/2 additionally speak of broad "Class A"/"Class B" buckets;
//! we map those onto [`QosClass::C1`]/[`QosClass::C2`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the four backbone traffic classes, priority decreasing from C1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum QosClass {
    /// Most premium class ("Class A" in §2.1).
    C1,
    /// Second class ("Class B" in §2.1).
    C2,
    /// Third class.
    C3,
    /// Least premium class.
    C4,
}

impl QosClass {
    /// All classes, most premium first.
    pub const ALL: [QosClass; 4] = [QosClass::C1, QosClass::C2, QosClass::C3, QosClass::C4];

    /// Strict priority (0 = most premium). Used for switch queue mapping
    /// and approval ordering.
    pub fn priority(self) -> u8 {
        match self {
            QosClass::C1 => 0,
            QosClass::C2 => 1,
            QosClass::C3 => 2,
            QosClass::C4 => 3,
        }
    }

    /// Default availability SLO target associated with the class
    /// (paper §1: "we define different availability SLOs for each class of
    /// service"). Values follow the paper's example magnitude (0.9998 for
    /// premium traffic) with progressively looser targets.
    pub fn default_slo(self) -> f64 {
        match self {
            QosClass::C1 => 0.9998,
            QosClass::C2 => 0.999,
            QosClass::C3 => 0.99,
            QosClass::C4 => 0.95,
        }
    }

    /// Legacy "Class A"/"Class B" naming used in the measurement section.
    pub fn letter(self) -> char {
        match self {
            QosClass::C1 => 'A',
            QosClass::C2 => 'B',
            QosClass::C3 => 'C',
            QosClass::C4 => 'D',
        }
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.priority() + 1)
    }
}

/// The low/high band within a class. `Low` is more premium than `High`
/// within the same class (the approval sweep runs c1_low, c1_high, c2_low,
/// ... c4_high).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum QosBand {
    /// More premium band of the class.
    Low,
    /// Less premium band of the class.
    High,
}

impl fmt::Display for QosBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosBand::Low => write!(f, "low"),
            QosBand::High => write!(f, "high"),
        }
    }
}

/// A fully-qualified approval bucket `(class, band)`, e.g. `c1_low`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QosBucket {
    /// Traffic class.
    pub class: QosClass,
    /// Band within the class.
    pub band: QosBand,
}

impl QosBucket {
    /// All eight buckets in strict approval order: c1_low first, c4_high
    /// last (paper Algorithm 2 processes "one class at a time until
    /// reaching the least premium one (c4_high)").
    pub fn approval_order() -> [QosBucket; 8] {
        let mut out = [QosBucket {
            class: QosClass::C1,
            band: QosBand::Low,
        }; 8];
        let mut i = 0;
        for class in QosClass::ALL {
            for band in [QosBand::Low, QosBand::High] {
                out[i] = QosBucket { class, band };
                i += 1;
            }
        }
        out
    }

    /// Strict priority rank (0 = c1_low, 7 = c4_high).
    pub fn rank(self) -> u8 {
        self.class.priority() * 2
            + match self.band {
                QosBand::Low => 0,
                QosBand::High => 1,
            }
    }

    /// The bucket's name, `c1_low` to `c4_high`: `{class}_{band}`.
    pub fn as_str(self) -> &'static str {
        use {QosBand::*, QosClass::*};
        match (self.class, self.band) {
            (C1, Low) => "c1_low",
            (C1, High) => "c1_high",
            (C2, Low) => "c2_low",
            (C2, High) => "c2_high",
            (C3, Low) => "c3_low",
            (C3, High) => "c3_high",
            (C4, Low) => "c4_low",
            (C4, High) => "c4_high",
        }
    }
}

impl fmt::Display for QosBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// DSCP code points used by the enforcement dataplane.
///
/// Conforming traffic keeps a per-class DSCP; non-conforming traffic is
/// remarked to [`Dscp::NON_CONFORMING`] which switches map to the lowest
/// priority queue *regardless of the original class* (paper §5.1 fn 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dscp(pub u8);

impl Dscp {
    /// The special code point for remarked, over-entitlement traffic.
    pub const NON_CONFORMING: Dscp = Dscp(1);

    /// The conforming code point for a QoS class (AF-style spacing).
    pub fn for_class(class: QosClass) -> Dscp {
        match class {
            QosClass::C1 => Dscp(46), // EF
            QosClass::C2 => Dscp(34), // AF41
            QosClass::C3 => Dscp(26), // AF31
            QosClass::C4 => Dscp(10), // AF11
        }
    }

    /// Switch queue index for this code point; higher = served first.
    /// Non-conforming traffic maps below every conforming class.
    pub fn queue(self) -> u8 {
        match self.0 {
            46 => 4,
            34 => 3,
            26 => 2,
            10 => 1,
            _ => 0, // NON_CONFORMING and anything unknown: scavenger queue
        }
    }

    /// Whether this code point denotes remarked non-conforming traffic.
    pub fn is_non_conforming(self) -> bool {
        self == Self::NON_CONFORMING
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approval_order_is_strict() {
        let order = QosBucket::approval_order();
        assert_eq!(order.len(), 8);
        for (i, b) in order.iter().enumerate() {
            assert_eq!(b.rank() as usize, i);
        }
        assert_eq!(order[0].to_string(), "c1_low");
        assert_eq!(order[7].to_string(), "c4_high");
    }

    #[test]
    fn class_priority_monotonic_with_slo() {
        let mut prev = f64::INFINITY;
        for c in QosClass::ALL {
            assert!(c.default_slo() < prev, "SLO must loosen with priority");
            prev = c.default_slo();
        }
    }

    #[test]
    fn nonconforming_queue_is_lowest() {
        for c in QosClass::ALL {
            assert!(
                Dscp::for_class(c).queue() > Dscp::NON_CONFORMING.queue(),
                "non-conforming must rank below every conforming class"
            );
        }
        assert!(Dscp::NON_CONFORMING.is_non_conforming());
        assert!(!Dscp::for_class(QosClass::C4).is_non_conforming());
    }

    #[test]
    fn letters_match_paper_naming() {
        assert_eq!(QosClass::C1.letter(), 'A');
        assert_eq!(QosClass::C2.letter(), 'B');
    }

    #[test]
    fn display_forms() {
        assert_eq!(QosClass::C3.to_string(), "c3");
        assert_eq!(
            QosBucket {
                class: QosClass::C2,
                band: QosBand::High
            }
            .to_string(),
            "c2_high"
        );
    }

    #[test]
    fn bucket_names_are_class_underscore_band() {
        for b in QosBucket::approval_order() {
            assert_eq!(b.as_str(), format!("{}_{}", b.class, b.band));
            assert_eq!(b.as_str(), b.to_string());
        }
    }
}
