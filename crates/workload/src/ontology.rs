//! The service ontology (paper §2.1).
//!
//! Meta's network serves thousands of applications; per QoS class "a few
//! dominating services (<10) account for the majority of network usage,
//! and thousands of other services use a small fraction of capacity".
//! Most dominating services are storage-related, and one service's traffic
//! can span classes (Warmstorage data in Class B, control in Class A).
//!
//! [`ServiceCatalog::generate`] reproduces those properties: a fixed
//! roster of named head services inspired by the paper's examples, plus a
//! Zipf long tail, each with a per-class traffic split and a traffic
//! pattern. The catalog also implements the high-touch / low-touch split
//! the granting system depends on (§4.3).

use crate::patterns::TrafficPattern;
use entitlement_core::{DetRng, NpgId, QosClass, Rate};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One service (NPG) in the catalog.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Service {
    /// The service id.
    pub npg: NpgId,
    /// Human-readable name.
    pub name: String,
    /// Mean total egress rate across the backbone, per QoS class.
    pub rate_by_class: BTreeMap<QosClass, Rate>,
    /// Time-of-day shape of its traffic.
    pub pattern: TrafficPattern,
    /// Concentration of its sources: fraction of traffic into any
    /// destination contributed by its top-3 source regions (Fig 7 shows
    /// ≈ 0.67 for one storage service).
    pub source_concentration: f64,
}

impl Service {
    /// Total mean rate across classes.
    pub fn total_rate(&self) -> Rate {
        self.rate_by_class.values().copied().sum()
    }

    /// Mean rate in one class (zero if absent).
    pub fn rate_in(&self, qos: QosClass) -> Rate {
        self.rate_by_class.get(&qos).copied().unwrap_or(Rate::ZERO)
    }
}

/// Zipf exponent of tail sizes.
const TAIL_ZIPF_EXPONENT: f64 = 1.1;

/// Fraction of total traffic carried by head (named) services.
const HEAD_FRACTION: f64 = 0.8;

/// Parameters for catalog generation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CatalogSpec {
    /// Number of long-tail services (the paper says thousands; tests use
    /// fewer for speed).
    pub tail_services: usize,
    /// Total backbone traffic to distribute.
    pub total_traffic: Rate,
    /// Seed.
    pub seed: u64,
}

impl Default for CatalogSpec {
    fn default() -> Self {
        CatalogSpec {
            tail_services: 2000,
            total_traffic: Rate::tbps(100.0),
            seed: 0x5E11,
        }
    }
}

/// The full catalog of services sharing the backbone.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceCatalog {
    services: Vec<Service>,
}

/// A head-service template: (name, class mix, pattern, weight).
type HeadService = (&'static str, Vec<(QosClass, f64)>, TrafficPattern, f64);

/// Named head services with (name, class mix, pattern, weight).
/// Mixes follow §2.1: storage dominates; Warmstorage is mostly Class B
/// data with a sliver of Class A control traffic; Ads/feed products sit
/// in Class A.
fn head_roster() -> Vec<HeadService> {
    vec![
        (
            "logging", // Scribe
            vec![(QosClass::C2, 0.9), (QosClass::C1, 0.1)],
            TrafficPattern::Bursty {
                amplitude: 0.2,
                jitter_sigma: 0.25,
                seed: 101,
            },
            0.22,
        ),
        (
            "warmstorage", // F4
            vec![(QosClass::C2, 0.95), (QosClass::C1, 0.05)],
            TrafficPattern::warmstorage(),
            0.20,
        ),
        (
            "coldstorage",
            vec![(QosClass::C3, 0.85), (QosClass::C2, 0.15)],
            TrafficPattern::coldstorage(),
            0.16,
        ),
        (
            "datawarehouse", // Hive-style
            vec![(QosClass::C3, 0.7), (QosClass::C2, 0.3)],
            TrafficPattern::Bursty {
                amplitude: 0.3,
                jitter_sigma: 0.35,
                seed: 104,
            },
            0.13,
        ),
        (
            "multifeed",
            vec![(QosClass::C1, 0.8), (QosClass::C2, 0.2)],
            TrafficPattern::Diurnal {
                amplitude: 0.35,
                phase: 0.1,
            },
            0.09,
        ),
        (
            "everstore", // ZippyDB-style KV
            vec![(QosClass::C1, 0.6), (QosClass::C2, 0.4)],
            TrafficPattern::Diurnal {
                amplitude: 0.2,
                phase: 0.3,
            },
            0.08,
        ),
        (
            "ads",
            vec![(QosClass::C1, 0.9), (QosClass::C2, 0.1)],
            TrafficPattern::Diurnal {
                amplitude: 0.3,
                phase: 0.15,
            },
            0.07,
        ),
        (
            "video-cdn-fill",
            vec![(QosClass::C4, 0.8), (QosClass::C3, 0.2)],
            TrafficPattern::Diurnal {
                amplitude: 0.4,
                phase: 0.5,
            },
            0.05,
        ),
    ]
}

impl ServiceCatalog {
    /// Generate a catalog from the spec.
    pub fn generate(spec: &CatalogSpec) -> ServiceCatalog {
        let mut rng = DetRng::new(spec.seed);
        let mut services = Vec::new();
        let roster = head_roster();
        let weight_sum: f64 = roster.iter().map(|r| r.3).sum();
        let head_total = spec.total_traffic * HEAD_FRACTION;

        for (i, (name, mix, pattern, weight)) in roster.into_iter().enumerate() {
            let total = head_total * (weight / weight_sum);
            let mut rate_by_class = BTreeMap::new();
            for (qos, frac) in mix {
                rate_by_class.insert(qos, total * frac);
            }
            services.push(Service {
                npg: NpgId(i as u32),
                name: name.to_string(),
                rate_by_class,
                pattern,
                source_concentration: rng.range(0.6, 0.75),
            });
        }

        // Long tail: Zipf-distributed sizes over the remaining traffic.
        let tail_total = spec.total_traffic * (1.0 - HEAD_FRACTION);
        let zipf_norm: f64 = (1..=spec.tail_services)
            .map(|k| (k as f64).powf(-TAIL_ZIPF_EXPONENT))
            .sum();
        for k in 0..spec.tail_services {
            let share = ((k + 1) as f64).powf(-TAIL_ZIPF_EXPONENT) / zipf_norm;
            let total = tail_total * share;
            // Tail services live in one class, biased toward lower classes.
            let qos = match rng.usize(10) {
                0 | 1 => QosClass::C1,
                2..=4 => QosClass::C2,
                5..=7 => QosClass::C3,
                _ => QosClass::C4,
            };
            let mut rate_by_class = BTreeMap::new();
            rate_by_class.insert(qos, total);
            services.push(Service {
                npg: NpgId((head_roster().len() + k) as u32),
                name: format!("tail-{k:04}"),
                rate_by_class,
                pattern: TrafficPattern::Bursty {
                    amplitude: rng.range(0.1, 0.4),
                    jitter_sigma: rng.range(0.1, 0.5),
                    seed: spec.seed ^ (k as u64),
                },
                source_concentration: rng.range(0.4, 0.8),
            });
        }
        ServiceCatalog { services }
    }

    /// All services.
    pub fn services(&self) -> &[Service] {
        &self.services
    }

    /// Look up by NPG id.
    pub fn service(&self, npg: NpgId) -> Option<&Service> {
        self.services.iter().find(|s| s.npg == npg)
    }

    /// Look up by name.
    pub fn by_name(&self, name: &str) -> Option<&Service> {
        self.services.iter().find(|s| s.name == name)
    }

    /// Services with traffic in `qos`, sorted by that class's rate
    /// descending — the data behind Fig 1/2.
    pub fn class_distribution(&self, qos: QosClass) -> Vec<(&Service, Rate)> {
        let mut v: Vec<(&Service, Rate)> = self
            .services
            .iter()
            .map(|s| (s, s.rate_in(qos)))
            .filter(|(_, r)| !r.is_zero())
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        v
    }

    /// Total traffic in one class.
    pub fn class_total(&self, qos: QosClass) -> Rate {
        self.services.iter().map(|s| s.rate_in(qos)).sum()
    }

    /// High-touch services: the smallest set of largest services whose
    /// combined traffic exceeds `coverage` of the backbone total
    /// (paper §4.3: "a relatively small number (~10) of consumers account
    /// for the majority of network usage").
    pub fn high_touch(&self, coverage: f64) -> Vec<&Service> {
        let total = self.total_traffic().as_bps();
        let mut sorted: Vec<&Service> = self.services.iter().collect();
        sorted.sort_by(|a, b| b.total_rate().partial_cmp(&a.total_rate()).unwrap());
        let mut out = Vec::new();
        let mut acc = 0.0;
        for s in sorted {
            if acc / total >= coverage {
                break;
            }
            acc += s.total_rate().as_bps();
            out.push(s);
        }
        out
    }

    /// Everything not in the high-touch set, as the aggregated low-touch
    /// pseudo-service rate per class.
    pub fn low_touch_aggregate(&self, coverage: f64) -> BTreeMap<QosClass, Rate> {
        let high: Vec<NpgId> = self.high_touch(coverage).iter().map(|s| s.npg).collect();
        let mut out = BTreeMap::new();
        for s in self.services.iter().filter(|s| !high.contains(&s.npg)) {
            for (&qos, &r) in &s.rate_by_class {
                *out.entry(qos).or_insert(Rate::ZERO) += r;
            }
        }
        out
    }

    /// Total backbone traffic.
    pub fn total_traffic(&self) -> Rate {
        self.services.iter().map(Service::total_rate).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CatalogSpec {
        CatalogSpec {
            tail_services: 200,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn catalog_distributes_total_traffic() {
        let spec = small_spec();
        let cat = ServiceCatalog::generate(&spec);
        let total = cat.total_traffic();
        assert!(
            (total.as_tbps() - spec.total_traffic.as_tbps()).abs() < 0.5,
            "total {total}"
        );
        assert_eq!(cat.services().len(), 8 + 200);
    }

    #[test]
    fn few_services_dominate_each_class() {
        let cat = ServiceCatalog::generate(&small_spec());
        for qos in [QosClass::C1, QosClass::C2] {
            let dist = cat.class_distribution(qos);
            let total = cat.class_total(qos).as_bps();
            let top10: f64 = dist.iter().take(10).map(|(_, r)| r.as_bps()).sum();
            assert!(
                top10 / total > 0.7,
                "top-10 of {qos} carry only {:.2}",
                top10 / total
            );
            // But the tail is populated.
            assert!(dist.len() > 20, "class {qos} has {} services", dist.len());
        }
    }

    #[test]
    fn warmstorage_spans_two_classes() {
        let cat = ServiceCatalog::generate(&small_spec());
        let ws = cat.by_name("warmstorage").unwrap();
        assert!(!ws.rate_in(QosClass::C2).is_zero(), "data traffic in B");
        assert!(!ws.rate_in(QosClass::C1).is_zero(), "control traffic in A");
        assert!(ws.rate_in(QosClass::C2).as_bps() > ws.rate_in(QosClass::C1).as_bps());
    }

    #[test]
    fn high_touch_is_small_and_covers_majority() {
        let cat = ServiceCatalog::generate(&small_spec());
        let ht = cat.high_touch(0.75);
        assert!(ht.len() <= 10, "{} high-touch services", ht.len());
        let covered: f64 = ht.iter().map(|s| s.total_rate().as_bps()).sum();
        assert!(covered / cat.total_traffic().as_bps() >= 0.75);
        // Low-touch aggregate accounts for the remainder.
        let lt: Rate = cat.low_touch_aggregate(0.75).values().copied().sum();
        assert!(
            (covered + lt.as_bps() - cat.total_traffic().as_bps()).abs() < 1.0,
            "high + low must equal total"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ServiceCatalog::generate(&small_spec());
        let b = ServiceCatalog::generate(&small_spec());
        assert_eq!(a.services(), b.services());
    }

    #[test]
    fn lookup_by_npg_and_name_agree() {
        let cat = ServiceCatalog::generate(&small_spec());
        let ads = cat.by_name("ads").unwrap();
        assert_eq!(cat.service(ads.npg).unwrap().name, "ads");
        assert!(cat.by_name("nonexistent").is_none());
    }
}
