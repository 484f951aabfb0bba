//! `approval_round`: Algorithm 2 as a bulk pipeline.

use crate::harness::{best_mean_s, cores, Metrics, Mode, Rep, Scale, Workload};
use crate::stats::Digest;
use crate::trace::{mean_ns, Recorder};
use crate::workloads::admit::WORLD_SEED;
use network_entitlement::analyzer::preflight_hoses;
use network_entitlement::approval::{
    approve_requests, pipe_approval, ApprovalConfig, ApprovalRequest, HoseApproval, PipeApproval,
};
use network_entitlement::core::{DetRng, Direction, QosBand, QosBucket, Rate, RegionId, SloTarget};
use network_entitlement::hose::segment::FlowSeries;
use network_entitlement::hose::{generate_tms, segment_flow_series, HoseRequest, TmGenConfig};
use network_entitlement::risk::{assess_risk_detailed, RiskConfig};
use network_entitlement::topology::routing::Demand;
use network_entitlement::topology::{BackboneSpec, ScenarioSet, Topology};
use network_entitlement::workload::matrix::MatrixSpec;
use network_entitlement::workload::ontology::CatalogSpec;
use network_entitlement::workload::{ServiceCatalog, TrafficMatrix};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 12;

pub struct ApprovalRound {
    topo: Topology,
    config: ApprovalConfig,
    /// One `approve_requests` round each. The world seed deals the
    /// hoses into batches, so what is approved is the same for every
    /// run; the run seed draws only the order of the rounds.
    batches: Vec<Vec<ApprovalRequest>>,
}

/// Catalog -> traffic matrices -> segmented hoses, exactly as
/// `entitlectl plan` builds them.
fn plan_hoses(topo: &Topology, rec: &mut Recorder) -> Vec<HoseRequest> {
    let catalog = rec.time("workload.catalog", || {
        ServiceCatalog::generate(&CatalogSpec {
            tail_services: 200,
            seed: WORLD_SEED,
            ..Default::default()
        })
    });
    let mut rng = DetRng::new(WORLD_SEED);
    let mut hoses = Vec::new();
    for service in catalog.high_touch(0.75) {
        for &qos in service.rate_by_class.keys() {
            let tm = rec.time("workload.matrix", || {
                TrafficMatrix::synthesize(topo, service, qos, &MatrixSpec::default())
            });
            for (src, egress) in tm.egress_by_src() {
                if egress.as_gbps() < 50.0 {
                    continue;
                }
                let mut flows = FlowSeries::new();
                for (&(s, d), &r) in &tm.demands {
                    if s == src {
                        let j = rng.range(0.02, 0.08);
                        flows.insert(
                            d,
                            (0..12)
                                .map(|t| r.as_bps() * (1.0 + j * f64::from(t).sin()))
                                .collect(),
                        );
                    }
                }
                if flows.len() < 2 {
                    continue;
                }
                let hose = rec.time("hose.segment", || {
                    segment_flow_series(service.npg, qos, src, Direction::Egress, egress, &flows)
                });
                hoses.extend(hose);
            }
        }
    }
    hoses
}

impl Workload for ApprovalRound {
    const NAME: &'static str = "approval_round";
    const WORK_ITEM: &'static str = "hose decisions";
    const SEGMENT: usize = 1;

    fn build(seed: u64, scale: Scale, rec: &mut Recorder) -> Self {
        let topo = rec.time("topology.build", || {
            BackboneSpec {
                dc_count: 6,
                pop_count: 3,
                seed: WORLD_SEED,
                ..Default::default()
            }
            .build()
        });
        let mut hoses = plan_hoses(&topo, rec);
        let mut deal = DetRng::new(WORLD_SEED);
        deal.shuffle(&mut hoses);
        let slo = SloTarget::new(0.99).expect("0.99 is a valid target");
        let (rounds, largest) = match scale {
            Scale::Full => (ROUNDS, 10),
            Scale::Mini => (3, 3),
        };
        let mut hoses = hoses.into_iter();
        let mut batches: Vec<Vec<ApprovalRequest>> = (0..rounds)
            .map(|_| {
                let size = 2 + deal.usize(largest - 1);
                hoses
                    .by_ref()
                    .take(size)
                    .map(|hose| ApprovalRequest {
                        hose,
                        band: if deal.chance(0.5) {
                            QosBand::Low
                        } else {
                            QosBand::High
                        },
                        slo,
                    })
                    .collect()
            })
            .collect();
        assert!(
            batches.iter().all(|b| b.len() >= 2),
            "the plan yields enough hoses"
        );
        DetRng::new(seed).shuffle(&mut batches);
        ApprovalRound {
            topo,
            config: ApprovalConfig {
                tms_per_hose: 4,
                max_cuts: 1,
                workers: 1,
                ..Default::default()
            },
            batches,
        }
    }

    fn input_digest(&self) -> u64 {
        let mut d = Digest::new();
        for batch in &self.batches {
            d.word(batch.len() as u64);
            for r in batch {
                d.word(u64::from(r.hose.npg.0));
                d.word(u64::from(
                    QosBucket {
                        class: r.hose.qos,
                        band: r.band,
                    }
                    .rank(),
                ));
                d.word(u64::from(r.hose.region.0));
                d.f64(r.hose.total.as_bps());
                for s in &r.hose.segments {
                    d.f64(s.cap.as_bps());
                    d.word(s.regions.len() as u64);
                }
            }
        }
        d.finish()
    }

    fn rep(&self, mut mode: Mode<'_, '_>) -> Rep {
        let mut rep = Rep::default();
        let mut digest = Digest::new();
        let (mut requested, mut approved) = (0.0, 0.0);
        let mut traced_ns = 0;
        for batch in &self.batches {
            let out = match &mut mode {
                Mode::Throughput(timers) | Mode::Latency(timers) => {
                    timers.time(|| approve_requests(&self.topo, batch, &self.config))
                }
                Mode::Traced(rec) => {
                    let id = rec.open("approval.round");
                    let t = Instant::now();
                    let out = approve_requests(&self.topo, batch, &self.config);
                    traced_ns += t.elapsed().as_nanos() as u64;
                    rec.close(id);
                    self.shadow_round(rec, id, batch);
                    out
                }
            };
            rep.ops += 1;
            rep.work += batch.len() as u64;
            rep.failed += u64::from(!sound(batch, &out));
            for a in &out {
                requested += a.request.total.as_bps();
                approved += a.approved_total.as_bps();
                digest.f64(a.approved_total.as_bps());
                for r in &a.per_realization {
                    digest.f64(r.as_bps());
                }
            }
        }
        rep.timed_s = match &mode {
            Mode::Throughput(timers) | Mode::Latency(timers) => timers.total_s(),
            Mode::Traced(_) => traced_ns as f64 / 1e9,
        };
        rep.yield_share = approved / requested;
        rep.digest = digest.finish();
        rep
    }

    fn layers(&self, rec: &mut Recorder, out: &mut Metrics) {
        let fold = rec.fold();
        let mean = |name: &str| mean_ns(&fold, name);
        out.set("workload.catalog_ms", mean("workload.catalog") / 1e6);
        out.set("workload.matrix_us", mean("workload.matrix") / 1e3);
        out.set("hose.segment_us", mean("hose.segment") / 1e3);
        out.set("hose.tmgen_us", mean("hose.generate_tms") / 1e3);

        let rounds = fold["approval.round"];
        let hoses: usize = self.batches.iter().map(Vec::len).sum();
        let traced_reps = rounds.count as f64 / self.batches.len() as f64;
        out.set(
            "approval.round_ms",
            rounds.total_ns as f64 / rounds.count as f64 / 1e6,
        );
        out.set(
            "approval.hose_ms",
            rounds.total_ns as f64 / (hoses as f64 * traced_reps) / 1e6,
        );
        let preflight_ns = fold["analyzer.preflight_hoses"].total_ns as f64;
        out.set(
            "analyzer.preflight_us",
            preflight_ns / (hoses as f64 * traced_reps) / 1e3,
        );
        // What the shadow calls explain of a round; the rest is what
        // outside timing cannot see (ordering, background merge, curve
        // bookkeeping).
        let explained: u64 = [
            "topology.enumerate",
            "hose.generate_tms",
            "analyzer.preflight_hoses",
            "approval.pipe_approval",
        ]
        .iter()
        .map(|name| fold[name].total_ns)
        .sum();
        out.set(
            "approval.unattributed_share",
            1.0 - explained as f64 / rounds.total_ns as f64,
        );

        // The risk sweep alone, on the first round's demands.
        let scenarios = ScenarioSet::enumerate(&self.topo, self.config.max_cuts);
        let demands: Vec<Demand> = self.batches[0]
            .iter()
            .flat_map(|r| realizations(&r.hose, &self.config))
            .flatten()
            .collect();
        let risk = |workers| RiskConfig {
            k_paths: self.config.k_paths,
            background: Vec::new(),
            workers,
            dedup: true,
        };
        let serial = assess_risk_detailed(&self.topo, &demands, &scenarios, &risk(1));
        let serial_s = best_mean_s(3, 1, || {
            black_box(assess_risk_detailed(
                &self.topo,
                &demands,
                &scenarios,
                &risk(1),
            ));
        });
        out.set("risk.assess_ms", serial_s * 1e3);
        out.set(
            "risk.scenarios_per_s",
            serial.total_scenarios as f64 / serial_s,
        );
        out.set("risk.dedup_share", serial.dedup_savings());
        let parallel = assess_risk_detailed(&self.topo, &demands, &scenarios, &risk(cores()));
        assert!(
            serial.curves.len() == parallel.curves.len()
                && serial.curves.iter().zip(&parallel.curves).all(|(a, b)| {
                    a.samples().len() == b.samples().len()
                        && a.samples().iter().zip(b.samples()).all(|(x, y)| {
                            x.0.as_bps().to_bits() == y.0.as_bps().to_bits()
                                && x.1.to_bits() == y.1.to_bits()
                        })
                }),
            "serial and parallel risk curves must be bit-equal"
        );
        let parallel_s = best_mean_s(3, 1, || {
            black_box(assess_risk_detailed(
                &self.topo,
                &demands,
                &scenarios,
                &risk(cores()),
            ));
        });
        out.set("risk.par_speedup_x", serial_s / parallel_s);
    }
}

impl ApprovalRound {
    /// The layers under one round, called standalone with the round's
    /// own arguments and recorded as shadow children of its span:
    /// scenario enumeration, pre-flight, TM generation, and - replaying
    /// Algorithm 2's bucket order and background through the public
    /// `pipe_approval` - every risk sweep plus curve read the round ran.
    fn shadow_round(&self, rec: &mut Recorder, round: u32, batch: &[ApprovalRequest]) {
        let scenarios = rec.shadow("topology.enumerate", round, || {
            ScenarioSet::enumerate(&self.topo, self.config.max_cuts)
        });
        let hoses: Vec<HoseRequest> = batch.iter().map(|r| r.hose.clone()).collect();
        rec.shadow("analyzer.preflight_hoses", round, || {
            black_box(preflight_hoses(Some(&self.topo), &hoses));
        });
        let tms: Vec<Vec<Vec<Demand>>> = batch
            .iter()
            .map(|r| {
                rec.shadow("hose.generate_tms", round, || {
                    realizations(&r.hose, &self.config)
                })
            })
            .collect();

        let mut order: Vec<usize> = (0..batch.len()).collect();
        order.sort_by_key(|&i| {
            let hose = &batch[i].hose;
            (
                QosBucket {
                    class: hose.qos,
                    band: batch[i].band,
                }
                .rank(),
                u8::from(!hose.npg.is_low_touch()),
                hose.npg.0,
            )
        });
        let mut background: BTreeMap<(RegionId, RegionId), Rate> = BTreeMap::new();
        for h in order {
            let bg: Vec<Demand> = background
                .iter()
                .filter(|(_, amount)| !amount.is_zero())
                .map(|(&(src, dst), &amount)| Demand { src, dst, amount })
                .collect();
            let mut worst: Option<(Rate, Vec<PipeApproval>)> = None;
            for tm in &tms[h] {
                let requested: Vec<Rate> = tm.iter().map(|d| d.amount).collect();
                let pipes = rec.shadow("approval.pipe_approval", round, || {
                    pipe_approval(
                        &self.topo,
                        &scenarios,
                        tm,
                        &requested,
                        batch[h].slo,
                        &bg,
                        &self.config,
                    )
                });
                let sum: Rate = pipes.iter().map(|p| p.approved).sum();
                if worst
                    .as_ref()
                    .is_none_or(|(s, _)| sum.as_bps() < s.as_bps())
                {
                    worst = Some((sum, pipes));
                }
            }
            if let Some((sum, pipes)) = worst {
                let granted = sum.min(batch[h].hose.total);
                let scale = if sum.as_bps() > granted.as_bps() && !sum.is_zero() {
                    granted / sum
                } else {
                    1.0
                };
                for p in pipes {
                    let amount = if scale < 1.0 {
                        p.approved * scale
                    } else {
                        p.approved
                    };
                    if !amount.is_zero() {
                        *background.entry((p.src, p.dst)).or_insert(Rate::ZERO) += amount;
                    }
                }
            }
        }
    }
}

/// The TMs the engine generates for `hose`, as demand lists (the
/// engine's own seed derivation).
fn realizations(hose: &HoseRequest, config: &ApprovalConfig) -> Vec<Vec<Demand>> {
    generate_tms(
        hose,
        &TmGenConfig {
            count: config.tms_per_hose,
            seed: config.seed ^ u64::from(hose.npg.0) << 13 ^ u64::from(hose.region.0),
            ..Default::default()
        },
    )
    .into_iter()
    .map(|tm| {
        tm.iter()
            .map(|(&dst, &amount)| Demand {
                src: hose.region,
                dst,
                amount,
            })
            .collect()
    })
    .collect()
}

/// A round's contract: one decision per request, in request order,
/// never above the request, never NaN or negative.
fn sound(batch: &[ApprovalRequest], out: &[HoseApproval]) -> bool {
    out.len() == batch.len()
        && out.iter().zip(batch).all(|(a, r)| {
            let approved = a.approved_total.as_bps();
            a.request == r.hose
                && approved >= 0.0
                && approved <= r.hose.total.as_bps()
                && a.per_realization.iter().all(|x| x.as_bps().is_finite())
        })
}
