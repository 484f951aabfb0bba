//! The market across book and fault changes.
//!
//! `set_faults` takes the dead set as a set: asking again for the set
//! it holds, in another order or with repeats, moves nothing. And the
//! committed background the market keeps placed between sweeps is, at
//! every sweep, the one a from-scratch sweep places:
//! `pair_headroom_probe` builds its own plan and places the background
//! itself, so every sweep-path install must bit-equal it, whatever
//! book loads, fault changes, heals and clones came before.

use network_entitlement::approval::ApprovalConfig;
use network_entitlement::core::{NpgId, QosBand, QosBucket, QosClass, Quarter, Rate, RegionId};
use network_entitlement::market::{
    pair_headroom_probe, AdmitDecision, AdmitPath, AdmitRequest, EntitlementKind,
    EntitlementMarket, IndexKey, MarketEntitlement, SliceGrid, SliceId,
};
use network_entitlement::obs::Obs;
use network_entitlement::topology::{BackboneSpec, LinkId, ScenarioSet};
use proptest::prelude::*;

const MAX_CUTS: usize = 1;

fn config() -> ApprovalConfig {
    ApprovalConfig {
        max_cuts: MAX_CUTS,
        ..Default::default()
    }
}

fn market() -> EntitlementMarket {
    EntitlementMarket::new(
        BackboneSpec::small(7).build(),
        SliceGrid::quarterly(Quarter(0), 30),
        config(),
    )
}

fn c3_low() -> QosBucket {
    QosBucket {
        class: QosClass::C3,
        band: QosBand::Low,
    }
}

fn ask(src: RegionId, dst: RegionId, slice: u32, gbps: f64) -> AdmitRequest {
    AdmitRequest {
        npg: NpgId(1),
        bucket: c3_low(),
        slice: SliceId(slice),
        src,
        dst,
        ask: Rate::gbps(gbps),
    }
}

#[test]
fn set_faults_takes_the_dead_set_as_a_set() {
    let mut market = market();
    market.warm(&[c3_low()], &Obs::disabled());
    let dcs = market.topology().dc_ids();
    let tiny = ask(dcs[0], dcs[1], 0, 0.001);

    let cut = |market: &mut EntitlementMarket, links: &[u32]| {
        let links: Vec<LinkId> = links.iter().map(|&l| LinkId(l)).collect();
        market.set_faults(&links);
        market.index().epoch()
    };
    // A change applies the links in the order given, each once, and
    // the next admit of a key re-sweeps it.
    let epoch = cut(&mut market, &[0, 0]);
    assert_eq!(market.dead_links(), [LinkId(0)]);
    assert_eq!(market.admit(&tiny).path, AdmitPath::Sweep);
    for same in [&[0, 0][..], &[0]] {
        assert_eq!(cut(&mut market, same), epoch, "{same:?} again");
        assert_eq!(market.dead_links(), [LinkId(0)]);
        let d = market.admit(&tiny);
        assert_eq!(d.path, AdmitPath::Index, "{same:?} again");
        assert!(!d.granted.is_zero());
    }

    let epoch = cut(&mut market, &[0, 3]);
    assert_eq!(market.dead_links(), [LinkId(0), LinkId(3)]);
    assert_eq!(market.admit(&tiny).path, AdmitPath::Sweep);
    for same in [&[3, 0][..], &[0, 3, 3, 0], &[3, 3, 0]] {
        assert_eq!(cut(&mut market, same), epoch, "{same:?} after [0, 3]");
        assert_eq!(market.dead_links(), [LinkId(0), LinkId(3)], "{same:?}");
        let d = market.admit(&tiny);
        assert_eq!(d.path, AdmitPath::Index, "{same:?} after [0, 3]");
        assert!(!d.granted.is_zero());
    }

    // A set that differs still clears, then applies, in its own order.
    let moved = cut(&mut market, &[3]);
    assert_eq!(moved, epoch + 2);
    assert_eq!(market.dead_links(), [LinkId(3)]);
    assert_eq!(cut(&mut market, &[]), moved + 1);
    assert!(market.dead_links().is_empty());
    assert_eq!(cut(&mut market, &[]), moved + 1, "no faults, asked again");
}

/// The contracts the loads draw subsets from: against 1 Tbps links,
/// large enough to move the headroom of the pairs they share links
/// with. The usage-based one reserves nothing.
fn book(market: &EntitlementMarket) -> Vec<MarketEntitlement> {
    let dcs = market.topology().dc_ids();
    let entry = |npg, src: usize, dst: usize, gbps, kind| MarketEntitlement {
        npg: NpgId(npg),
        bucket: c3_low(),
        src: dcs[src],
        dst: dcs[dst],
        rate: Rate::gbps(gbps),
        kind,
    };
    vec![
        entry(100, 0, 1, 400.0, EntitlementKind::Subscription),
        entry(101, 1, 2, 300.0, EntitlementKind::Subscription),
        entry(
            102,
            2,
            0,
            250.0,
            EntitlementKind::Quota { volume_bytes: 1e15 },
        ),
        entry(103, 3, 4, 350.0, EntitlementKind::Subscription),
        entry(104, 0, 2, 500.0, EntitlementKind::UsageBased),
        entry(105, 4, 1, 200.0, EntitlementKind::Subscription),
    ]
}

/// The scenario set a market with these dead links sweeps: the
/// enumeration with the fault added to every scenario.
fn effective(market: &EntitlementMarket) -> ScenarioSet {
    let mut set = ScenarioSet::enumerate(market.topology(), MAX_CUTS);
    for s in &mut set.scenarios {
        for l in market.dead_links() {
            if !s.dead_links.contains(l) {
                s.dead_links.push(*l);
            }
        }
    }
    set
}

/// A sweep-path decision installed exactly what a from-scratch probe
/// of the market's current topology, effective set and book computes.
fn assert_swept_fresh(market: &EntitlementMarket, req: &AdmitRequest, d: &AdmitDecision) {
    assert_eq!(d.path, AdmitPath::Sweep, "{req:?}");
    let witness = pair_headroom_probe(
        market.topology(),
        &effective(market),
        &market.book().reserved_background(),
        req.src,
        req.dst,
        EntitlementMarket::slo_for(req.bucket),
        config().k_paths,
        &Obs::disabled(),
    );
    let key = IndexKey {
        src: req.src,
        dst: req.dst,
        bucket: req.bucket,
        slice: req.slice,
    };
    let installed = market
        .index()
        .provenance(&key)
        .expect("a sweep records provenance");
    assert_eq!(
        installed.headroom.as_bps().to_bits(),
        witness.headroom.as_bps().to_bits(),
        "{req:?} under {:?}",
        market.dead_links()
    );
    assert_eq!(*installed, witness.provenance, "{req:?}");
}

/// Ask for far more than any slot holds, twice: the second ask finds
/// the slot exhausted (or it was empty) and sweeps. Every sweep is
/// checked against the witness.
fn exhaust(market: &mut EntitlementMarket, bits: u64) {
    let dcs = market.topology().dc_ids();
    let src = dcs[bits as usize % dcs.len()];
    let dst = dcs[(bits >> 8) as usize % dcs.len()];
    let dst = if dst == src {
        dcs[(dcs.iter().position(|&d| d == src).unwrap_or(0) + 1) % dcs.len()]
    } else {
        dst
    };
    let req = ask(
        src,
        dst,
        (bits >> 16) as u32 % market.grid().slice_count(),
        1e6,
    );
    for _ in 0..2 {
        let d = market.admit(&req);
        if d.path == AdmitPath::Sweep {
            assert_swept_fresh(market, &req, &d);
        }
    }
}

/// Up to three links drawn from `bits`, repeats and all.
fn links(market: &EntitlementMarket, bits: u64) -> Vec<LinkId> {
    let n = market.topology().link_count() as u64;
    (0..bits % 4)
        .map(|i| LinkId(((bits >> (8 + 8 * i)) % n) as u32))
        .collect()
}

/// Apply one operation, `code` picking it and `bits` its arguments.
fn step(market: &mut EntitlementMarket, book: &[MarketEntitlement], code: u8, bits: u64) {
    match code {
        0 => {
            let subset: Vec<MarketEntitlement> = book
                .iter()
                .enumerate()
                .filter(|(i, _)| bits >> i & 1 == 1)
                .map(|(_, c)| c.clone())
                .collect();
            market.load_contracts(&subset);
        }
        1 => market.set_faults(&links(market, bits)),
        2 => market.clear_faults(),
        3 => {
            // A clone takes faults, a book and sweeps of its own; the
            // original's slots and dead set do not move, and its next
            // sweeps still match a from-scratch probe of *its* state.
            let dcs = market.topology().dc_ids();
            let keys: Vec<IndexKey> = dcs
                .iter()
                .flat_map(|&src| dcs.iter().map(move |&dst| (src, dst)))
                .filter(|(src, dst)| src != dst)
                .map(|(src, dst)| IndexKey {
                    src,
                    dst,
                    bucket: c3_low(),
                    slice: SliceId(0),
                })
                .collect();
            let slots = |m: &EntitlementMarket| -> Vec<Option<u64>> {
                keys.iter()
                    .map(|k| m.index().fresh_remaining(k).map(|r| r.as_bps().to_bits()))
                    .collect()
            };
            let (before, dead, epoch) = (
                slots(market),
                market.dead_links().to_vec(),
                market.index().epoch(),
            );
            let mut clone = market.clone();
            clone.set_faults(&links(market, bits | 1));
            exhaust(&mut clone, bits >> 5);
            clone.load_contracts(&book[(bits % book.len() as u64) as usize..][..1]);
            exhaust(&mut clone, bits >> 13);
            drop(clone);
            assert_eq!(
                slots(market),
                before,
                "a clone's faults moved the original's slots"
            );
            assert_eq!(market.dead_links(), dead);
            assert_eq!(market.index().epoch(), epoch);
            exhaust(market, bits >> 21);
        }
        _ => {
            exhaust(market, bits);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_sweep_reads_a_placement_equal_to_a_fresh_one(
        ops in proptest::collection::vec((0u8..5, any::<u64>()), 4..12),
        warm in any::<bool>(),
    ) {
        let mut market = market();
        let book = book(&market);
        if warm {
            market.warm(&[c3_low()], &Obs::disabled());
        }
        for &(code, bits) in &ops {
            step(&mut market, &book, code, bits);
            // Every operation is followed by a sweep somewhere.
            exhaust(&mut market, bits.rotate_left(29));
        }
    }
}
