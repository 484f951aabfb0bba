//! The dense [`ResidualIndex`] against a `BTreeMap` reference model.
//!
//! The table addresses a key arithmetically and re-strides itself when
//! an install names a region or a slice it does not span yet; the
//! model is the two ordered maps the table replaced and lives nowhere
//! but here. Random operation sequences drive both, and after every
//! step every observable agrees on every key of a small universe —
//! the keys the sequence touched and their never-touched neighbours
//! alike, so a grown table cannot leak one pair's cells into another's.

use entitlement_core::{QosBucket, Rate, RegionId};
use entitlement_market::{IndexKey, ResidualIndex, SliceId, SlotProvenance};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Keys are drawn below these bounds; the universe every step is
/// checked on reaches one past them.
const REGIONS: u16 = 4;
const SLICES: u32 = 5;

#[derive(Clone, Copy, Debug)]
struct Slot {
    remaining: Rate,
    consumed: Rate,
    built_epoch: u64,
}

/// The storage the table replaced, operation for operation.
#[derive(Default)]
struct Model {
    slots: BTreeMap<IndexKey, Slot>,
    provenance: BTreeMap<IndexKey, Arc<SlotProvenance>>,
    epoch: u64,
}

impl Model {
    fn fresh_remaining(&self, key: &IndexKey) -> Option<Rate> {
        self.slots
            .get(key)
            .filter(|s| s.built_epoch == self.epoch)
            .map(|s| s.remaining)
    }

    fn consumed(&self, key: &IndexKey) -> Rate {
        self.slots.get(key).map_or(Rate::ZERO, |s| s.consumed)
    }

    fn install(&mut self, key: IndexKey, headroom: Rate) {
        let consumed = self.consumed(&key);
        self.slots.insert(
            key,
            Slot {
                remaining: (headroom - consumed).clamp_zero(),
                consumed,
                built_epoch: self.epoch,
            },
        );
    }

    fn consume(&mut self, key: &IndexKey, granted: Rate) {
        if let Some(slot) = self.slots.get_mut(key) {
            slot.remaining = (slot.remaining - granted).clamp_zero();
            slot.consumed += granted;
        }
    }

    fn slot_state(&self, key: &IndexKey) -> &'static str {
        match self.slots.get(key) {
            Some(s) if s.built_epoch == self.epoch && !s.remaining.is_zero() => "fresh",
            Some(s) if s.built_epoch == self.epoch => "exhausted",
            Some(_) => "stale",
            None => "cold",
        }
    }

    /// What an index-path admit did in three walks: state, remaining,
    /// consume.
    fn serve(&mut self, key: &IndexKey, ask: Rate) -> Result<(Rate, Rate), &'static str> {
        match self.fresh_remaining(key) {
            Some(remaining) if !remaining.is_zero() => {
                let granted = ask.min(remaining);
                self.consume(key, granted);
                Ok((remaining, granted))
            }
            _ => Err(self.slot_state(key)),
        }
    }

    fn fresh_len(&self) -> usize {
        self.slots
            .values()
            .filter(|s| s.built_epoch == self.epoch)
            .count()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Install(IndexKey, Rate),
    InstallWith(IndexKey, Rate),
    /// Installs the `n`-th of a few records the test holds on to.
    InstallShared(IndexKey, Rate, usize),
    Consume(IndexKey, Rate),
    Serve(IndexKey, Rate),
    InvalidateAll,
}

fn key(src: u16, dst: u16, rank: usize, slice: u32) -> IndexKey {
    IndexKey {
        src: RegionId(src),
        dst: RegionId(dst),
        bucket: QosBucket::approval_order()[rank],
        slice: SliceId(slice),
    }
}

/// A rate from nothing through sub-bit (which `is_zero` calls empty)
/// to more than any headroom drawn here.
fn rate(scale: usize, unit: f64) -> Rate {
    match scale {
        0 => Rate::ZERO,
        1 => Rate::bps(2.0 * unit),
        2 => Rate::gbps(50.0 * unit),
        _ => Rate::gbps(2000.0 * unit),
    }
}

/// One operation on one key of the universe, serves the most likely.
fn any_op() -> impl Strategy<Value = Op> {
    let keys = (0..REGIONS, 0..REGIONS, 0usize..8, 0..SLICES);
    let draw = (0usize..15, keys, 0usize..4, 0.0f64..1.0);
    draw.prop_map(|(kind, (src, dst, rank, slice), scale, unit)| {
        let (k, r) = (key(src, dst, rank, slice), rate(scale, unit));
        match kind {
            0..=1 => Op::Install(k, r),
            2..=3 => Op::InstallWith(k, r),
            4..=6 => Op::InstallShared(k, r, kind - 4),
            7..=8 => Op::Consume(k, r),
            9..=13 => Op::Serve(k, r),
            _ => Op::InvalidateAll,
        }
    })
}

fn record(headroom: Rate) -> SlotProvenance {
    SlotProvenance {
        binding_scenario: format!("cut({headroom})"),
        binding_links: "l3+l7".to_string(),
        binding_probability: 0.01,
        headroom,
    }
}

fn bits(rate: Rate) -> u64 {
    rate.as_bps().to_bits()
}

/// Every observable of every key of the universe, plus the counts.
fn assert_same(index: &ResidualIndex, model: &Model) {
    for (src, dst) in (0..=REGIONS).flat_map(|s| (0..=REGIONS).map(move |d| (s, d))) {
        for (rank, slice) in (0..8).flat_map(|r| (0..=SLICES).map(move |s| (r, s))) {
            let k = key(src, dst, rank, slice);
            prop_assert_eq!(
                index.fresh_remaining(&k).map(bits),
                model.fresh_remaining(&k).map(bits),
                "fresh_remaining {:?}",
                k
            );
            prop_assert_eq!(
                bits(index.consumed(&k)),
                bits(model.consumed(&k)),
                "{:?}",
                k
            );
            prop_assert_eq!(index.slot_state(&k), model.slot_state(&k), "{:?}", k);
            let wanted = model.provenance.get(&k);
            prop_assert_eq!(index.provenance(&k), wanted.map(Arc::as_ref), "{:?}", k);
            if let (Some(held), Some(wanted)) = (index.provenance(&k), wanted) {
                // `install_with` hands the record over, so the model's
                // copy is a different allocation; a shared install is
                // the very `Arc` the test still holds.
                if Arc::strong_count(wanted) > 1 {
                    prop_assert!(std::ptr::eq(held, Arc::as_ptr(wanted)), "{:?}", k);
                }
            }
        }
    }
    prop_assert_eq!(index.fresh_len(), model.fresh_len());
    prop_assert_eq!(index.len(), model.slots.len());
    prop_assert_eq!(index.is_empty(), model.slots.is_empty());
    prop_assert_eq!(index.epoch(), model.epoch);
}

fn apply(index: &mut ResidualIndex, model: &mut Model, shared: &[Arc<SlotProvenance>], op: &Op) {
    match *op {
        Op::Install(k, headroom) => {
            index.install(k, headroom);
            model.install(k, headroom);
        }
        Op::InstallWith(k, headroom) => {
            index.install_with(k, headroom, record(headroom));
            model.install(k, headroom);
            model.provenance.insert(k, Arc::new(record(headroom)));
        }
        Op::InstallShared(k, headroom, n) => {
            index.install_shared(k, headroom, Arc::clone(&shared[n]));
            model.install(k, headroom);
            model.provenance.insert(k, Arc::clone(&shared[n]));
        }
        Op::Consume(k, granted) => {
            index.consume(&k, granted);
            model.consume(&k, granted);
        }
        Op::Serve(k, ask) => {
            let served = index.serve(&k, ask).map(|(b, g)| (bits(b), bits(g)));
            let wanted = model.serve(&k, ask).map(|(b, g)| (bits(b), bits(g)));
            prop_assert_eq!(served, wanted, "serve {:?} {}", k, ask);
        }
        Op::InvalidateAll => {
            index.invalidate_all();
            model.epoch += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random keys reach new regions and new slices in whatever order
    /// the sequence names them, so the pair table and the row stride
    /// grow interleaved, each before and after the other.
    #[test]
    fn the_table_is_the_two_maps_it_replaced(ops in proptest::collection::vec(any_op(), 1..60)) {
        let shared: Vec<Arc<SlotProvenance>> =
            (0..3).map(|n| Arc::new(record(Rate::gbps(f64::from(n))))).collect();
        let (mut index, mut model) = (ResidualIndex::new(), Model::default());
        assert_same(&index, &model);
        for op in &ops {
            apply(&mut index, &mut model, &shared, op);
            assert_same(&index, &model);
        }
    }
}

/// The two growth orders, spelled out: a full row first and then more
/// regions, and a wide pair table first and then more slices.
#[test]
fn growing_either_dimension_first_moves_no_cell() {
    let shared = [Arc::new(record(Rate::gbps(7.0)))];
    let slices_then_regions = [key(0, 1, 3, SLICES - 1), key(REGIONS - 1, 0, 3, 0)];
    let regions_then_slices = [key(REGIONS - 1, 0, 3, 0), key(0, 1, 3, SLICES - 1)];
    for order in [slices_then_regions, regions_then_slices] {
        let (mut index, mut model) = (ResidualIndex::new(), Model::default());
        for (n, &k) in order.iter().enumerate() {
            let headroom = Rate::gbps(100.0 + n as f64);
            let ops = [
                Op::InstallShared(k, headroom, 0),
                Op::Serve(k, Rate::gbps(30.0)),
            ];
            for op in &ops {
                apply(&mut index, &mut model, &shared, op);
                assert_same(&index, &model);
            }
        }
        assert_eq!(index.len(), 2);
    }
}

/// What-if copies: a clone is a few buffer copies that share every
/// provenance record, and nothing done to it reaches the original.
#[test]
fn a_clone_shares_provenance_and_nothing_else() {
    let shared = [Arc::new(record(Rate::gbps(500.0)))];
    let (mut index, mut model) = (ResidualIndex::new(), Model::default());
    let (served, idle) = (key(1, 2, 4, 0), key(1, 2, 4, 1));
    for k in [served, idle] {
        let op = Op::InstallShared(k, Rate::gbps(500.0), 0);
        apply(&mut index, &mut model, &shared, &op);
    }

    let mut copy = index.clone();
    assert_eq!(
        copy.serve(&served, Rate::gbps(120.0)).map(|(_, g)| g),
        Ok(Rate::gbps(120.0))
    );
    copy.install(key(3, 0, 0, SLICES), Rate::gbps(9.0));
    copy.invalidate_all();
    copy.install_with(idle, Rate::gbps(1.0), record(Rate::gbps(1.0)));

    // The original still is what the model says it was.
    assert_same(&index, &model);
    assert_eq!(index.epoch(), 0);
    assert_eq!(copy.epoch(), 1);
    assert_eq!(copy.consumed(&served), Rate::gbps(120.0));
    assert_eq!(copy.len(), 3);
    // Untouched in the copy: the very record the original points at.
    assert!(std::ptr::eq(
        copy.provenance(&served).unwrap(),
        index.provenance(&served).unwrap()
    ));
    assert!(std::ptr::eq(
        index.provenance(&idle).unwrap(),
        Arc::as_ptr(&shared[0])
    ));
    assert_ne!(copy.provenance(&idle), index.provenance(&idle));
}
