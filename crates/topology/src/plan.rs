//! Route each (region pair, failure set) once.
//!
//! Every consumer of the risk sweep asks the same question over and
//! over: *which k paths does a demand from `src` to `dst` ride when this
//! set of links is dead?* The answer is a pure function of
//! `(topology, src, dst, k, dead-link set)` — it reads fiber lengths,
//! never capacities or demand volumes — so a [`RoutePlan`] computes it
//! once per region pair and serves every later placement by lookup.
//!
//! A plan belongs to one `(topology, scenario set, k)`. Building it
//! only deduplicates the scenarios' failure sets; [`RoutePlan::ensure`]
//! then fills pairs in, and the plan is read-only while a sweep fans
//! out over it (no lock, no interior mutability, so any worker count
//! reads the same bytes). Placement over a plan — `RoutePlan::route`
//! and `route_on` — lives with the rest of the router in
//! [`crate::routing`].
//!
//! **The pool rule.** A region pair's *pool* is one Yen search on the
//! intact graph, `POOL_DEPTH` paths deep (k + 1 if that is more). Yen
//! is exact, so the loopless paths that avoid a dead set are, in order,
//! the pool's paths that survive it: a failure set is served its first
//! k survivors when the pool also holds a (k+1)-th survivor (or the
//! search ran out of paths) and no two consecutive survivors among
//! those k + 1 are within `NEAR_TIE` of each other — a tie that a
//! search of its own might break the other way. A failure set that
//! kills nothing is served the pool's first k as they stand; one the
//! pool cannot answer gets a Yen run of its own. The argument needs
//! strictly positive, finite link lengths; on a topology without them
//! every failure set that kills a link is searched.
//!
//! **The pool memo.** A pool depends on the topology's links and
//! nothing else, so the topology keeps it: the first plan to fill a
//! pair searches it, under the memo's lock, and every later plan of
//! that topology — another round, a faulted market plan, a clone's —
//! reads it. The lock is taken only inside [`RoutePlan::ensure`]; a
//! plan copies the paths it serves into its own tables. Adding a
//! region or a link gives the topology a fresh, empty memo.
//!
//! Each pair's answers are stored once: the answer under the links
//! dead in every failure set of the plan (none, normally; the faulted
//! links once a fault is applied to all scenarios) is the pair's base,
//! and any failure set served the same paths shares its entry.

use crate::failure::ScenarioSet;
use crate::graph::{LinkId, Topology};
use crate::path::{k_shortest_paths_avoiding, Path, Yen};
use entitlement_core::RegionId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A set of links as one bit per [`LinkId`] of a topology. Ids past the
/// topology's link count name no link and are never members.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct LinkMask(Vec<u64>);

impl LinkMask {
    fn empty(link_count: usize) -> LinkMask {
        LinkMask(vec![0; link_count.div_ceil(64)])
    }

    pub(crate) fn of(link_count: usize, links: &[LinkId]) -> LinkMask {
        let mut mask = LinkMask::empty(link_count);
        for &l in links.iter().filter(|l| l.index() < link_count) {
            mask.insert(l);
        }
        mask
    }

    pub(crate) fn insert(&mut self, link: LinkId) {
        if let Some(word) = self.0.get_mut(link.index() / 64) {
            *word |= 1 << (link.index() % 64);
        }
    }

    pub(crate) fn contains(&self, link: LinkId) -> bool {
        self.0
            .get(link.index() / 64)
            .is_some_and(|word| word >> (link.index() % 64) & 1 == 1)
    }

    /// Become `other`, a mask over the same topology.
    pub(crate) fn copy_from(&mut self, other: &LinkMask) {
        self.0.copy_from_slice(&other.0);
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&word| word == 0)
    }
}

/// How deep a pair's pool is searched (k + 1 if that is more). Deeper
/// answers more failure sets from the pool and costs every pair more
/// selections; 10 is where the approval world's fill time bottoms out
/// (DESIGN §16).
const POOL_DEPTH: usize = 10;

/// One region pair's pool: its loopless paths on the intact graph,
/// shortest first.
struct Pool {
    paths: Vec<Path>,
    /// Whether `paths` is every loopless path of the pair.
    exhausted: bool,
}

impl Pool {
    /// No path at all: a pair the graph does not connect, or a region
    /// it does not have.
    const NONE: Pool = Pool {
        paths: Vec::new(),
        exhausted: true,
    };

    fn search(topo: &Topology, src: RegionId, dst: RegionId, depth: usize) -> Pool {
        match Yen::new(topo, src, dst, LinkMask::empty(topo.link_count())) {
            Ok(mut yen) => {
                yen.extend_to(depth);
                Pool {
                    exhausted: yen.exhausted(),
                    paths: yen.into_paths(),
                }
            }
            Err(_) => Pool::NONE,
        }
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.paths.capacity() * size_of::<Path>()
            + self
                .paths
                .iter()
                .map(|p| p.links.capacity() * size_of::<LinkId>())
                .sum::<usize>()
    }
}

/// Each pooled region pair's pool.
type Pools = BTreeMap<(RegionId, RegionId), Arc<Pool>>;

/// The pools of a topology's region pairs, at most one per ordered
/// pair, each searched on first use (see the [module docs](self)).
/// Clones share it; [`Topology`]'s equality, `Debug` and wire format
/// ignore it.
#[derive(Clone, Default)]
pub(crate) struct PoolMemo(Arc<Mutex<Pools>>);

impl PoolMemo {
    /// The pool of `src -> dst` on `topo`, the topology holding this
    /// memo, at least `depth` paths deep or exhausted. A miss, or a
    /// pool shallower than `depth`, is searched and stored in place of
    /// what was there. A region `topo` does not have gets no paths, and
    /// nothing is stored for it. A poisoned lock is recovered: an entry
    /// is only ever replaced whole, so no holder's panic leaves the map
    /// half-written.
    fn pool(&self, topo: &Topology, src: RegionId, dst: RegionId, depth: usize) -> Arc<Pool> {
        let known = |r: RegionId| r.index() < topo.region_count();
        if !known(src) || !known(dst) {
            return Arc::new(Pool::NONE);
        }
        let mut pools = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        match pools.get(&(src, dst)) {
            Some(pool) if pool.exhausted || pool.paths.len() >= depth => Arc::clone(pool),
            _ => {
                let pool = Arc::new(Pool::search(topo, src, dst, depth));
                pools.insert((src, dst), Arc::clone(&pool));
                pool
            }
        }
    }

    /// Forget every pool, for this holder alone: the graph they were
    /// searched on is changing. Clones sharing the memo keep theirs.
    pub(crate) fn detach(&mut self) {
        match Arc::get_mut(&mut self.0) {
            Some(pools) => pools
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .clear(),
            None => *self = PoolMemo::default(),
        }
    }

    /// Region pairs pooled so far.
    pub(crate) fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Bytes held by the pools and the map's entries (capacity, not
    /// length).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let pools = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = size_of::<((RegionId, RegionId), Arc<Pool>)>()
            + 2 * size_of::<usize>() // the `Arc`'s counts
            + size_of::<Pool>();
        pools.values().map(|p| entry + p.heap_bytes()).sum()
    }
}

/// Relative length gap under which two paths count as tied. Far above
/// the few ulps by which a path's re-summed length can disagree with
/// its spur distance, far below any gap between genuinely different
/// fiber routes.
const NEAR_TIE: f64 = 1e-9;

/// One stored path: a range of the plan's link arena.
#[derive(Clone, Copy, Debug)]
struct PathRef {
    start: u32,
    len: u32,
    length_km: f64,
}

/// One path served by a [`RoutePlan`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannedPath<'a> {
    /// Links traversed, in order.
    pub links: &'a [LinkId],
    /// Total fiber length.
    pub length_km: f64,
}

/// Precomputed k-shortest path sets for one
/// `(topology, scenario set, k_paths)`; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct RoutePlan {
    k_paths: usize,
    /// Unique failure set of every scenario.
    assignment: Vec<u32>,
    /// First scenario carrying each unique failure set, in
    /// first-appearance order.
    representatives: Vec<usize>,
    /// Dead-link mask of each unique failure set.
    dead: Vec<LinkMask>,
    /// Links dead in every failure set: a pair's answer under them is
    /// its base.
    common: LinkMask,
    /// Whether the pool rule's premise (positive, finite link lengths)
    /// holds for this topology.
    poolable: bool,
    /// Row of each filled region pair in `set_of`.
    rows: BTreeMap<(RegionId, RegionId), u32>,
    /// `set_of[row * unique_len + u]`: the path set a pair rides under
    /// unique failure set `u`.
    set_of: Vec<u32>,
    /// Path set → its range of `paths`; set 0 is the empty set of a
    /// disconnected pair.
    sets: Vec<(u32, u32)>,
    paths: Vec<PathRef>,
    /// Every stored path's links, back to back.
    links: Vec<LinkId>,
}

impl RoutePlan {
    /// A plan with no pair filled in yet. Two scenarios share a unique
    /// failure set when they kill the same links of `topo`.
    pub fn build(topo: &Topology, scenarios: &ScenarioSet, k_paths: usize) -> RoutePlan {
        RoutePlan::of_dead_sets(
            topo,
            scenarios.scenarios.iter().map(|s| s.dead_links.as_slice()),
            k_paths,
        )
    }

    pub(crate) fn of_dead_sets<'a>(
        topo: &Topology,
        dead_sets: impl Iterator<Item = &'a [LinkId]>,
        k_paths: usize,
    ) -> RoutePlan {
        let mut unique_of: BTreeMap<LinkMask, u32> = BTreeMap::new();
        let mut representatives = Vec::new();
        let mut assignment = Vec::new();
        let mut dead: Vec<LinkMask> = Vec::new();
        for (idx, links) in dead_sets.enumerate() {
            let mask = LinkMask::of(topo.link_count(), links);
            assignment.push(*unique_of.entry(mask).or_insert_with_key(|mask| {
                representatives.push(idx);
                dead.push(mask.clone());
                (dead.len() - 1) as u32
            }));
        }
        let mut common = dead
            .first()
            .cloned()
            .unwrap_or_else(|| LinkMask::empty(topo.link_count()));
        for mask in &dead {
            for (c, m) in common.0.iter_mut().zip(&mask.0) {
                *c &= m;
            }
        }
        RoutePlan {
            k_paths,
            assignment,
            representatives,
            dead,
            common,
            poolable: topo
                .links()
                .iter()
                .all(|l| l.length_km.is_finite() && l.length_km > 0.0),
            rows: BTreeMap::new(),
            set_of: Vec::new(),
            sets: vec![(0, 0)],
            paths: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Paths per demand this plan routes with.
    pub fn k_paths(&self) -> usize {
        self.k_paths
    }

    /// Scenarios in the set the plan was built from.
    pub fn scenario_count(&self) -> usize {
        self.assignment.len()
    }

    /// Distinct failure sets among them.
    pub fn unique_len(&self) -> usize {
        self.representatives.len()
    }

    /// The unique failure set of scenario `scenario`.
    pub fn unique_of(&self, scenario: usize) -> usize {
        self.assignment.get(scenario).map_or(0, |&u| u as usize)
    }

    /// The first scenario carrying each unique failure set, in
    /// first-appearance order.
    pub fn representatives(&self) -> &[usize] {
        &self.representatives
    }

    /// Whether every pair in `pairs` is filled in.
    pub fn covers(&self, pairs: impl IntoIterator<Item = (RegionId, RegionId)>) -> bool {
        pairs
            .into_iter()
            .all(|(src, dst)| src == dst || self.rows.contains_key(&(src, dst)))
    }

    /// Fill in the path sets of `pairs` under every failure set. `topo`
    /// must be the topology the plan was built for. Pairs already
    /// present, and `src == dst`, cost a lookup; a pair `topo` has
    /// pooled before costs no search of its pool.
    pub fn ensure(
        &mut self,
        topo: &Topology,
        pairs: impl IntoIterator<Item = (RegionId, RegionId)>,
    ) {
        for (src, dst) in pairs {
            if src != dst && !self.rows.contains_key(&(src, dst)) {
                self.fill(topo, src, dst);
            }
        }
    }

    fn fill(&mut self, topo: &Topology, src: RegionId, dst: RegionId) {
        let row = (self.set_of.len() / self.unique_len().max(1)) as u32;
        self.rows.insert((src, dst), row);
        let pool = topo
            .pools
            .pool(topo, src, dst, POOL_DEPTH.max(self.k_paths + 1));
        let mut picked = Vec::with_capacity(self.k_paths + 1);
        let base = self.answer(topo, &pool, (src, dst), None, 0, &mut picked);
        for u in 0..self.unique_len() {
            let set = if self.dead[u] == self.common {
                base
            } else {
                self.answer(topo, &pool, (src, dst), Some(u), base, &mut picked)
            };
            self.set_of.push(set);
        }
    }

    /// Store the k shortest paths of `pair` that avoid failure set
    /// `unique`'s dead links (`None`: the common ones), or name `shared`
    /// when that set holds the same paths. Read off `pool` by the pool
    /// rule where it can answer, searched otherwise.
    fn answer(
        &mut self,
        topo: &Topology,
        pool: &Pool,
        (src, dst): (RegionId, RegionId),
        unique: Option<usize>,
        shared: u32,
        picked: &mut Vec<usize>,
    ) -> u32 {
        let k = self.k_paths;
        let dead = unique.map_or(&self.common, |u| &self.dead[u]);
        if dead.is_empty() {
            // The pool is Yen's own search on this graph: its first k
            // are the answer as they stand, near-ties and all.
            self.store(shared, pool.paths.iter().take(k))
        } else if self.poolable && read_pool(pool, dead, k, picked) {
            self.store(shared, picked.iter().map(|&i| &pool.paths[i]))
        } else {
            let own =
                k_shortest_paths_avoiding(topo, src, dst, k, dead.clone()).unwrap_or_default();
            self.store(shared, own.iter())
        }
    }

    /// Store a path set, or name `shared` when that set holds the same
    /// paths; the empty set is set 0.
    fn store<'p>(&mut self, shared: u32, paths: impl Iterator<Item = &'p Path> + Clone) -> u32 {
        let same = paths.clone().map(|p| PlannedPath {
            links: &p.links,
            length_km: p.length_km,
        });
        if self.set(shared).eq(same) {
            return shared;
        }
        let first = self.paths.len() as u32;
        for p in paths {
            self.paths.push(PathRef {
                start: self.links.len() as u32,
                len: p.links.len() as u32,
                length_km: p.length_km,
            });
            self.links.extend_from_slice(&p.links);
        }
        let len = self.paths.len() as u32 - first;
        if len == 0 {
            return 0;
        }
        self.sets.push((first, len));
        (self.sets.len() - 1) as u32
    }

    /// The paths of stored set `set`, shortest first.
    fn set(&self, set: u32) -> impl Iterator<Item = PlannedPath<'_>> {
        let (first, len) = self.sets[set as usize];
        self.paths[first as usize..(first + len) as usize]
            .iter()
            .map(|p| PlannedPath {
                links: &self.links[p.start as usize..(p.start + p.len) as usize],
                length_km: p.length_km,
            })
    }

    /// The paths a demand from `src` to `dst` rides under unique failure
    /// set `unique`, shortest first. Empty when the failure set
    /// disconnects the pair — and, failing closed, for a pair
    /// [`RoutePlan::ensure`] was never asked for.
    pub fn paths(
        &self,
        src: RegionId,
        dst: RegionId,
        unique: usize,
    ) -> impl Iterator<Item = PlannedPath<'_>> {
        let set = self
            .rows
            .get(&(src, dst))
            .and_then(|&row| self.set_of.get(row as usize * self.unique_len() + unique));
        debug_assert!(set.is_some(), "{src}->{dst} was not ensured");
        self.set(set.copied().unwrap_or(0))
    }

    /// Whether `link` is dead under unique failure set `unique`.
    pub(crate) fn is_dead(&self, unique: usize, link: LinkId) -> bool {
        self.dead.get(unique).is_some_and(|m| m.contains(link))
    }

    /// Path sets stored so far: per pair its base set, plus one per
    /// failure set whose paths differ from the base and are not empty.
    pub fn path_sets(&self) -> usize {
        self.sets.len() - 1
    }

    /// Bytes held by the plan's tables (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.assignment.capacity() * size_of::<u32>()
            + self.representatives.capacity() * size_of::<usize>()
            + self
                .dead
                .iter()
                .map(|m| m.0.capacity() * 8 + size_of::<LinkMask>())
                .sum::<usize>()
            + self.rows.len() * (size_of::<(RegionId, RegionId)>() + size_of::<u32>())
            + self.set_of.capacity() * size_of::<u32>()
            + self.sets.capacity() * size_of::<(u32, u32)>()
            + self.paths.capacity() * size_of::<PathRef>()
            + self.links.capacity() * size_of::<LinkId>()
    }
}

/// The k shortest paths avoiding `dead`, read off `pool` as indices
/// into it (see the pool rule in the [module docs](self)). False when
/// the pool cannot answer exactly: fewer than k + 1 survivors in a
/// pool that did not run out, or a near-tie among the first k + 1.
fn read_pool(pool: &Pool, dead: &LinkMask, k: usize, picked: &mut Vec<usize>) -> bool {
    picked.clear();
    picked.extend(
        pool.paths
            .iter()
            .enumerate()
            .filter(|(_, p)| p.links.iter().all(|&l| !dead.contains(l)))
            .map(|(i, _)| i)
            .take(k + 1),
    );
    if picked.len() <= k && !pool.exhausted {
        return false;
    }
    let tied = picked
        .windows(2)
        .any(|w| pool.paths[w[1]].length_km <= pool.paths[w[0]].length_km * (1.0 + NEAR_TIE));
    picked.truncate(k);
    !tied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::BackboneSpec;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A holder that panics leaves the memo's lock poisoned; the next
    /// fill recovers it instead of panicking in turn.
    #[test]
    fn a_poisoned_memo_lock_is_recovered() {
        let topo = BackboneSpec::small(3).build();
        let ids = topo.region_ids();
        let died = catch_unwind(AssertUnwindSafe(|| {
            let _held = topo.pools.0.lock();
            panic!("a holder dies with the memo locked");
        }));
        assert!(died.is_err() && topo.pools.0.is_poisoned());

        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let mut plan = RoutePlan::build(&topo, &scenarios, 4);
        plan.ensure(&topo, [(ids[0], ids[1])]);
        assert_eq!((topo.pooled_pairs(), topo.pools.0.is_poisoned()), (1, true));
        let served: Vec<Vec<LinkId>> = plan
            .paths(ids[0], ids[1], 0)
            .map(|p| p.links.to_vec())
            .collect();
        let searched = crate::path::k_shortest_paths(&topo, ids[0], ids[1], 4, &[]).unwrap();
        assert_eq!(
            served,
            searched.into_iter().map(|p| p.links).collect::<Vec<_>>()
        );
    }
}
