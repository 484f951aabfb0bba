//! Route each (region pair, failure set) once.
//!
//! Every consumer of the risk sweep asks the same question over and
//! over: *which k paths does a demand from `src` to `dst` ride when this
//! set of links is dead?* The answer is a pure function of
//! `(topology, src, dst, k, dead-link set)` — it reads fiber lengths,
//! never capacities or demand volumes — so the topology answers it once
//! per region pair and every [`RoutePlan`] serves later placements by
//! lookup.
//!
//! A plan belongs to one `(topology, scenario set, k)`. Building it
//! only deduplicates the scenarios' failure sets; [`RoutePlan::ensure`]
//! then fills pairs in, and the plan is read-only while a sweep fans
//! out over it (no lock, no interior mutability, so any worker count
//! reads the same bytes). Placement over a plan — `RoutePlan::route`
//! and `route_on` — lives with the rest of the router in
//! [`crate::routing`]; [`RoutePlan::place`] places a background under
//! every failure set at once, as one [`Placement`].
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
//! **The memo.** A pool depends on the topology's links alone, and a
//! pair's answers on its pool, `k` and the failure sets, so the
//! topology keeps both behind one lock: one pool per ordered pair, and
//! per *plan key* — `k` plus the plan's unique dead-link masks in
//! first-appearance order, matched on full equality — one row per pair,
//! its path sets under every failure set of the key. When
//! [`RoutePlan::ensure`] meets a pair the plan does not hold, it takes
//! the lock and hands the plan the key's row: filled by an earlier plan
//! of the topology (another round, a clone's, the healthy plan a heal
//! rebuilds), or filled now from the pair's pool, itself searched now if
//! no plan has read it. A plan is a view: its scenario index plus one
//! shared row per pair. The memo keeps at most [`PLAN_KEYS`] keys and
//! forgets the one asked for least recently; a plan holding a forgotten
//! key's rows keeps them. Adding a region or a link gives the topology
//! a fresh, empty memo.
//!
//! A row stores each of its pair's answers once: the answer under the
//! links dead in every failure set of the key (none, normally; the
//! faulted links once a fault is applied to all scenarios) is the
//! pair's base, and any failure set served the same paths shares its
//! entry.

use crate::failure::ScenarioSet;
use crate::graph::{LinkId, Topology};
use crate::path::{k_shortest_paths_avoiding, Path, Yen};
use crate::routing::Demand;
use entitlement_core::{Rate, RegionId};
use std::collections::BTreeMap;
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

    fn heap_bytes(&self) -> usize {
        size_of::<LinkMask>() + self.0.capacity() * size_of::<u64>()
    }
}

/// How deep a pair's pool is searched (k + 1 if that is more). Deeper
/// answers more failure sets from the pool and costs every pair more
/// selections; 10 is where the approval world's fill time bottoms out
/// (DESIGN §16).
const POOL_DEPTH: usize = 10;

/// Plan keys the memo keeps rows for: enough for a market's healthy
/// set, its latest fault, an approval round's set and a one-set
/// `route_matrix` plan at once. A new key past this many forgets the
/// key asked for least recently.
pub const PLAN_KEYS: usize = 4;

/// One region pair's pool: its loopless paths on the intact graph,
/// shortest first.
struct Pool {
    paths: Vec<Path>,
    /// Whether `paths` is every loopless path of the pair.
    exhausted: bool,
}

impl Pool {
    fn search(topo: &Topology, src: RegionId, dst: RegionId, depth: usize) -> Pool {
        match Yen::new(topo, src, dst, LinkMask::empty(topo.link_count())) {
            Ok(mut yen) => {
                yen.extend_to(depth);
                Pool {
                    exhausted: yen.exhausted(),
                    paths: yen.into_paths(),
                }
            }
            // A pair the graph does not connect: no path at all.
            Err(_) => Pool {
                paths: Vec::new(),
                exhausted: true,
            },
        }
    }

    fn heap_bytes(&self) -> usize {
        self.paths.capacity() * size_of::<Path>()
            + self
                .paths
                .iter()
                .map(|p| p.links.capacity() * size_of::<LinkId>())
                .sum::<usize>()
    }
}

/// The memo's work so far: what [`Topology::route_work`] reports. Each
/// count is taken under the memo's lock, beside the work it counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteWork {
    /// Yen searches of a pair's pool.
    pub pool_searches: u64,
    /// Yen searches of one failure set that the pool rule could not
    /// answer (a pool too short for it, or a near-tie).
    pub own_searches: u64,
    /// Rows filled: one pair's path sets under every failure set of one
    /// plan key.
    pub row_fills: u64,
}

/// One stored path: a range of its row's link arena.
#[derive(Clone, Copy, Debug)]
struct PathRef {
    start: u32,
    len: u32,
    length_km: f64,
}

/// One region pair's path sets under every unique failure set of one
/// plan key, each table at exact capacity.
#[derive(Debug)]
struct Row {
    /// `set_of[u]`: the path set the pair rides under unique failure
    /// set `u`.
    set_of: Box<[u32]>,
    /// Path set → its range of `paths`; set 0 is the empty set of a
    /// disconnected pair.
    sets: Box<[(u32, u32)]>,
    paths: Box<[PathRef]>,
    /// Every stored path's links, back to back.
    links: Box<[LinkId]>,
}

impl Row {
    /// A pair naming a region the topology does not have: no path under
    /// any failure set.
    fn unknown(unique_len: usize) -> Row {
        Row {
            set_of: vec![0; unique_len].into(),
            sets: Box::new([(0, 0)]),
            paths: Box::new([]),
            links: Box::new([]),
        }
    }

    /// Bytes the row holds, its `Arc`'s counts included.
    fn heap_bytes(&self) -> usize {
        2 * size_of::<usize>()
            + size_of::<Row>()
            + self.set_of.len() * size_of::<u32>()
            + self.sets.len() * size_of::<(u32, u32)>()
            + self.paths.len() * size_of::<PathRef>()
            + self.links.len() * size_of::<LinkId>()
    }
}

/// The paths of set `set` of one row's tables, shortest first.
fn stored<'a>(
    sets: &'a [(u32, u32)],
    paths: &'a [PathRef],
    links: &'a [LinkId],
    set: u32,
) -> impl Iterator<Item = PlannedPath<'a>> {
    let (first, len) = sets[set as usize];
    paths[first as usize..(first + len) as usize]
        .iter()
        .map(|p| PlannedPath {
            links: &links[p.start as usize..(p.start + p.len) as usize],
            length_km: p.length_km,
        })
}

/// A row being filled: what its pair's answers are read from, and the
/// tables they are stored in.
struct Fill<'a> {
    topo: &'a Topology,
    plan: &'a RoutePlan,
    pool: &'a Pool,
    pair: (RegionId, RegionId),
    work: &'a mut RouteWork,
    sets: Vec<(u32, u32)>,
    paths: Vec<PathRef>,
    links: Vec<LinkId>,
}

impl Fill<'_> {
    /// The pair's row under every unique failure set of the plan.
    fn row(mut self) -> Row {
        let plan = self.plan;
        let mut picked = Vec::with_capacity(plan.k_paths + 1);
        let base = self.answer(&plan.common, 0, &mut picked);
        let set_of = plan
            .dead
            .iter()
            .map(|dead| {
                if *dead == plan.common {
                    base
                } else {
                    self.answer(dead, base, &mut picked)
                }
            })
            .collect();
        self.work.row_fills += 1;
        Row {
            set_of,
            sets: self.sets.into_boxed_slice(),
            paths: self.paths.into_boxed_slice(),
            links: self.links.into_boxed_slice(),
        }
    }

    /// Store the k shortest paths of the pair that avoid `dead`, or name
    /// `shared` when that set holds the same paths. Read off the pool by
    /// the pool rule where it can answer, searched otherwise.
    fn answer(&mut self, dead: &LinkMask, shared: u32, picked: &mut Vec<usize>) -> u32 {
        let (topo, pool, k) = (self.topo, self.pool, self.plan.k_paths);
        if dead.is_empty() {
            // The pool is Yen's own search on this graph: its first k
            // are the answer as they stand, near-ties and all.
            self.store(shared, pool.paths.iter().take(k))
        } else if self.plan.poolable && read_pool(pool, dead, k, picked) {
            self.store(shared, picked.iter().map(|&i| &pool.paths[i]))
        } else {
            self.work.own_searches += 1;
            let (src, dst) = self.pair;
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
        if stored(&self.sets, &self.paths, &self.links, shared).eq(same) {
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
}

/// One plan key's filled rows.
struct Shelf {
    k_paths: usize,
    /// The key's unique dead-link masks, in first-appearance order.
    dead: Vec<LinkMask>,
    rows: BTreeMap<(RegionId, RegionId), Arc<Row>>,
}

/// What the lock guards: each pooled pair's pool, the rows of up to
/// [`PLAN_KEYS`] plan keys, and the work done filling them.
#[derive(Default)]
struct Memo {
    pools: BTreeMap<(RegionId, RegionId), Arc<Pool>>,
    /// Asked for least recently first.
    shelves: Vec<Shelf>,
    work: RouteWork,
}

impl Memo {
    /// The pool of `src -> dst` on `topo`, at least `depth` paths deep
    /// or exhausted. A miss, or a pool shallower than `depth`, is
    /// searched and stored in place of what was there.
    fn pool(&mut self, topo: &Topology, src: RegionId, dst: RegionId, depth: usize) -> Arc<Pool> {
        match self.pools.get(&(src, dst)) {
            Some(pool) if pool.exhausted || pool.paths.len() >= depth => Arc::clone(pool),
            _ => {
                self.work.pool_searches += 1;
                let pool = Arc::new(Pool::search(topo, src, dst, depth));
                self.pools.insert((src, dst), Arc::clone(&pool));
                pool
            }
        }
    }
}

/// The memo of a topology's pools and plan rows (see the
/// [module docs](self)). Clones share it; [`Topology`]'s equality,
/// `Debug` and wire format ignore it.
#[derive(Clone, Default)]
pub(crate) struct RouteMemo(Arc<Mutex<Memo>>);

/// The memo locked for one plan, whose key's rows are `shelves[at]`.
struct Shelved<'m> {
    memo: MutexGuard<'m, Memo>,
    at: usize,
}

impl RouteMemo {
    /// The memo, locked. A poisoned lock is recovered: a pool or a row
    /// is only ever stored whole, so no holder's panic leaves either
    /// half-written.
    fn lock(&self) -> MutexGuard<'_, Memo> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memo locked for `plan`'s key, made the key asked for most
    /// recently; a new key forgets the least recent one past
    /// [`PLAN_KEYS`].
    fn shelve(&self, plan: &RoutePlan) -> Shelved<'_> {
        let mut memo = self.lock();
        let found = memo
            .shelves
            .iter()
            .position(|s| s.k_paths == plan.k_paths && s.dead == plan.dead);
        let shelf = match found {
            Some(at) => memo.shelves.remove(at),
            None => {
                if memo.shelves.len() == PLAN_KEYS {
                    memo.shelves.remove(0);
                }
                Shelf {
                    k_paths: plan.k_paths,
                    dead: plan.dead.clone(),
                    rows: BTreeMap::new(),
                }
            }
        };
        memo.shelves.push(shelf);
        let at = memo.shelves.len() - 1;
        Shelved { memo, at }
    }

    /// Forget every pool and row, and the work count, for this holder
    /// alone: the graph they were searched on is changing. Clones
    /// sharing the memo keep theirs.
    pub(crate) fn detach(&mut self) {
        match Arc::get_mut(&mut self.0) {
            Some(memo) => {
                let memo = memo.get_mut().unwrap_or_else(PoisonError::into_inner);
                memo.pools.clear();
                memo.shelves.clear();
                memo.work = RouteWork::default();
            }
            None => *self = RouteMemo::default(),
        }
    }

    /// Region pairs pooled so far.
    pub(crate) fn pooled(&self) -> usize {
        self.lock().pools.len()
    }

    /// Bytes held by the pools and the map's entries (capacity, not
    /// length).
    pub(crate) fn pool_bytes(&self) -> usize {
        let entry = size_of::<((RegionId, RegionId), Arc<Pool>)>()
            + 2 * size_of::<usize>() // the `Arc`'s counts
            + size_of::<Pool>();
        self.lock()
            .pools
            .values()
            .map(|p| entry + p.heap_bytes())
            .sum()
    }

    /// Plan keys with rows kept.
    pub(crate) fn keys(&self) -> usize {
        self.lock().shelves.len()
    }

    /// Bytes held by the kept keys and their rows.
    pub(crate) fn row_bytes(&self) -> usize {
        let entry = size_of::<((RegionId, RegionId), Arc<Row>)>();
        self.lock()
            .shelves
            .iter()
            .map(|s| {
                size_of::<Shelf>()
                    + s.dead.iter().map(LinkMask::heap_bytes).sum::<usize>()
                    + s.rows
                        .values()
                        .map(|r| entry + r.heap_bytes())
                        .sum::<usize>()
            })
            .sum()
    }

    pub(crate) fn work(&self) -> RouteWork {
        self.lock().work
    }
}

impl Shelved<'_> {
    /// The row of `pair` under the shelved key: the stored one, or one
    /// filled now and stored. A region `topo` does not have gets no
    /// paths, and nothing is stored for it.
    fn row(&mut self, topo: &Topology, plan: &RoutePlan, pair: (RegionId, RegionId)) -> Arc<Row> {
        let known = |r: RegionId| r.index() < topo.region_count();
        if !known(pair.0) || !known(pair.1) {
            return Arc::new(Row::unknown(plan.unique_len()));
        }
        if let Some(row) = self.memo.shelves[self.at].rows.get(&pair) {
            return Arc::clone(row);
        }
        let depth = POOL_DEPTH.max(plan.k_paths + 1);
        let pool = self.memo.pool(topo, pair.0, pair.1, depth);
        let row = Arc::new(
            Fill {
                topo,
                plan,
                pool: &pool,
                pair,
                work: &mut self.memo.work,
                sets: vec![(0, 0)],
                paths: Vec::new(),
                links: Vec::new(),
            }
            .row(),
        );
        self.memo.shelves[self.at]
            .rows
            .insert(pair, Arc::clone(&row));
        row
    }
}

/// Relative length gap under which two paths count as tied. Far above
/// the few ulps by which a path's re-summed length can disagree with
/// its spur distance, far below any gap between genuinely different
/// fiber routes.
const NEAR_TIE: f64 = 1e-9;

/// One path served by a [`RoutePlan`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannedPath<'a> {
    /// Links traversed, in order.
    pub links: &'a [LinkId],
    /// Total fiber length.
    pub length_km: f64,
}

/// Precomputed k-shortest path sets for one
/// `(topology, scenario set, k_paths)`: a view of the topology's memo
/// rows; see the [module docs](self).
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
    /// Each filled region pair's row, shared with the memo.
    rows: BTreeMap<(RegionId, RegionId), Arc<Row>>,
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
    /// present, and `src == dst`, cost a lookup and take no lock; a pair
    /// whose row an earlier plan of `topo` with this plan's key filled
    /// costs a lookup under the memo's lock, and one whose pool an
    /// earlier plan read costs no search of its pool.
    pub fn ensure(
        &mut self,
        topo: &Topology,
        pairs: impl IntoIterator<Item = (RegionId, RegionId)>,
    ) {
        let mut shelved = None;
        for (src, dst) in pairs {
            if src == dst || self.rows.contains_key(&(src, dst)) {
                continue;
            }
            let shelved = shelved.get_or_insert_with(|| topo.memo.shelve(self));
            let row = shelved.row(topo, self, (src, dst));
            self.rows.insert((src, dst), row);
        }
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
        let row = self.rows.get(&(src, dst));
        let set = row.and_then(|row| row.set_of.get(unique).copied());
        debug_assert!(set.is_some(), "{src}->{dst} was not ensured");
        match row {
            Some(row) => stored(&row.sets, &row.paths, &row.links, set.unwrap_or(0)),
            None => stored(&[(0, 0)], &[], &[], 0),
        }
    }

    /// Place `background` under every unique failure set of the plan,
    /// after ensuring its pairs: what it leaves on each link the set
    /// does not kill. An empty background leaves every surviving link
    /// at full capacity. Placement never reads what is swept over it,
    /// so one serves every sweep that shares the background.
    pub fn place(&mut self, topo: &Topology, background: &[Demand]) -> Placement {
        self.ensure(topo, background.iter().map(Demand::pair));
        Placement(
            (0..self.unique_len())
                .map(|u| self.route(topo, u, background).residual)
                .collect(),
        )
    }

    /// Whether `link` is dead under unique failure set `unique`.
    pub(crate) fn is_dead(&self, unique: usize, link: LinkId) -> bool {
        self.dead.get(unique).is_some_and(|m| m.contains(link))
    }

    /// Path sets the plan's rows store: per pair its base set, plus one
    /// per failure set whose paths differ from the base and are not
    /// empty.
    pub fn path_sets(&self) -> usize {
        self.rows.values().map(|row| row.sets.len() - 1).sum()
    }

    /// Bytes held by the plan's own tables (capacity, not length) and
    /// by every row it references. Rows live in the topology's memo and
    /// are shared with every plan of the same key, so the rows of two
    /// such plans are counted by each.
    pub fn heap_bytes(&self) -> usize {
        self.assignment.capacity() * size_of::<u32>()
            + self.representatives.capacity() * size_of::<usize>()
            + self.dead.iter().map(LinkMask::heap_bytes).sum::<usize>()
            + self
                .rows
                .values()
                .map(|row| size_of::<((RegionId, RegionId), Arc<Row>)>() + row.heap_bytes())
                .sum::<usize>()
    }
}

/// A background placed under every unique failure set of one plan, by
/// [`RoutePlan::place`]: per set, the capacity left on each surviving
/// link. Clones share the residuals.
#[derive(Clone, Debug)]
pub struct Placement(Arc<[BTreeMap<LinkId, Rate>]>);

impl Placement {
    /// Unique failure sets placed under: the plan's
    /// [`RoutePlan::unique_len`].
    pub fn unique_len(&self) -> usize {
        self.0.len()
    }

    /// What the background leaves on each link alive under unique
    /// failure set `unique`.
    pub fn residual(&self, unique: usize) -> &BTreeMap<LinkId, Rate> {
        &self.0[unique]
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
            let _held = topo.memo.0.lock();
            panic!("a holder dies with the memo locked");
        }));
        assert!(died.is_err() && topo.memo.0.is_poisoned());

        let scenarios = ScenarioSet::enumerate(&topo, 1);
        let mut plan = RoutePlan::build(&topo, &scenarios, 4);
        plan.ensure(&topo, [(ids[0], ids[1])]);
        assert_eq!((topo.pooled_pairs(), topo.memo.0.is_poisoned()), (1, true));
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
