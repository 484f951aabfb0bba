use entitlement_core::{DetRng, Rate, RegionId};
use entitlement_topology::{k_shortest_paths, max_flow, LinkId, RoutePlan, ScenarioSet, Topology};
use proptest::prelude::*;

fn all_paths(
    topo: &Topology,
    cur: RegionId,
    dst: RegionId,
    visited: &mut Vec<RegionId>,
    links: &mut Vec<entitlement_topology::LinkId>,
    out: &mut Vec<(f64, Vec<entitlement_topology::LinkId>)>,
) {
    if cur == dst {
        let len: f64 = links
            .iter()
            .map(|l| topo.link(*l).unwrap().length_km)
            .sum();
        out.push((len, links.clone()));
        return;
    }
    for &lid in topo.outgoing(cur) {
        let l = topo.link(lid).unwrap();
        if visited.contains(&l.dst) {
            continue;
        }
        visited.push(l.dst);
        links.push(lid);
        all_paths(topo, l.dst, dst, visited, links, out);
        links.pop();
        visited.pop();
    }
}

#[test]
fn yen_matches_bruteforce() {
    for seed in 0..30u64 {
        let mut rng = DetRng::new(seed);
        let mut t = Topology::new();
        let n = 6;
        let ids: Vec<RegionId> = (0..n)
            .map(|i| t.add_region(format!("r{i}"), true, 1.0))
            .collect();
        // random directed links
        for a in 0..n {
            for b in 0..n {
                if a != b && rng.chance(0.45) {
                    t.add_link(ids[a], ids[b], Rate::gbps(10.0), 0.99, rng.range(50.0, 900.0))
                        .unwrap();
                }
            }
        }
        let (s, d) = (ids[0], ids[n - 1]);
        let mut brute = Vec::new();
        let mut visited = vec![s];
        all_paths(&t, s, d, &mut visited, &mut Vec::new(), &mut brute);
        brute.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then_with(|| a.1.cmp(&b.1))
        });
        let k = 6.min(brute.len());
        match k_shortest_paths(&t, s, d, 6, &[]) {
            Ok(paths) => {
                assert!(!brute.is_empty(), "seed {seed}: yen found paths, brute none");
                assert_eq!(
                    paths.len(),
                    6.min(brute.len()),
                    "seed {seed}: path count mismatch: yen {} brute {}",
                    paths.len(),
                    brute.len()
                );
                for (i, p) in paths.iter().take(k).enumerate() {
                    assert!(
                        (p.length_km - brute[i].0).abs() < 1e-6,
                        "seed {seed}: path {i} length {} vs brute {}",
                        p.length_km,
                        brute[i].0
                    );
                }
            }
            Err(_) => assert!(brute.is_empty(), "seed {seed}: brute found a path, yen errored"),
        }
    }
}

/// A graph of `n` regions built to embarrass a k-shortest-paths
/// search. Each unordered region pair carries a fiber with probability
/// `density` (both directions, or one in five times a single one);
/// `family` picks the lengths: 0 random, 1 all equal, 2 a lattice of
/// multiples of 100 km, 3 that lattice nudged by multiples of 2^-32 km,
/// so distinct routes differ by far less than 1e-9 of their length yet
/// every sum stays exact.
fn oracle_graph(seed: u64, n: usize, density: f64, family: usize) -> Topology {
    let mut rng = DetRng::new(seed);
    let mut t = Topology::new();
    let ids: Vec<RegionId> = (0..n)
        .map(|i| t.add_region(format!("r{i}"), true, 1.0))
        .collect();
    let length = |rng: &mut DetRng| match family {
        0 => rng.range(50.0, 900.0),
        1 => 100.0,
        2 => 100.0 * (1 + rng.usize(4)) as f64,
        _ => 100.0 * (1 + rng.usize(3)) as f64 + rng.usize(4) as f64 * 2f64.powi(-32),
    };
    for a in 0..n {
        for b in a + 1..n {
            if !rng.chance(density) {
                continue;
            }
            let (forward, back) = match rng.usize(5) {
                0 => (true, false),
                1 => (false, true),
                _ => (true, true),
            };
            for (from, to, up) in [(a, b, forward), (b, a, back)] {
                if up {
                    let l = length(&mut rng);
                    t.add_link(ids[from], ids[to], Rate::gbps(10.0), 0.99, l)
                        .unwrap();
                }
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The route plan against an oracle that shares no code with Yen:
    /// every simple path, enumerated depth-first and sorted by
    /// (`length_km`, links), under every failure set of single and dual
    /// cuts. On every input the served lengths are the oracle's first k,
    /// bit for bit, and every served path is simple, alive and distinct;
    /// where the oracle's first k + 1 lengths are more than 1e-9 apart
    /// the served links are the oracle's too.
    #[test]
    fn the_plan_serves_the_oracles_k_shortest_paths(
        (seed, n, density) in (0u64..1_000_000, 3usize..9, 0.2f64..0.6),
        family in 0usize..4,
        k in 1usize..7,
    ) {
        let topo = oracle_graph(seed, n, density, family);
        let ids = topo.region_ids();
        for max_cuts in [1, 2] {
            let scenarios = ScenarioSet::enumerate(&topo, max_cuts);
            let mut plan = RoutePlan::build(&topo, &scenarios, k);
            for &s in &ids {
                for &d in ids.iter().filter(|&&d| d != s) {
                    plan.ensure(&topo, [(s, d)]);
                    let mut every = Vec::new();
                    all_paths(&topo, s, d, &mut vec![s], &mut Vec::new(), &mut every);
                    every.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                    for u in 0..plan.unique_len() {
                        let dead = &scenarios.scenarios[plan.representatives()[u]].dead_links;
                        let oracle: Vec<&(f64, Vec<LinkId>)> = every
                            .iter()
                            .filter(|(_, links)| links.iter().all(|l| !dead.contains(l)))
                            .take(k + 1)
                            .collect();
                        let served: Vec<_> = plan.paths(s, d, u).collect();
                        let what = format!("{s}->{d} under {dead:?}, k = {k}");
                        prop_assert_eq!(served.len(), k.min(oracle.len()), "{}", what);
                        for (i, p) in served.iter().enumerate() {
                            prop_assert_eq!(p.length_km.to_bits(), oracle[i].0.to_bits(), "{} #{}", what, i);
                            prop_assert!(p.links.iter().all(|l| !dead.contains(l)), "{} #{} dead", what, i);
                            prop_assert!(served[..i].iter().all(|q| q.links != p.links), "{} #{} repeats", what, i);
                            let mut regions = vec![s];
                            for l in p.links {
                                let link = topo.link(*l).unwrap();
                                prop_assert_eq!(link.src, *regions.last().unwrap(), "{} #{} breaks", what, i);
                                regions.push(link.dst);
                            }
                            prop_assert_eq!(*regions.last().unwrap(), d, "{} #{} ends", what, i);
                            let mut distinct = regions.clone();
                            distinct.sort_unstable();
                            distinct.dedup();
                            prop_assert_eq!(distinct.len(), regions.len(), "{} #{} loops", what, i);
                        }
                        let tie_free = oracle
                            .windows(2)
                            .all(|w| w[1].0 > w[0].0 * (1.0 + 1e-9));
                        if tie_free {
                            for (p, o) in served.iter().zip(&oracle) {
                                prop_assert_eq!(p.links, o.1.as_slice(), "{}", what);
                            }
                        }
                    }
                }
            }
        }
    }
}

// Brute-force max flow via LP-free check: compare Dinic against path-based
// Ford-Fulkerson with BFS (Edmonds-Karp) implemented independently.
#[test]
fn dinic_matches_edmonds_karp() {
    for seed in 100..130u64 {
        let mut rng = DetRng::new(seed);
        let n = 7usize;
        let mut cap = vec![vec![0.0f64; n]; n];
        let mut t = Topology::new();
        let ids: Vec<RegionId> = (0..n)
            .map(|i| t.add_region(format!("r{i}"), true, 1.0))
            .collect();
        for a in 0..n {
            for b in 0..n {
                if a != b && rng.chance(0.4) {
                    let c = rng.range(1.0, 20.0);
                    cap[a][b] += c;
                    t.add_link(ids[a], ids[b], Rate::bps(c), 0.99, 100.0).unwrap();
                }
            }
        }
        // Edmonds-Karp
        let mut res = cap.clone();
        let mut flow = 0.0;
        loop {
            let mut prev = vec![usize::MAX; n];
            prev[0] = 0;
            let mut q = std::collections::VecDeque::from([0usize]);
            while let Some(v) = q.pop_front() {
                for w in 0..n {
                    if prev[w] == usize::MAX && res[v][w] > 1e-9 {
                        prev[w] = v;
                        q.push_back(w);
                    }
                }
            }
            if prev[n - 1] == usize::MAX {
                break;
            }
            let mut bott = f64::INFINITY;
            let mut v = n - 1;
            while v != 0 {
                bott = bott.min(res[prev[v]][v]);
                v = prev[v];
            }
            let mut v = n - 1;
            while v != 0 {
                res[prev[v]][v] -= bott;
                res[v][prev[v]] += bott;
                v = prev[v];
            }
            flow += bott;
        }
        let dinic = max_flow(&t, ids[0], ids[n - 1], &[]).as_bps();
        assert!(
            (dinic - flow).abs() < 1e-6,
            "seed {seed}: dinic {dinic} vs ek {flow}"
        );
    }
}
