//! Per-topology cache of pure channel frequency responses.
//!
//! A [`ChannelCache`] serves one [`FreqResponseTable`] per **installed**
//! directed node pair of a built [`Topology`], keyed by the node's
//! *position* in the topology's node list (the same index the protocol
//! simulator's scenarios use). Storage is sparse — an index over the
//! medium's real link set — so city-scale worlds that materialize only
//! links above their power floor pay for the links they have, not the
//! `n²` table a dense `Vec` would allocate. Only the **pure true
//! channels** are cached — they are deterministic functions of the
//! drawn taps — while believed channels (hardware error) keep drawing
//! from the caller's RNG on every lookup.
//!
//! Tables are filled **lazily, one transmitter row at a time**:
//! [`ChannelCache::build`] only indexes the links, and the first lookup
//! of any link `from → *` evaluates every out-link of `from` at once
//! (a per-node [`OnceLock`]). Every true-channel read of a round starts
//! at an active transmitter, so a row fills on that node's first
//! activity and rows of nodes that never transmit are never built — in
//! city worlds that is almost all of them. A table is a pure function
//! of its link, so *when* it is filled cannot change a bit.
//!
//! Lookups are fallible by design: [`ChannelCache::matrix`] returns
//! `None` for an absent link instead of panicking (and fills nothing),
//! and the engine treats that as "below the floor" (nothing sensed,
//! nothing delivered).

use crate::topology::Topology;
use nplus_channel::freq_table::FreqResponseTable;
use nplus_channel::mimo::MimoLink;
use nplus_linalg::CMatrixSoA;
use std::collections::HashMap;
use std::sync::OnceLock;

/// One node's out-links, `(to, table)` sorted by `to`.
type Row = Vec<(usize, FreqResponseTable)>;

/// Per-subcarrier channel matrices for every installed directed link of
/// a topology, evaluated on first use.
#[derive(Debug, Clone)]
pub struct ChannelCache<'a> {
    /// Every link key `(from, to)` (node positions) in ascending order,
    /// with the medium link its table is evaluated from. A key installed
    /// by [`ChannelCache::set_table`] has no link: its row was filled
    /// before the install, so it is never evaluated. Absent key = link
    /// below the environment's floor (or the diagonal).
    links: Vec<((usize, usize), Option<&'a MimoLink>)>,
    /// One lazily filled out-row per node position.
    rows: Vec<OnceLock<Row>>,
    /// The FFT bins every table covers, in request order.
    bins: Vec<usize>,
    /// FFT grid size the bins index into.
    n_fft: usize,
}

impl<'a> ChannelCache<'a> {
    /// Indexes every installed directed link of `topo` for evaluation on
    /// the given FFT `bins` of an `n_fft` grid. No table is evaluated
    /// here; see the module docs. Visits the medium's sparse link set
    /// directly — cost scales with links installed, not nodes squared.
    pub fn build(topo: &'a Topology, bins: &[usize], n_fft: usize) -> Self {
        let index: HashMap<_, _> = topo
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let mut links = Vec::with_capacity(topo.medium.n_links());
        for ((from, to), link) in topo.medium.links() {
            let (Some(&fi), Some(&ti)) = (index.get(&from), index.get(&to)) else {
                continue; // link between nodes outside this topology's list
            };
            links.push(((fi, ti), Some(link)));
        }
        // The medium iterates in NodeId order; positions may permute
        // that, so sort once here (O(E log E) at build, free afterward).
        links.sort_unstable_by_key(|&(key, _)| key);
        ChannelCache {
            links,
            rows: (0..topo.nodes.len()).map(|_| OnceLock::new()).collect(),
            bins: bins.to_vec(),
            n_fft,
        }
    }

    /// Evaluates the out-row of `from`: one table per indexed link
    /// `from → *`, in ascending `to` order.
    fn fill(&self, from: usize) -> Row {
        let start = self.links.partition_point(|&(key, _)| key < (from, 0));
        self.links[start..]
            .iter()
            .take_while(|&&((f, _), _)| f == from)
            .filter_map(|&((_, to), link)| {
                Some((to, FreqResponseTable::new(link?, &self.bins, self.n_fft)))
            })
            .collect()
    }

    /// The table of the directed link `from → to` (node positions in the
    /// topology's node list), if that link is modeled. The first lookup
    /// of a modeled link fills the whole out-row of `from`; an absent
    /// link fills nothing.
    pub fn table(&self, from: usize, to: usize) -> Option<&FreqResponseTable> {
        let cell = self.rows.get(from)?;
        let row = match cell.get() {
            Some(row) => row,
            None => {
                self.links
                    .binary_search_by_key(&(from, to), |&(key, _)| key)
                    .ok()?;
                cell.get_or_init(|| self.fill(from))
            }
        };
        let at = row.binary_search_by_key(&to, |&(t, _)| t).ok()?;
        Some(&row[at].1)
    }

    /// The channel matrix of link `from → to` at bin position `pos`
    /// (index into the `bins` slice the cache was built with).
    ///
    /// `None` when the link is not modeled — in sparse worlds that
    /// means "below the environment's power floor", and consumers skip
    /// the link instead of panicking. Matrices are served in split
    /// (structure-of-arrays) storage, ready for the engine's kernels.
    pub fn matrix(&self, from: usize, to: usize, pos: usize) -> Option<&CMatrixSoA> {
        self.table(from, to).map(|t| t.matrix(pos))
    }

    /// Number of modeled directed links (both directions counted),
    /// filled or not — the sparsity observable city-scale tests assert
    /// on.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Iterates the modeled directed link keys `(from, to)` in ascending
    /// order. Mobility uses this to find the links incident to a moved
    /// node without scanning `n²` pairs; the sorted key list makes the
    /// walk deterministic by construction.
    pub fn links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.links.iter().map(|&(key, _)| key)
    }

    /// Replaces (or installs) the table of the directed link
    /// `from → to`; `from` must be a node position of the topology.
    /// Mobility rescales moved links through this. The row of `from` is
    /// filled first, so a later lookup can never re-evaluate over the
    /// replacement; a genuinely new key binary-search-inserts into the
    /// sorted key list, so [`ChannelCache::links`] order survives
    /// installs.
    pub fn set_table(&mut self, from: usize, to: usize, table: FreqResponseTable) {
        let mut row = match self.rows[from].take() {
            Some(row) => row,
            None => self.fill(from),
        };
        match row.binary_search_by_key(&to, |&(t, _)| t) {
            Ok(at) => row[at].1 = table,
            Err(at) => {
                row.insert(at, (to, table));
                let at = self.links.partition_point(|&(key, _)| key < (from, to));
                self.links.insert(at, ((from, to), None));
            }
        }
        self.rows[from] = OnceLock::from(row);
    }
}

// One channel cache is read by every protocol run of a sweep job; the
// parallel engine requires it to be shareable across scoped threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ChannelCache<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{build_environment_topology, build_topology, TopologyConfig};
    use nplus_channel::environment::{ChannelEnvironment, MULTI_CELL};
    use nplus_channel::placement::Testbed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 32-node multi-cell world: floored, so rows differ in length
    /// and some links are absent.
    fn city() -> Topology {
        let n = 32; // 4 multi-cell cells
        let antennas: Vec<usize> = (0..n).map(|i| if i % 8 == 0 { 2 } else { 1 }).collect();
        let tb = MULTI_CELL.testbed(n).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        build_environment_topology(&MULTI_CELL, &tb, &antennas, 10e6, 3, &mut rng).unwrap()
    }

    /// Positions of the rows that have been filled.
    fn filled_rows(cache: &ChannelCache<'_>) -> Vec<usize> {
        (0..cache.rows.len())
            .filter(|&f| cache.rows[f].get().is_some())
            .collect()
    }

    /// Shape and entry bits of every matrix of `t`, in bin order.
    fn bits(t: &FreqResponseTable) -> Vec<u64> {
        let mut out = Vec::new();
        for m in t.matrices() {
            let (rows, cols) = m.shape();
            out.extend([rows as u64, cols as u64]);
            for r in 0..rows {
                for c in 0..cols {
                    let z = m.get(r, c);
                    out.extend([z.re.to_bits(), z.im.to_bits()]);
                }
            }
        }
        out
    }

    /// The table `FreqResponseTable::new` evaluates for `from → to`.
    fn direct(topo: &Topology, from: usize, to: usize, bins: &[usize]) -> FreqResponseTable {
        let link = topo.medium.link(topo.nodes[from], topo.nodes[to]).unwrap();
        FreqResponseTable::new(link, bins, 64)
    }

    fn built() -> Topology {
        let tb = Testbed::sigcomm11();
        let mut rng = StdRng::seed_from_u64(5);
        build_topology(&tb, &TopologyConfig::new(vec![1, 2, 3]), 10e6, 5, &mut rng)
    }

    #[test]
    fn matches_direct_channel_matrix() {
        let topo = built();
        let bins: Vec<usize> = (1..60).step_by(7).collect();
        let cache = ChannelCache::build(&topo, &bins, 64);
        for from in 0..3 {
            for to in 0..3 {
                if from == to {
                    assert!(cache.table(from, to).is_none());
                    assert!(cache.matrix(from, to, 0).is_none());
                    continue;
                }
                let link = topo.medium.link(topo.nodes[from], topo.nodes[to]).unwrap();
                for (pos, &k) in bins.iter().enumerate() {
                    let direct = link.channel_matrix(k, 64);
                    assert!(
                        cache
                            .matrix(from, to, pos)
                            .expect("dense world: every off-diagonal link cached")
                            .to_aos()
                            .approx_eq(&direct, 0.0),
                        "link {from}->{to} bin {k}"
                    );
                }
            }
        }
        // Dense world: all n(n-1) directed links cached.
        assert_eq!(cache.n_links(), 6);
    }

    #[test]
    fn table_shapes_follow_antenna_counts() {
        let topo = built();
        let bins = vec![0usize, 10];
        let cache = ChannelCache::build(&topo, &bins, 64);
        // 1-antenna node 0 transmitting to 3-antenna node 2: 3×1.
        assert_eq!(cache.matrix(0, 2, 0).unwrap().shape(), (3, 1));
        assert_eq!(cache.matrix(2, 0, 0).unwrap().shape(), (1, 3));
    }

    /// `links()` iterates in ascending key order, and installing a new
    /// table through `set_table` keeps that order — the walk mobility
    /// does every epoch is deterministic by construction (DET003).
    #[test]
    fn link_keys_iterate_sorted_and_survive_installs() {
        let topo = built();
        let bins = vec![0usize, 10];
        let mut cache = ChannelCache::build(&topo, &bins, 64);
        let keys: Vec<_> = cache.links().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "build must leave keys sorted");
        assert_eq!(keys.len(), 6);
        // Replacing an existing table must not duplicate its key;
        // installing a brand-new one must land in sorted position.
        let table = cache.table(0, 1).unwrap().clone();
        cache.set_table(2, 1, table.clone());
        assert_eq!(cache.links().count(), 6);
        cache.set_table(0, 0, table);
        let keys: Vec<_> = cache.links().collect();
        assert_eq!(keys.first(), Some(&(0, 0)));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "set_table must keep keys sorted");
    }

    #[test]
    fn build_fills_no_row() {
        let topo = city();
        let cache = ChannelCache::build(&topo, &[0, 7, 21], 64);
        assert!(cache.n_links() > 0);
        assert_eq!(cache.rows.len(), topo.nodes.len());
        assert!(filled_rows(&cache).is_empty());
    }

    /// One lookup fills exactly its transmitter's row, and every table
    /// in that row is bitwise the table `FreqResponseTable::new`
    /// evaluates for the link.
    #[test]
    fn first_lookup_fills_exactly_its_row_bitwise() {
        let topo = city();
        let bins = [0usize, 7, 21];
        let cache = ChannelCache::build(&topo, &bins, 64);
        // The node with the most out-links, and one of its peers.
        let from = (0..topo.nodes.len())
            .max_by_key(|&f| cache.links().filter(|&(g, _)| g == f).count())
            .unwrap();
        let outs: Vec<usize> = cache
            .links()
            .filter(|&(f, _)| f == from)
            .map(|(_, t)| t)
            .collect();
        assert!(outs.len() > 1, "row {from} has {} links", outs.len());
        assert!(cache.matrix(from, outs[0], 1).is_some());
        assert_eq!(filled_rows(&cache), vec![from]);
        let row = cache.rows[from].get().unwrap();
        assert_eq!(row.iter().map(|&(t, _)| t).collect::<Vec<_>>(), outs);
        for (to, table) in row {
            assert_eq!(
                bits(table),
                bits(&direct(&topo, from, *to, &bins)),
                "link {from}->{to}"
            );
        }
    }

    #[test]
    fn absent_link_answers_none_and_fills_nothing() {
        let topo = city();
        let cache = ChannelCache::build(&topo, &[0, 7, 21], 64);
        let n = topo.nodes.len();
        let (from, to) = (0..n)
            .flat_map(|f| (0..n).map(move |t| (f, t)))
            .find(|&(f, t)| {
                f != t
                    && topo.medium.link(topo.nodes[f], topo.nodes[t]).is_none()
                    && cache.links().any(|(g, _)| g == f)
            })
            .expect("city world unexpectedly dense");
        assert!(cache.table(from, to).is_none());
        assert!(cache.matrix(from, to, 0).is_none());
        assert!(cache.table(from, from).is_none());
        assert!(cache.table(n, 0).is_none(), "out-of-range node");
        assert!(filled_rows(&cache).is_empty());
    }

    /// Two threads racing on first lookups see the same tables: each
    /// row is filled once (both threads get the same table instance),
    /// and its bits equal a direct evaluation.
    #[test]
    fn racing_first_lookups_fill_each_row_once() {
        let topo = city();
        let bins = [0usize, 7, 21];
        let cache = ChannelCache::build(&topo, &bins, 64);
        let keys: Vec<(usize, usize)> = cache.links().collect();
        let walk = |reverse: bool| {
            let mut order = keys.clone();
            if reverse {
                order.reverse();
            }
            let mut seen: Vec<_> = order
                .into_iter()
                .map(|(f, t)| ((f, t), cache.table(f, t).unwrap() as *const _ as usize))
                .collect();
            seen.sort_unstable();
            seen
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| walk(false));
            let b = s.spawn(|| walk(true));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b, "both threads must read the one filled table");
        for (f, t) in keys {
            assert_eq!(
                bits(cache.table(f, t).unwrap()),
                bits(&direct(&topo, f, t, &bins))
            );
        }
    }

    /// `set_table` on a row no lookup has filled yet keeps the
    /// replacement: a later lookup never re-evaluates over it.
    #[test]
    fn set_table_on_an_unfilled_row_survives_lookups() {
        let topo = city();
        let bins = [0usize, 7];
        let mut cache = ChannelCache::build(&topo, &bins, 64);
        let (f, t) = cache.links().next().unwrap();
        let scaled = direct(&topo, f, t, &bins).scaled(0.5);
        cache.set_table(f, t, scaled.clone());
        assert_eq!(bits(cache.table(f, t).unwrap()), bits(&scaled));
        assert_eq!(filled_rows(&cache), vec![f]);
    }

    /// In a floored world the cache stores only what the medium
    /// installed, and absent links answer `None` instead of panicking.
    #[test]
    fn sparse_world_caches_only_installed_links() {
        let n = 32; // 4 multi-cell cells
        let antennas: Vec<usize> = (0..n).map(|i| if i % 8 == 0 { 2 } else { 1 }).collect();
        let tb = MULTI_CELL.testbed(n).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let topo =
            build_environment_topology(&MULTI_CELL, &tb, &antennas, 10e6, 3, &mut rng).unwrap();
        let cache = ChannelCache::build(&topo, &[0, 7, 21], 64);
        assert_eq!(cache.n_links(), topo.medium.n_links());
        assert!(
            cache.n_links() < n * (n - 1) / 2,
            "cache not sparse: {} links",
            cache.n_links()
        );
        // A pair across the map is below the floor almost surely; find
        // one absent link and check the typed miss.
        let mut saw_miss = false;
        for i in 0..n {
            for j in 0..n {
                if i != j && cache.table(i, j).is_none() {
                    assert!(cache.matrix(i, j, 0).is_none());
                    saw_miss = true;
                }
            }
        }
        assert!(saw_miss, "city world unexpectedly dense");
    }
}
