//! **Theorem 4**: the Õ(n^{1/3}) a-posteriori ball scheme.
//!
//! Every node `u` draws a scale `k` uniformly in `{1, …, ⌈log₂ n⌉}` and
//! then its long-range contact uniformly in the ball `B(u, 2^k)`. In
//! closed form, with `r(v) = min{ k : v ∈ B(u, 2^k) }`:
//!
//! ```text
//! φ_u(v) = (1/⌈log n⌉) · Σ_{k = max(r(v),1)}^{⌈log n⌉}  1 / |B(u, 2^k)|
//! ```
//!
//! This is the paper's scheme that overcomes the √n barrier: greedy
//! routing in `(G, φ)` takes `Õ(n^{1/3})` expected steps on **every**
//! n-node graph (five-phase analysis: enter the set `B` of the `n^{2/3}`
//! closest nodes to the target, leave its boundary, grow the ball scale,
//! shrink it onto the target, walk the rest).

use crate::realization::Realization;
use crate::sampler::{ContactSampler, SamplerStats};
use crate::scheme::{AugmentationScheme, ExplicitScheme};
use crate::workspace::with_bfs;
use nav_graph::ball::rank_of_distance;
use nav_graph::msbfs::{LaneWidth, MsBfsW, MsBfsWorkspace};
use nav_graph::{Graph, NodeId, INFINITY};
use nav_par::rng::task_rng;
use rand::{Rng, RngCore};
use std::collections::{HashMap, HashSet};

/// The Theorem-4 ball scheme, bound to a graph size (`K = ⌈log₂ n⌉`).
#[derive(Clone, Copy, Debug)]
pub struct BallScheme {
    /// Number of scales `K`.
    k_max: u32,
}

impl BallScheme {
    /// Creates the scheme for graph `g` (`K = ⌈log₂ n⌉`, min 1).
    pub fn new(g: &Graph) -> Self {
        BallScheme {
            k_max: ceil_log2(g.num_nodes()).max(1),
        }
    }

    /// The number of scales `K`.
    pub fn scales(&self) -> u32 {
        self.k_max
    }

    /// The ball radius of scale `k` (`2^k`, saturating).
    fn radius(k: u32) -> u32 {
        if k >= 31 {
            u32::MAX
        } else {
            1u32 << k
        }
    }

    /// Realizes one long-range draw for **every** node, batched: centres
    /// are packed [`LANES`](nav_graph::msbfs::LANES) (= 64) per
    /// bit-parallel MS-BFS pass and the
    /// passes fanned out to `threads` `nav-par` workers — replacing the
    /// one scalar truncated BFS per node that [`Realization::sample`]
    /// would issue through [`AugmentationScheme::sample_contact`].
    ///
    /// Node `u`'s draw is a pure function of `(seed, u)` (via
    /// [`task_rng`]), so the result is identical for every thread count
    /// and batch split. Each draw has exactly the scheme's distribution —
    /// a uniform scale `k`, then a uniform element of `B(u, 2^k)` selected
    /// by index against the batch's distance rows — but the realization is
    /// *not* stream-compatible with the sequential single-RNG
    /// [`Realization::sample`], which consumes one shared stream in node
    /// order.
    pub fn realize_batched(&self, g: &Graph, seed: u64, threads: usize) -> Realization {
        self.realize_batched_w(g, seed, threads, LaneWidth::W64)
    }

    /// [`realize_batched`] at an explicit MS-BFS word-block width:
    /// `width.lanes()` centres per pass instead of 64. Draws select ball
    /// members **by index** against exact distance rows with a per-node
    /// RNG, so the realization is bit-identical at every width (and to
    /// [`realize_batched`]) — the width only changes how many rows one
    /// pass amortises.
    ///
    /// [`realize_batched`]: BallScheme::realize_batched
    pub fn realize_batched_w(
        &self,
        g: &Graph,
        seed: u64,
        threads: usize,
        width: LaneWidth,
    ) -> Realization {
        match width {
            LaneWidth::W64 => self.realize_impl::<1>(g, seed, threads),
            LaneWidth::W128 => self.realize_impl::<2>(g, seed, threads),
            LaneWidth::W256 => self.realize_impl::<4>(g, seed, threads),
        }
    }

    fn realize_impl<const W: usize>(&self, g: &Graph, seed: u64, threads: usize) -> Realization
    where
        MsBfsW<W>: MsBfsWorkspace,
    {
        let n = g.num_nodes();
        let lanes = MsBfsW::<W>::LANES;
        let batches: Vec<Vec<NodeId>> = (0..n.div_ceil(lanes))
            .map(|c| {
                let lo = c * lanes;
                let hi = (lo + lanes).min(n);
                (lo as NodeId..hi as NodeId).collect()
            })
            .collect();
        let per_batch: Vec<Vec<Option<NodeId>>> =
            nav_par::parallel_map(batches.len(), threads, |b| {
                let centres = &batches[b];
                MsBfsW::<W>::with_ws(n, |ms| {
                    let rows = ms.distances(g, centres);
                    centres
                        .iter()
                        .enumerate()
                        .map(|(lane, &u)| {
                            let row = &rows[lane * n..(lane + 1) * n];
                            let mut rng = task_rng(seed, u as u64);
                            let k = rng.gen_range(1..=self.k_max);
                            let radius = Self::radius(k);
                            // Uniform over B(u, 2^k) by index: count the
                            // members (u itself is always one, d = 0),
                            // draw a rank, take the rank-th member in
                            // ascending node-id order.
                            let in_ball = |d: u32| d != INFINITY && d <= radius;
                            let count = row.iter().filter(|&&d| in_ball(d)).count() as u64;
                            let pick = rng.gen_range(0..count);
                            let chosen = row
                                .iter()
                                .enumerate()
                                .filter(|&(_, &d)| in_ball(d))
                                .nth(pick as usize)
                                .map(|(v, _)| v as NodeId)
                                .expect("ball contains at least the centre");
                            Some(chosen)
                        })
                        .collect()
                })
            });
        Realization::from_contacts(per_batch.into_iter().flatten().collect())
    }
}

/// `⌈log₂ n⌉` (0 for n = 1).
fn ceil_log2(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

impl AugmentationScheme for BallScheme {
    fn name(&self) -> String {
        "ball(thm4)".into()
    }

    fn batched_sampler(&self, g: &Graph, byte_cap: usize) -> Option<Box<dyn ContactSampler + '_>> {
        let _ = g;
        Some(Box::new(BallRowSampler::new(*self, byte_cap)))
    }

    fn batched_sampler_w(
        &self,
        g: &Graph,
        byte_cap: usize,
        width: LaneWidth,
    ) -> Option<Box<dyn ContactSampler + '_>> {
        let _ = g;
        Some(Box::new(BallRowSampler::with_width(*self, byte_cap, width)))
    }

    fn sample_contact(&self, g: &Graph, u: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        let k = rng.gen_range(1..=self.k_max);
        let radius = Self::radius(k);
        // Uniform element of B(u, 2^k) via reservoir sampling over a
        // truncated BFS — O(|B|) time, no ball materialisation. Stops as
        // soon as the whole graph is covered (dense cores at large radii).
        let n = g.num_nodes() as u64;
        with_bfs(g.num_nodes(), |bfs| {
            let mut chosen = u;
            let mut seen = 0u64;
            bfs.run(g, u, radius, |v, _| {
                seen += 1;
                // Reservoir: keep v with probability 1/seen.
                if rng.gen_range(0..seen) == 0 {
                    chosen = v;
                }
                seen < n
            });
            Some(chosen)
        })
    }
}

impl ExplicitScheme for BallScheme {
    fn contact_distribution(&self, g: &Graph, u: NodeId) -> Vec<(NodeId, f64)> {
        // One BFS collects distances; dyadic prefix sums give |B(u, 2^k)|.
        let n = g.num_nodes();
        let kk = self.k_max as usize;
        let mut dist_of: Vec<(NodeId, u32)> = Vec::new();
        with_bfs(n, |bfs| {
            let radius = if self.k_max >= 31 {
                u32::MAX
            } else {
                1u32 << self.k_max
            };
            bfs.run(g, u, radius, |v, d| {
                dist_of.push((v, d));
                true
            });
        });
        // |B(u, 2^k)| for k = 1..=K.
        let mut ball_sizes = vec![0usize; kk + 1];
        for &(_, d) in &dist_of {
            let r = rank_of_distance(d).max(1) as usize;
            if r <= kk {
                ball_sizes[r] += 1;
            }
        }
        for k in 1..=kk {
            ball_sizes[k] += if k > 1 { ball_sizes[k - 1] } else { 0 };
        }
        // suffix[r] = Σ_{k=r}^{K} 1/|B_k|.
        let mut suffix = vec![0.0f64; kk + 2];
        for k in (1..=kk).rev() {
            suffix[k] = suffix[k + 1]
                + if ball_sizes[k] > 0 {
                    1.0 / ball_sizes[k] as f64
                } else {
                    0.0
                };
        }
        let inv_scales = 1.0 / self.k_max as f64;
        dist_of
            .into_iter()
            .filter_map(|(v, d)| {
                let r = (rank_of_distance(d).max(1) as usize).min(kk + 1);
                let p = inv_scales * suffix[r];
                (p > 0.0).then_some((v, p))
            })
            .collect()
    }
}

/// One node's cached ball index: the nodes of the largest ball
/// `B(u, 2^K)` ordered by (dyadic rank, node id), plus the dyadic prefix
/// sizes `|B(u, 2^k)|` — so "a uniform member of `B(u, 2^k)`" is one
/// `gen_range` over a prefix of that order.
///
/// `B(u, 2^k) = { v : rank(v) ≤ k }` and ranks are bucketed in ascending
/// order, so each ball is exactly a prefix of the rank-major order. The
/// order is canonical — a pure function of the graph and the centre — so
/// every draw from a row is too, however the row was computed.
///
/// Each rank bucket is stored as a bitset over node ids (ascending id is
/// bit order), only up to the centre's highest rank, with the set-bit
/// count before every 512-bit block: `⌈n/8⌉` bytes per non-empty rank
/// instead of four per member, and the `i`-th member is a short block
/// search plus an in-word select.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BallRow {
    /// `u64` words per rank bitset (`⌈n/64⌉`).
    words: usize,
    /// Rank bitsets, rank-major: bit `v` of bitset `r − 1` is set ⇔ `v`
    /// has effective rank `r`. Ranks above the highest non-empty one are
    /// not stored.
    bits: Vec<u64>,
    /// Per stored rank, the set bits of its bitset before each block of
    /// [`BLOCK_WORDS`] words.
    marks: Vec<u32>,
    /// `ball_sizes[k] = |B(u, 2^k)|` for `k = 1..=K` (`[0]` = 0).
    ball_sizes: Vec<u32>,
}

/// Words per [`BallRow`] select block (512 node ids).
const BLOCK_WORDS: usize = 8;

impl BallRow {
    /// Builds the index from a full distance row of the centre
    /// (`row[v] = dist(u, v)`, [`INFINITY`] when unreachable).
    pub fn from_distances(scheme: BallScheme, row: &[u32]) -> Self {
        let ranker = Ranker::new(scheme);
        let mut built = BallRow::blank(scheme, row.len());
        for (v, &d) in row.iter().enumerate() {
            built.insert(ranker.rank(d), v as NodeId);
        }
        built.seal();
        built
    }

    /// An empty row over `n` nodes with every rank bitset allocated and
    /// cleared, ready for [`BallRow::insert`] and [`BallRow::seal`]
    /// without further allocation.
    fn blank(scheme: BallScheme, n: usize) -> Self {
        let kk = scheme.k_max as usize;
        let words = n.div_ceil(64);
        BallRow {
            words,
            bits: vec![0; kk * words],
            marks: Vec::with_capacity(kk * words.div_ceil(BLOCK_WORDS)),
            ball_sizes: vec![0; kk + 1],
        }
    }

    /// Records that `v` has effective rank `r` (`0` = outside the
    /// largest ball: ignored).
    #[inline]
    fn insert(&mut self, r: u8, v: NodeId) {
        if r != 0 {
            let v = v as usize;
            self.bits[(r as usize - 1) * self.words + v / 64] |= 1 << (v % 64);
        }
    }

    /// Finishes a row after its inserts: counts each rank, fills the
    /// prefix sizes and block marks, and drops the bitsets above the
    /// highest non-empty rank.
    fn seal(&mut self) {
        let words = self.words.max(1);
        let mut top = 0;
        let mut total = 0u32;
        for (r, bucket) in self.bits.chunks(words).enumerate() {
            let mut in_rank = 0u32;
            for block in bucket.chunks(BLOCK_WORDS) {
                self.marks.push(in_rank);
                in_rank += block.iter().map(|w| w.count_ones()).sum::<u32>();
            }
            total += in_rank;
            self.ball_sizes[r + 1] = total;
            if in_rank > 0 {
                top = r + 1;
            }
        }
        self.bits.truncate(top * self.words);
        self.marks.truncate(top * self.words.div_ceil(BLOCK_WORDS));
    }

    /// `|B(u, 2^k)|` for `k = 1..=K`.
    pub fn ball_size(&self, k: u32) -> usize {
        self.ball_sizes[k as usize] as usize
    }

    /// The members of `B(u, 2^k)` in rank-major, ascending-id order.
    pub fn ball_members(&self, k: u32) -> Vec<NodeId> {
        (0..self.ball_sizes[k as usize])
            .map(|i| self.member(i))
            .collect()
    }

    /// The `i`-th node of the rank-major order.
    fn member(&self, i: u32) -> NodeId {
        // The rank bucket holding position i, then i's place inside it.
        let r = self.ball_sizes[1..].partition_point(|&size| size <= i);
        let mut j = i - self.ball_sizes[r];
        let blocks = self.words.div_ceil(BLOCK_WORDS);
        let marks = &self.marks[r * blocks..(r + 1) * blocks];
        let b = marks.partition_point(|&m| m <= j) - 1;
        j -= marks[b];
        let bucket = &self.bits[r * self.words..(r + 1) * self.words];
        for (w, &word) in bucket.iter().enumerate().skip(b * BLOCK_WORDS) {
            let ones = word.count_ones();
            if j < ones {
                let mut word = word;
                for _ in 0..j {
                    word &= word - 1;
                }
                return (w * 64) as NodeId + word.trailing_zeros();
            }
            j -= ones;
        }
        unreachable!("position {i} lies inside the row")
    }

    /// One scheme draw from the cached index: uniform scale, then a
    /// uniform member of that ball — the same distribution as
    /// [`BallScheme::sample_contact`], in two `gen_range` calls.
    fn sample(&self, scheme: &BallScheme, rng: &mut dyn RngCore) -> Option<NodeId> {
        let k = rng.gen_range(1..=scheme.k_max) as usize;
        let count = self.ball_sizes[k];
        debug_assert!(count >= 1, "a ball always contains its centre");
        let pick = rng.gen_range(0..count as u64);
        Some(self.member(pick as u32))
    }

    /// Payload bytes of the index (bitsets, marks and prefix table).
    pub fn bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>()
            + (self.marks.len() + self.ball_sizes.len()) * std::mem::size_of::<u32>()
    }

    /// Releases the bitset and mark capacity [`BallRow::seal`] cut off.
    fn shrink_to_fit(&mut self) {
        self.bits.shrink_to_fit();
        self.marks.shrink_to_fit();
    }
}

/// A node's effective rank from a centre: the smallest scale in `1..=K`
/// whose ball holds it, `0` when it lies outside even the largest ball.
/// The saturated top radius (`K ≥ 31`) absorbs every reachable node.
#[derive(Clone, Copy)]
struct Ranker {
    kk: usize,
    max_radius: u32,
}

impl Ranker {
    fn new(scheme: BallScheme) -> Self {
        Ranker {
            kk: scheme.k_max as usize,
            max_radius: BallScheme::radius(scheme.k_max),
        }
    }

    #[inline]
    fn rank(self, d: u32) -> u8 {
        if d == INFINITY || d > self.max_radius {
            0
        } else {
            // K ≤ 32, so the rank fits a byte.
            (rank_of_distance(d).max(1) as usize).min(self.kk) as u8
        }
    }
}

/// Builds the canonical [`BallRow`]s of `centres` (at most
/// `MsBfsW::<W>::LANES`) from one MS-BFS pass into `rows`, which the
/// caller allocates ([`BallRow::blank`]): each discovery sets its node's
/// bit in the lane's rank bitset, and a popcount sweep per rank seals the
/// row. Per row that is one bit store per discovery plus `O(n/64)` words
/// per rank — the same work at any lane occupancy, and no allocation.
fn fill_pass<const W: usize>(ranker: Ranker, g: &Graph, centres: &[NodeId], rows: &mut [BallRow])
where
    MsBfsW<W>: MsBfsWorkspace,
{
    MsBfsW::<W>::with_ws(g.num_nodes(), |ms| {
        ms.run(g, centres, |lane, v, d| {
            rows[lane as usize].insert(ranker.rank(d), v);
        });
    });
    for row in rows {
        row.seal();
    }
}

/// Backend (b) of the sampler abstraction: a **ball-row cache** with
/// deferred, batched row computation. The trial engine runs walks in
/// lockstep rounds ([`ContactSampler::wants_lockstep`]) and announces
/// every running walk's current node through [`ContactSampler::prepare`];
/// the sampler packs the *uncached* ones — real misses, no speculative
/// lanes — up to `width.lanes()` per bit-parallel MS-BFS pass, spreads
/// the passes over its fill threads ([`ContactSampler::set_threads`]),
/// and builds canonical [`BallRow`]s. Every draw at a cached node is then
/// two `gen_range` calls and an in-row select. Same per-node distribution
/// as the scalar [`BallScheme::sample_contact`], radically different cost
/// model: `O(ball-BFS)` per *visit* becomes one shared pass per round
/// plus a few word operations per revisit.
///
/// Rows are canonical, so a draw is a pure function of the node and the
/// RNG: neither the width, nor which other centres shared a pass, nor how
/// many rows were resident can change it.
///
/// Memory: rows live for one lockstep round — each `prepare` drops the
/// rows its nodes do not need — and `byte_cap` bounds how many rows one
/// fill holds (at least one). When a round's distinct nodes outgrow that,
/// the round is filled in order, one capped chunk at a time, as its draws
/// reach each chunk.
pub struct BallRowSampler {
    scheme: BallScheme,
    rows: HashMap<NodeId, BallRow>,
    byte_cap: usize,
    bytes: usize,
    width: LaneWidth,
    threads: usize,
    /// The current round's announced nodes, in draw order.
    round: Vec<NodeId>,
    /// Draws made since the round was announced.
    drawn: usize,
    stats: SamplerStats,
}

impl BallRowSampler {
    /// A sampler for `scheme` whose fills hold at most `byte_cap` bytes
    /// of rows (`usize::MAX` = unbounded), 64 rows per pass.
    pub fn new(scheme: BallScheme, byte_cap: usize) -> Self {
        Self::with_width(scheme, byte_cap, LaneWidth::W64)
    }

    /// [`new`], filling up to `width.lanes()` rows per MS-BFS pass. Rows
    /// are canonical, so every draw is bit-identical at every width.
    ///
    /// [`new`]: BallRowSampler::new
    pub fn with_width(scheme: BallScheme, byte_cap: usize, width: LaneWidth) -> Self {
        BallRowSampler {
            scheme,
            rows: HashMap::new(),
            byte_cap,
            bytes: 0,
            width,
            threads: 1,
            round: Vec::new(),
            drawn: 0,
            stats: SamplerStats::default(),
        }
    }

    /// The cached row of `u`, if resident.
    pub fn row(&self, u: NodeId) -> Option<&BallRow> {
        self.rows.get(&u)
    }

    /// Rows one fill may hold: `byte_cap` over a row's footprint while
    /// it is built (every rank bitset), at least one.
    fn row_cap(&self, g: &Graph) -> usize {
        let kk = self.scheme.k_max as usize;
        let per_row = kk * g.num_nodes().div_ceil(64) * std::mem::size_of::<u64>()
            + (kk + 1) * std::mem::size_of::<u32>();
        (self.byte_cap / per_row).max(1)
    }

    /// Makes the rows of the first `row_cap` distinct nodes of `upcoming`
    /// resident. Other resident rows are dropped when `evict` is set (a
    /// new round) or when keeping them would overrun the cap.
    fn fill_ahead(&mut self, g: &Graph, upcoming: &[NodeId], evict: bool) {
        let cap = self.row_cap(g);
        let mut chunk: HashSet<NodeId> = HashSet::new();
        let mut misses: Vec<NodeId> = Vec::new();
        for &u in upcoming {
            if chunk.len() == cap {
                break;
            }
            if chunk.insert(u) && !self.rows.contains_key(&u) {
                misses.push(u);
            }
        }
        if evict || self.rows.len() + misses.len() > cap {
            self.rows.retain(|u, _| chunk.contains(u));
            self.bytes = self.rows.values().map(BallRow::bytes).sum();
        }
        self.fill(g, &misses);
    }

    /// Computes and caches the rows of `centres` (distinct, uncached):
    /// evenly loaded passes of at most `width.lanes()` centres, run on
    /// `threads` workers, each building its own pass's rows. Rows are
    /// allocated here, on the calling thread, so short-lived workers never
    /// leave row memory behind in their allocator arenas.
    fn fill(&mut self, g: &Graph, centres: &[NodeId]) {
        if centres.is_empty() {
            return;
        }
        let n = g.num_nodes();
        let lanes = self.width.lanes();
        let per_pass = centres.len().div_ceil(centres.len().div_ceil(lanes));
        let ranker = Ranker::new(self.scheme);
        let width = self.width;
        let mut built: Vec<BallRow> = centres
            .iter()
            .map(|_| BallRow::blank(self.scheme, n))
            .collect();
        let mut passes: Vec<(&[NodeId], &mut [BallRow])> = centres
            .chunks(per_pass)
            .zip(built.chunks_mut(per_pass))
            .collect();
        let num_passes = passes.len();
        nav_par::parallel_chunks_mut(&mut passes, 1, self.threads, |_, job| {
            let (centres, rows) = &mut job[0];
            match width {
                LaneWidth::W64 => fill_pass::<1>(ranker, g, centres, rows),
                LaneWidth::W128 => fill_pass::<2>(ranker, g, centres, rows),
                LaneWidth::W256 => fill_pass::<4>(ranker, g, centres, rows),
            }
        });
        for (&u, mut row) in centres.iter().zip(built) {
            row.shrink_to_fit();
            self.bytes += row.bytes();
            self.rows.insert(u, row);
        }
        self.stats.rows += centres.len() as u64;
        self.stats.passes += num_passes as u64;
        self.stats.row_bytes = self.bytes as u64;
    }
}

impl ContactSampler for BallRowSampler {
    fn name(&self) -> String {
        "ball(thm4)+rows".into()
    }

    fn sample(&mut self, g: &Graph, u: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        let at = self.drawn;
        self.drawn += 1;
        if self.rows.contains_key(&u) {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            // Inside a round (the draw lands where it was announced) the
            // next chunk of the round fills ahead; any other draw fills
            // its own row.
            let round = std::mem::take(&mut self.round);
            let upcoming = match round.get(at..) {
                Some(rest) if rest.first() == Some(&u) => rest,
                _ => std::slice::from_ref(&u),
            };
            self.fill_ahead(g, upcoming, false);
            self.round = round;
        }
        self.rows[&u].sample(&self.scheme, rng)
    }

    fn prepare(&mut self, g: &Graph, nodes: &[NodeId]) {
        self.round.clear();
        self.round.extend_from_slice(nodes);
        self.drawn = 0;
        self.fill_ahead(g, nodes, true);
    }

    fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    fn wants_lockstep(&self) -> bool {
        true
    }

    fn stats(&self) -> SamplerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{check_scheme, ConformanceConfig};

    use nav_graph::GraphBuilder;
    use nav_par::rng::seeded_rng;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn ceil_log2_table() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn distribution_sums_to_one() {
        // Balls always contain u, so the scheme is fully stochastic.
        for n in [2usize, 5, 16, 33] {
            let g = path(n);
            let scheme = BallScheme::new(&g);
            for u in [0u32, (n / 2) as u32, (n - 1) as u32] {
                let total: f64 = scheme
                    .contact_distribution(&g, u)
                    .iter()
                    .map(|&(_, p)| p)
                    .sum();
                assert!((total - 1.0).abs() < 1e-9, "n={n} u={u}: {total}");
            }
        }
    }

    #[test]
    fn sampler_matches_distribution_on_path() {
        let g = path(17);
        let scheme = BallScheme::new(&g);
        check_scheme(
            &g,
            &scheme,
            &[0, 8, 16],
            &ConformanceConfig::with_samples(120_000),
        );
    }

    #[test]
    fn sampler_matches_distribution_on_star() {
        let g = GraphBuilder::from_edges(9, (1..9).map(|v| (0, v as NodeId))).unwrap();
        let scheme = BallScheme::new(&g);
        check_scheme(
            &g,
            &scheme,
            &[0, 3],
            &ConformanceConfig::with_samples(60_000),
        );
    }

    #[test]
    fn closer_nodes_never_less_likely() {
        // φ_u is non-increasing in distance (suffix sums of shrinking
        // terms) — the small-world monotonicity.
        let g = path(65);
        let scheme = BallScheme::new(&g);
        let dist = scheme.contact_distribution(&g, 0);
        let mut by_node = vec![0.0f64; 65];
        for (v, p) in dist {
            by_node[v as usize] = p;
        }
        for v in 1..64usize {
            assert!(
                by_node[v] >= by_node[v + 1] - 1e-12,
                "monotonicity broke at {v}: {} < {}",
                by_node[v],
                by_node[v + 1]
            );
        }
    }

    #[test]
    fn paper_formula_spot_check() {
        // Path of 8, u = 0, K = 3. Balls: |B(0,2)| = 3, |B(0,4)| = 5,
        // |B(0,8)| = 8. Node at distance 1 (rank ≤ 1): p = (1/3)(1/3+1/5+1/8).
        let g = path(8);
        let scheme = BallScheme::new(&g);
        assert_eq!(scheme.scales(), 3);
        let dist = scheme.contact_distribution(&g, 0);
        let p1 = dist.iter().find(|&&(v, _)| v == 1).unwrap().1;
        let expect = (1.0 / 3.0) * (1.0 / 3.0 + 1.0 / 5.0 + 1.0 / 8.0);
        assert!((p1 - expect).abs() < 1e-12, "{p1} vs {expect}");
        // Node at distance 3 (rank 2): p = (1/3)(1/5 + 1/8).
        let p3 = dist.iter().find(|&&(v, _)| v == 3).unwrap().1;
        let expect3 = (1.0 / 3.0) * (1.0 / 5.0 + 1.0 / 8.0);
        assert!((p3 - expect3).abs() < 1e-12);
        // Node at distance 8 is outside every ball? dist 7, rank 3:
        // p = (1/3)(1/8).
        let p7 = dist.iter().find(|&&(v, _)| v == 7).unwrap().1;
        assert!((p7 - (1.0 / 3.0) * (1.0 / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn batched_realization_is_thread_invariant_and_deterministic() {
        let g = path(150); // spans three 64-lane batches
        let scheme = BallScheme::new(&g);
        let r1 = scheme.realize_batched(&g, 9, 1);
        let r4 = scheme.realize_batched(&g, 9, 4);
        assert_eq!(r1, r4, "thread count must not change the realization");
        assert_ne!(r1, scheme.realize_batched(&g, 10, 1));
        assert_eq!(r1.num_links(), 150); // the scheme is fully stochastic
    }

    #[test]
    fn batched_realization_matches_distribution() {
        // Empirical contact frequencies of node u across many batched
        // realizations must match the closed-form φ_u.
        let g = path(17);
        let scheme = BallScheme::new(&g);
        let u = 8u32;
        let samples = 60_000usize;
        let mut counts = [0usize; 17];
        for s in 0..samples {
            let real = scheme.realize_batched(&g, s as u64, 1);
            counts[real.contact(u).unwrap() as usize] += 1;
        }
        let exact = scheme.contact_distribution(&g, u);
        let mut expected = [0.0f64; 17];
        for (v, p) in exact {
            expected[v as usize] = p;
        }
        for v in 0..17 {
            let emp = counts[v] as f64 / samples as f64;
            assert!(
                (emp - expected[v]).abs() < 0.012,
                "node {u}→{v}: empirical {emp:.4} vs exact {:.4}",
                expected[v]
            );
        }
    }

    #[test]
    fn batched_realization_stays_inside_largest_ball() {
        let g = path(40);
        let scheme = BallScheme::new(&g);
        let real = scheme.realize_batched(&g, 3, 2);
        let max_radius = 1u64 << scheme.scales();
        for u in 0..40u32 {
            let v = real.contact(u).unwrap();
            let d = (v as i64 - u as i64).unsigned_abs();
            assert!(d <= max_radius, "u={u} v={v}");
        }
    }

    #[test]
    fn tiny_graph_sampling() {
        let g = path(2);
        let scheme = BallScheme::new(&g);
        let mut rng = seeded_rng(33);
        for u in 0..2u32 {
            let v = scheme.sample_contact(&g, u, &mut rng).unwrap();
            assert!(v < 2);
        }
    }

    #[test]
    fn ball_row_prefixes_are_exactly_the_dyadic_balls() {
        let g = path(23);
        let scheme = BallScheme::new(&g);
        let u = 7u32;
        let dist = with_bfs(23, |bfs| bfs.distances(&g, u));
        let row = BallRow::from_distances(scheme, &dist);
        for k in 1..=scheme.scales() {
            let radius = if k >= 31 { u32::MAX } else { 1u32 << k };
            let mut expect: Vec<NodeId> = (0..23u32)
                .filter(|&v| dist[v as usize] != INFINITY && dist[v as usize] <= radius)
                .collect();
            let mut got = row.ball_members(k).to_vec();
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "k={k}");
            assert_eq!(row.ball_size(k), expect.len());
        }
        // Ranks 1..=4 are stored (the farthest node is 15 hops away), one
        // word and one block mark each, plus the K + 1 = 6 prefix sizes.
        assert_eq!(row.bytes(), 4 * 8 + 4 * 4 + 6 * 4);
    }

    #[test]
    fn ball_row_drops_unreachable_nodes() {
        let dist = [0u32, 1, INFINITY, 3];
        let g = GraphBuilder::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let scheme = BallScheme::new(&g); // K = 2
        let row = BallRow::from_distances(scheme, &dist);
        assert_eq!(row.ball_members(scheme.scales()), &[0, 1, 3]);
    }

    #[test]
    fn row_sampler_matches_scalar_distribution() {
        // The cached draw and the scalar reservoir draw must agree with
        // the closed-form φ_u — same empirical gate as the scalar test.
        let g = path(17);
        let scheme = BallScheme::new(&g);
        let exact = scheme.contact_distribution(&g, 8);
        let mut expected = [0.0f64; 17];
        for (v, p) in exact {
            expected[v as usize] = p;
        }
        let mut sampler = BallRowSampler::new(scheme, usize::MAX);
        let mut rng = seeded_rng(77);
        let samples = 120_000usize;
        let mut counts = [0usize; 17];
        for _ in 0..samples {
            counts[sampler.sample(&g, 8, &mut rng).unwrap() as usize] += 1;
        }
        for v in 0..17 {
            let emp = counts[v] as f64 / samples as f64;
            assert!(
                (emp - expected[v]).abs() < 0.012,
                "8→{v}: empirical {emp:.4} vs exact {:.4}",
                expected[v]
            );
        }
        let stats = sampler.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits as usize, samples - 1);
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.rows, 1); // demand-driven: only the missed node
        assert_eq!(stats.fallbacks, 0);
        assert!(sampler.row(8).is_some());
        assert!(stats.row_bytes > 0);
    }

    #[test]
    fn prepare_batches_all_announced_misses_into_one_pass() {
        let g = path(150);
        let scheme = BallScheme::new(&g);
        let mut sampler = BallRowSampler::new(scheme, usize::MAX);
        // 20 distinct walks announce their nodes (with repeats): one
        // MS-BFS pass computes exactly the distinct rows.
        let nodes: Vec<NodeId> = (0..40).map(|i| (i % 20) * 7).collect();
        sampler.prepare(&g, &nodes);
        assert_eq!(sampler.stats().rows, 20);
        assert_eq!(sampler.stats().passes, 1);
        // Every announced node now samples as a hit.
        let mut rng = seeded_rng(5);
        for &u in &nodes {
            assert!(sampler.sample(&g, u, &mut rng).unwrap() < 150);
        }
        assert_eq!(sampler.stats().misses, 0);
        // More than 64 distinct misses split into multiple passes.
        let many: Vec<NodeId> = (0..150).collect();
        sampler.prepare(&g, &many);
        assert_eq!(sampler.stats().rows, 150);
        assert_eq!(sampler.stats().passes, 1 + 3); // 130 new rows / 64 per pass
        assert!(sampler.wants_lockstep());
    }

    #[test]
    fn batched_rows_agree_with_scalar_row_construction() {
        // fill_batch builds rows from level-ordered discoveries;
        // from_distances builds them from a raw distance row. Same balls.
        let g = path(37);
        let scheme = BallScheme::new(&g);
        let mut sampler = BallRowSampler::new(scheme, usize::MAX);
        sampler.prepare(&g, &(0..37).collect::<Vec<_>>());
        for u in 0..37u32 {
            let dist = with_bfs(37, |bfs| bfs.distances(&g, u));
            let reference = BallRow::from_distances(scheme, &dist);
            let got = sampler.row(u).unwrap();
            for k in 1..=scheme.scales() {
                assert_eq!(got.ball_size(k), reference.ball_size(k), "u={u} k={k}");
                let mut a = got.ball_members(k).to_vec();
                let mut b = reference.ball_members(k).to_vec();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "u={u} k={k}");
            }
        }
    }

    #[test]
    fn batched_realization_is_width_invariant() {
        // Draws are by index over exact rows with a per-node RNG, so the
        // realization must be bit-identical at every word-block width.
        let g = path(300); // > 256: every width still needs multiple passes
        let scheme = BallScheme::new(&g);
        let base = scheme.realize_batched(&g, 11, 2);
        for width in LaneWidth::ALL {
            assert_eq!(
                scheme.realize_batched_w(&g, 11, 2, width),
                base,
                "width {width}"
            );
        }
    }

    #[test]
    fn wide_sampler_rows_hold_the_same_rank_buckets() {
        // Rows filled at 128/256 lanes bucket exactly the dyadic balls the
        // scalar construction does (in the same canonical order, too).
        let g = path(150);
        let scheme = BallScheme::new(&g);
        for width in [LaneWidth::W128, LaneWidth::W256] {
            let mut sampler = BallRowSampler::with_width(scheme, usize::MAX, width);
            sampler.prepare(&g, &(0..150).collect::<Vec<_>>());
            assert_eq!(sampler.stats().rows, 150, "{width}");
            assert_eq!(
                sampler.stats().passes as usize,
                150usize.div_ceil(width.lanes()),
                "{width}"
            );
            for u in 0..150u32 {
                let dist = with_bfs(150, |bfs| bfs.distances(&g, u));
                let reference = BallRow::from_distances(scheme, &dist);
                let got = sampler.row(u).unwrap();
                for k in 1..=scheme.scales() {
                    assert_eq!(
                        got.ball_size(k),
                        reference.ball_size(k),
                        "{width} u={u} k={k}"
                    );
                    let mut a = got.ball_members(k).to_vec();
                    let mut b = reference.ball_members(k).to_vec();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "{width} u={u} k={k}");
                }
            }
        }
    }

    #[test]
    fn wide_row_sampler_passes_conformance_at_every_width() {
        // The per-draw distribution is width-invariant: the chi-squared
        // gate that pins the 64-lane cache also pins the wide ones.
        let g = path(17);
        let scheme = BallScheme::new(&g);
        let cfg = ConformanceConfig::with_samples(60_000);
        for width in LaneWidth::ALL {
            let mut sampler = BallRowSampler::with_width(scheme, usize::MAX, width);
            crate::conformance::check_sampler(&g, &scheme, &mut sampler, &[0, 8, 16], &cfg);
        }
    }

    /// A 300-node graph with a long path, seeded chords and an 18-node
    /// component of its own, so MS-BFS passes mix top-down and bottom-up
    /// levels and some centres never reach others.
    fn mixed_graph() -> Graph {
        let mut rng = seeded_rng(404);
        let mut edges: Vec<(NodeId, NodeId)> = (0..281u32).map(|u| (u, u + 1)).collect();
        edges.extend((283..299u32).map(|u| (u, u + 1)));
        for _ in 0..60 {
            edges.push((rng.gen_range(0..282), rng.gen_range(0..282)));
        }
        edges.retain(|&(u, v)| u != v);
        GraphBuilder::from_edges(300, edges).unwrap()
    }

    #[test]
    fn sampler_rows_equal_from_distances_at_every_width_and_lane_mix() {
        // Rows are canonical: whatever width fills them and whichever
        // centres share a pass, each equals the scalar construction.
        let g = mixed_graph();
        let scheme = BallScheme::new(&g);
        let all: Vec<NodeId> = (0..300).collect();
        let reversed: Vec<NodeId> = all.iter().rev().copied().collect();
        let strided: Vec<NodeId> = (0..300).map(|i| (i * 7) % 300).collect();
        for width in LaneWidth::ALL {
            for mix in [&all, &reversed, &strided] {
                let mut sampler = BallRowSampler::with_width(scheme, usize::MAX, width);
                sampler.set_threads(2);
                sampler.prepare(&g, mix);
                for u in 0..300u32 {
                    let dist = with_bfs(300, |bfs| bfs.distances(&g, u));
                    let want = BallRow::from_distances(scheme, &dist);
                    assert_eq!(sampler.row(u), Some(&want), "{width} u={u}");
                }
            }
            // One centre per pass: the emptiest lane mix there is.
            let mut alone = BallRowSampler::with_width(scheme, usize::MAX, width);
            for u in [0u32, 150, 281, 282, 290] {
                alone.prepare(&g, &[u]);
                let dist = with_bfs(300, |bfs| bfs.distances(&g, u));
                assert_eq!(alone.row(u), Some(&BallRow::from_distances(scheme, &dist)));
            }
        }
    }

    #[test]
    fn one_row_budget_fills_each_round_in_draw_order() {
        // A budget below one row still holds one: the round fills one
        // chunk at a time as its draws reach it, and every draw matches
        // the unbounded sampler's.
        let g = mixed_graph();
        let scheme = BallScheme::new(&g);
        let round: Vec<NodeId> = vec![5, 5, 90, 17, 5, 290, 90, 90];
        let mut unbounded = BallRowSampler::new(scheme, usize::MAX);
        let mut tight = BallRowSampler::new(scheme, 0);
        let (mut a, mut b) = (seeded_rng(12), seeded_rng(12));
        for _ in 0..3 {
            unbounded.prepare(&g, &round);
            tight.prepare(&g, &round);
            for &u in &round {
                assert_eq!(unbounded.sample(&g, u, &mut a), tight.sample(&g, u, &mut b));
                assert_eq!(tight.rows.len(), 1);
            }
        }
        assert_eq!(unbounded.stats().passes, 1, "later rounds keep their rows");
        assert_eq!(unbounded.stats().misses, 0);
        let t = tight.stats();
        assert_eq!((t.hits + t.misses) as usize, 3 * round.len());
        assert_eq!(t.fallbacks, 0);
        // Each run of one node fills once: 5, 90, 17, 5, 290, 90 a round.
        assert_eq!(t.rows, 3 * 6);
        assert!(t.row_bytes > 0);
    }

    #[test]
    fn scheme_hands_out_its_batched_sampler() {
        let g = path(9);
        let scheme = BallScheme::new(&g);
        let mut s = scheme
            .batched_sampler(&g, usize::MAX)
            .expect("ball has one");
        assert_eq!(s.name(), "ball(thm4)+rows");
        let mut rng = seeded_rng(8);
        assert!(s.sample(&g, 4, &mut rng).unwrap() < 9);
        assert_eq!(s.stats().misses, 1);
    }
}
