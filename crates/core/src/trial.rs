//! Parallel Monte-Carlo trial running.
//!
//! Estimates `E(φ, s, t)` for a set of source/target pairs by repeated
//! greedy-routing trials with fresh long-range draws. Target-distance rows
//! come from one shared [`TargetDistanceCache`] (each distinct target's
//! row computed exactly once, 64 targets per bit-parallel BFS pass); pairs
//! then run in parallel (`nav-par`), each pair's trials using an RNG
//! derived from `(seed, pair index)` — results are bit-identical across
//! thread counts.

use crate::faulty::DropCoin;
use crate::oracle::TargetDistanceCache;
use crate::routing::{default_step_cap, GreedyRouter};
use crate::sampler::{sampler_for_w, ContactSampler, SamplerMode};
use crate::scheme::AugmentationScheme;
use nav_graph::msbfs::LaneWidth;
use nav_graph::{Graph, GraphError, NodeId, INFINITY};
use nav_par::rng::task_rng;
use rand::{Rng, RngCore};

/// Configuration for a trial run.
#[derive(Clone, Debug)]
pub struct TrialConfig {
    /// Independent routing trials per (s, t) pair.
    pub trials_per_pair: usize,
    /// Master seed; every derived stream is a pure function of it.
    pub seed: u64,
    /// Worker threads (1 = inline).
    pub threads: usize,
    /// The per-step contact-sampling backend each worker builds.
    /// [`SamplerMode::Scalar`] (the default) is bit-identical to the
    /// pre-sampler engine; [`SamplerMode::Batched`] serves ball draws
    /// from MS-BFS row caches — same distributions, different RNG
    /// consumption.
    pub sampler: SamplerMode,
    /// MS-BFS word-block width for the target-distance oracle fills and
    /// the batched sampler backends: 64, 128 or 256 bit-lanes per pass.
    /// Distance rows and ball rows are exact and canonical at every
    /// width, so results are bit-identical across widths in both modes.
    pub width: LaneWidth,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            trials_per_pair: 64,
            seed: 0x5eed,
            threads: nav_par::default_threads(),
            sampler: SamplerMode::Scalar,
            width: LaneWidth::W64,
        }
    }
}

/// Per-pair aggregated outcome.
#[derive(Clone, Debug, Default)]
pub struct PairStats {
    /// The source.
    pub s: NodeId,
    /// The target.
    pub t: NodeId,
    /// `dist_G(s, t)` (an unconditional lower bound on steps... and also
    /// an upper bound in expectation, since links only help).
    pub dist: u32,
    /// Mean steps across trials.
    pub mean_steps: f64,
    /// Sample standard deviation of steps.
    pub std_steps: f64,
    /// Maximum steps observed.
    pub max_steps: u32,
    /// Mean number of long links used per trial.
    pub mean_long_links: f64,
    /// Number of trials that failed to reach the target (0 on connected
    /// graphs).
    pub failures: usize,
}

impl PairStats {
    /// Exact equality, floats compared **bit for bit** — the comparison
    /// behind every "engine B reproduces engine A" determinism gate
    /// (perf baselines, the serving engine's contract, property tests).
    pub fn bits_eq(&self, other: &PairStats) -> bool {
        self.s == other.s
            && self.t == other.t
            && self.dist == other.dist
            && self.mean_steps.to_bits() == other.mean_steps.to_bits()
            && self.std_steps.to_bits() == other.std_steps.to_bits()
            && self.max_steps == other.max_steps
            && self.mean_long_links.to_bits() == other.mean_long_links.to_bits()
            && self.failures == other.failures
    }
}

/// Result of a full trial run.
#[derive(Clone, Debug)]
pub struct TrialResult {
    /// Per-pair statistics, in input order.
    pub pairs: Vec<PairStats>,
}

impl TrialResult {
    /// Mean of per-pair means (the sweep statistic for exponent fits).
    pub fn grand_mean(&self) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        self.pairs.iter().map(|p| p.mean_steps).sum::<f64>() / self.pairs.len() as f64
    }

    /// Max of per-pair means — the empirical greedy-diameter estimate.
    pub fn max_pair_mean(&self) -> f64 {
        self.pairs.iter().map(|p| p.mean_steps).fold(0.0, f64::max)
    }

    /// Total failures across pairs.
    pub fn failures(&self) -> usize {
        self.pairs.iter().map(|p| p.failures).sum()
    }
}

/// Aggregates `trials` independent routing attempts from `s` through
/// `router` into a [`PairStats`]. This is *the* per-pair statistic
/// definition: the engine below and the perf baseline's legacy-engine
/// reproduction (`nav-bench`, `--bench-json`) both call it, so their
/// bit-identity comparison isolates exactly where the distance rows came
/// from.
pub fn aggregate_pair<S: AugmentationScheme + ?Sized>(
    router: &GreedyRouter<'_>,
    scheme: &S,
    s: NodeId,
    rng: &mut dyn RngCore,
    trials: usize,
    cap: u32,
) -> PairStats {
    let mut sampler = crate::sampler::ScalarSampler::new(scheme);
    aggregate_pair_with(router, &mut sampler, s, rng, trials, cap)
}

/// [`aggregate_pair`] over a caller-owned [`ContactSampler`] — the
/// sampler's cached state (ball rows) persists across the pair's trials,
/// which is where the batched backends earn their amortisation.
///
/// Samplers that ask for it ([`ContactSampler::wants_lockstep`]) get the
/// pair's trials run as **lockstep rounds** through
/// [`aggregate_lockstep`] with this one pair; the scalar backend keeps
/// the sequential per-trial order and with it bit-identity to the
/// pre-sampler engine.
pub fn aggregate_pair_with<C: ContactSampler + ?Sized>(
    router: &GreedyRouter<'_>,
    sampler: &mut C,
    s: NodeId,
    rng: &mut dyn RngCore,
    trials: usize,
    cap: u32,
) -> PairStats {
    if sampler.wants_lockstep() {
        let mut pair = [LockstepPair {
            router,
            s,
            trials,
            rng,
            coin: DropCoin::new(0.0),
        }];
        return aggregate_lockstep(sampler, &mut pair, cap)
            .pop()
            .expect("one pair in, one out");
    }
    let mut tally = Tally::default();
    for _ in 0..trials {
        let out = router.route_with(sampler, s, rng, cap, false);
        tally.record(out.steps, out.reached, out.long_links_used);
    }
    tally.finish(router, s, trials)
}

/// One (s, t) pair's part in an [`aggregate_lockstep`] run.
pub struct LockstepPair<'a> {
    /// Routes towards the pair's target (its distance row and fault view).
    pub router: &'a GreedyRouter<'a>,
    /// The source every trial starts from.
    pub s: NodeId,
    /// Independent routing trials of the pair.
    pub trials: usize,
    /// The pair's own RNG: every draw of its walks, and nothing else.
    pub rng: &'a mut dyn RngCore,
    /// The pair's link-drop coin, flipped after each of its draws
    /// (`DropCoin::new(0.0)` never fires and never touches the RNG).
    pub coin: DropCoin,
}

/// Runs the trials of several pairs as **one** lockstep walk over a
/// shared sampler and returns each pair's [`PairStats`], in order.
///
/// Every round, every running walk of every pair — pair-major, trial
/// order within a pair — announces its current node, so one
/// [`ContactSampler::prepare`] sees all of the round's misses and can
/// batch them into full bit-parallel MS-BFS passes. The walks then draw
/// in the same order, each pair on its own RNG: a pair's walks make
/// exactly the draws, in exactly the order, they make when the pair runs
/// alone. So with a sampler whose draws depend only on the node and the
/// RNG (canonical ball rows), k pairs run together give the same bits as
/// k single-pair runs. (Round order only reassigns which RNG values land
/// in which trial of a pair, which no per-trial statistic can see.)
pub fn aggregate_lockstep<C: ContactSampler + ?Sized>(
    sampler: &mut C,
    pairs: &mut [LockstepPair<'_>],
    cap: u32,
) -> Vec<PairStats> {
    let Some(first) = pairs.first() else {
        return Vec::new();
    };
    let g = first.router.graph();
    #[derive(Clone)]
    struct Walk {
        pair: usize,
        u: NodeId,
        steps: u32,
        long: u32,
        running: bool,
    }
    let mut walks: Vec<Walk> = pairs
        .iter()
        .enumerate()
        .flat_map(|(pair, p)| {
            let walk = Walk {
                pair,
                u: p.s,
                steps: 0,
                long: 0,
                running: true,
            };
            std::iter::repeat_n(walk, p.trials)
        })
        .collect();
    let mut announce: Vec<NodeId> = Vec::new();
    loop {
        announce.clear();
        for w in walks.iter_mut().filter(|w| w.running) {
            let router = pairs[w.pair].router;
            // The same stop conditions as `GreedyRouter::route_with`.
            if w.u == router.target() || w.steps >= cap || router.dist_to_target(w.u) == INFINITY {
                w.running = false;
            } else {
                announce.push(w.u);
            }
        }
        if announce.is_empty() {
            break;
        }
        sampler.prepare(g, &announce);
        for w in walks.iter_mut().filter(|w| w.running) {
            let p = &mut pairs[w.pair];
            let contact = sampler.sample(g, w.u, p.rng);
            let contact = p.coin.apply(contact, p.rng);
            let Some((next, long)) = p.router.step(w.u, contact) else {
                w.running = false;
                continue;
            };
            w.long += long as u32;
            w.u = next;
            w.steps += 1;
        }
    }
    let mut tallies = vec![Tally::default(); pairs.len()];
    for w in &walks {
        let reached = w.u == pairs[w.pair].router.target();
        tallies[w.pair].record(w.steps, reached, w.long);
    }
    pairs
        .iter()
        .zip(tallies)
        .map(|(p, tally)| tally.finish(p.router, p.s, p.trials))
        .collect()
}

/// Running sums of one pair's trial outcomes, recorded in trial order.
#[derive(Clone, Default)]
struct Tally {
    sum: f64,
    sum_sq: f64,
    max_steps: u32,
    long_links: f64,
    failures: usize,
}

impl Tally {
    fn record(&mut self, steps: u32, reached: bool, long: u32) {
        if !reached {
            self.failures += 1;
            return;
        }
        let st = steps as f64;
        self.sum += st;
        self.sum_sq += st * st;
        self.max_steps = self.max_steps.max(steps);
        self.long_links += long as f64;
    }

    fn finish(self, router: &GreedyRouter<'_>, s: NodeId, trials: usize) -> PairStats {
        let ok = (trials - self.failures).max(1) as f64;
        let mean = self.sum / ok;
        let var = (self.sum_sq / ok - mean * mean).max(0.0);
        PairStats {
            s,
            t: router.target(),
            dist: router.dist_to_target(s),
            mean_steps: mean,
            std_steps: var.sqrt(),
            max_steps: self.max_steps,
            mean_long_links: self.long_links / ok,
            failures: self.failures,
        }
    }
}

/// Runs trials for explicit (s, t) pairs.
pub fn run_trials<S: AugmentationScheme + ?Sized>(
    g: &Graph,
    scheme: &S,
    pairs: &[(NodeId, NodeId)],
    cfg: &TrialConfig,
) -> Result<TrialResult, GraphError> {
    for &(s, t) in pairs {
        g.check_node(s)?;
        g.check_node(t)?;
    }
    // Group the pair indices by distinct target, `width.lanes()` distinct
    // targets per group, and process the groups in waves of `threads`:
    // within a wave every group's oracle builds on its own worker (one
    // MS-BFS pass each) and the wave's pairs then share the full worker
    // pool, so both phases scale with cores while resident rows stay
    // bounded at `O(lanes·threads·n)` however many targets the workload
    // has. Outputs are a pure function of `(seed, pair index)`, so
    // neither grouping nor wave partitioning changes them.
    let lanes = cfg.width.lanes();
    let mut slot_of = vec![u32::MAX; g.num_nodes()];
    let mut num_targets = 0usize;
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (idx, &(_, t)) in pairs.iter().enumerate() {
        let slot = &mut slot_of[t as usize];
        if *slot == u32::MAX {
            *slot = num_targets as u32;
            num_targets += 1;
            if num_targets.div_ceil(lanes) > groups.len() {
                groups.push(Vec::new());
            }
        }
        groups[*slot as usize / lanes].push(idx);
    }
    let cap = default_step_cap(g);
    let mut stats: Vec<PairStats> = vec![PairStats::default(); pairs.len()];
    for wave in groups.chunks(cfg.threads.max(1)) {
        let oracles: Vec<Option<TargetDistanceCache<'_>>> =
            nav_par::parallel_map(wave.len(), cfg.threads, |w| {
                let targets = wave[w].iter().map(|&i| pairs[i].1);
                Some(
                    TargetDistanceCache::build_width(g, targets, 1, cfg.width)
                        .expect("pairs validated above"),
                )
            });
        let items: Vec<(usize, usize)> = wave
            .iter()
            .enumerate()
            .flat_map(|(w, group)| group.iter().map(move |&idx| (w, idx)))
            .collect();
        let wave_stats = nav_par::parallel_map(items.len(), cfg.threads, |j| {
            let (w, idx) = items[j];
            let (s, t) = pairs[idx];
            let oracle = oracles[w].as_ref().expect("built above");
            let router = oracle.router(t).expect("target cached above");
            let mut rng = task_rng(cfg.seed, idx as u64);
            let mut sampler = sampler_for_w(scheme, g, cfg.sampler, usize::MAX, cfg.width);
            aggregate_pair_with(
                &router,
                sampler.as_mut(),
                s,
                &mut rng,
                cfg.trials_per_pair,
                cap,
            )
        });
        for (j, ps) in wave_stats.into_iter().enumerate() {
            stats[items[j].1] = ps;
        }
    }
    Ok(TrialResult { pairs: stats })
}

/// Draws `count` random (s, t) pairs with `s ≠ t`.
pub fn random_pairs(g: &Graph, count: usize, rng: &mut impl Rng) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes() as NodeId;
    assert!(n >= 2, "need at least two nodes for pairs");
    (0..count)
        .map(|_| loop {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            if s != t {
                return (s, t);
            }
        })
        .collect()
}

/// The extremal pairs of the graph: both orientations of a double-sweep
/// diametral pair — the pairs that realise lower-bound behaviour on paths,
/// lollipops, combs, etc.
pub fn extremal_pairs(g: &Graph) -> Vec<(NodeId, NodeId)> {
    extremal_pairs_with_distance(g).0
}

/// [`extremal_pairs`] plus `dist(a, b)` — the double sweep already
/// computed it, so callers wanting the extremal distance (a diameter
/// proxy) need not re-run any BFS.
pub fn extremal_pairs_with_distance(g: &Graph) -> (Vec<(NodeId, NodeId)>, u32) {
    let (a, b, d) = nav_graph::distance::double_sweep(g, 0);
    (vec![(a, b), (b, a)], d)
}

/// A convenience runner: extremal pairs plus `extra_random` random pairs.
pub fn run_standard<S: AugmentationScheme + ?Sized>(
    g: &Graph,
    scheme: &S,
    extra_random: usize,
    cfg: &TrialConfig,
) -> Result<TrialResult, GraphError> {
    let mut pairs = extremal_pairs(g);
    let mut rng = nav_par::rng::seeded_rng(cfg.seed ^ 0xA5A5_5A5A);
    pairs.extend(random_pairs(g, extra_random, &mut rng));
    run_trials(g, scheme, &pairs, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::{NoAugmentation, UniformScheme};
    use nav_graph::GraphBuilder;
    use nav_par::rng::seeded_rng;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    #[test]
    fn no_augmentation_mean_is_distance() {
        let g = path(30);
        let cfg = TrialConfig {
            trials_per_pair: 5,
            seed: 1,
            threads: 1,
            ..TrialConfig::default()
        };
        let r = run_trials(&g, &NoAugmentation, &[(0, 29), (5, 10)], &cfg).unwrap();
        assert_eq!(r.pairs[0].mean_steps, 29.0);
        assert_eq!(r.pairs[0].std_steps, 0.0);
        assert_eq!(r.pairs[0].dist, 29);
        assert_eq!(r.pairs[1].mean_steps, 5.0);
        assert_eq!(r.max_pair_mean(), 29.0);
        assert!((r.grand_mean() - 17.0).abs() < 1e-12);
        assert_eq!(r.failures(), 0);
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = path(64);
        let pairs: Vec<(NodeId, NodeId)> = (0..16).map(|i| (i, 63 - i)).collect();
        let base = TrialConfig {
            trials_per_pair: 20,
            seed: 77,
            threads: 1,
            ..TrialConfig::default()
        };
        let par = TrialConfig {
            threads: 8,
            ..base.clone()
        };
        let r1 = run_trials(&g, &UniformScheme, &pairs, &base).unwrap();
        let r8 = run_trials(&g, &UniformScheme, &pairs, &par).unwrap();
        for (a, b) in r1.pairs.iter().zip(&r8.pairs) {
            assert_eq!(a.mean_steps, b.mean_steps);
            assert_eq!(a.max_steps, b.max_steps);
        }
    }

    #[test]
    fn uniform_helps_on_long_path() {
        let g = path(400);
        let cfg = TrialConfig {
            trials_per_pair: 40,
            seed: 3,
            threads: 2,
            ..TrialConfig::default()
        };
        let r = run_trials(&g, &UniformScheme, &[(0, 399)], &cfg).unwrap();
        // E[steps] = O(√n·polylog-ish constant); must clearly beat 399.
        assert!(
            r.pairs[0].mean_steps < 250.0,
            "mean {}",
            r.pairs[0].mean_steps
        );
        assert!(r.pairs[0].mean_long_links >= 1.0);
    }

    #[test]
    fn random_pairs_distinct_endpoints() {
        let g = path(10);
        let mut rng = seeded_rng(5);
        let pairs = random_pairs(&g, 100, &mut rng);
        assert_eq!(pairs.len(), 100);
        assert!(pairs.iter().all(|&(s, t)| s != t && s < 10 && t < 10));
    }

    #[test]
    fn oracle_engine_matches_fresh_bfs_engine() {
        // The pre-oracle engine ran one fresh BFS per pair; the cached rows
        // must reproduce its outputs bit for bit.
        use crate::routing::{default_step_cap, GreedyRouter};
        use nav_par::rng::task_rng;
        let g = path(96);
        let pairs: Vec<(NodeId, NodeId)> = vec![(0, 95), (95, 0), (3, 77), (12, 77), (50, 1)];
        let cfg = TrialConfig {
            trials_per_pair: 16,
            seed: 41,
            threads: 1,
            ..TrialConfig::default()
        };
        let cached = run_trials(&g, &UniformScheme, &pairs, &cfg).unwrap();
        let cap = default_step_cap(&g);
        for (idx, &(s, t)) in pairs.iter().enumerate() {
            let router = GreedyRouter::new(&g, t).unwrap();
            let mut rng = task_rng(cfg.seed, idx as u64);
            let mut steps: Vec<u32> = Vec::new();
            for _ in 0..cfg.trials_per_pair {
                steps.push(router.route(&UniformScheme, s, &mut rng, cap, false).steps);
            }
            let mean = steps.iter().map(|&x| x as f64).sum::<f64>() / steps.len() as f64;
            let p = &cached.pairs[idx];
            assert_eq!(p.mean_steps, mean, "pair {idx}");
            assert_eq!(p.max_steps, steps.iter().copied().max().unwrap());
            assert_eq!(p.dist, router.dist_to_target(s));
        }
    }

    #[test]
    fn scalar_mode_results_are_width_invariant() {
        // The oracle rows are exact at every word-block width and the
        // scalar sampler never touches MS-BFS state, so every statistic
        // must be bit-identical across widths (and across thread counts,
        // which regroup the widened target batches differently).
        let g = path(90);
        let pairs: Vec<(NodeId, NodeId)> = (0..80).map(|i| (i, 89 - (i % 30))).collect();
        let base = TrialConfig {
            trials_per_pair: 6,
            seed: 21,
            threads: 1,
            ..TrialConfig::default()
        };
        let reference = run_trials(&g, &UniformScheme, &pairs, &base).unwrap();
        for width in LaneWidth::ALL {
            for threads in [1usize, 3] {
                let cfg = TrialConfig {
                    width,
                    threads,
                    ..base.clone()
                };
                let r = run_trials(&g, &UniformScheme, &pairs, &cfg).unwrap();
                for (a, b) in reference.pairs.iter().zip(&r.pairs) {
                    assert!(a.bits_eq(b), "width {width} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn lockstep_over_k_pairs_equals_k_single_pair_runs() {
        // One shared ball-row sampler driving k pairs together must give
        // every pair the statistics (and drop counts) of running it alone
        // over its own sampler.
        use crate::ball::{BallRowSampler, BallScheme};
        use crate::faulty::FaultySampler;
        let g = GraphBuilder::from_edges(
            120,
            (0..119u32)
                .map(|u| (u, u + 1))
                .chain([(3, 60), (40, 100), (7, 90)]),
        )
        .unwrap();
        let scheme = BallScheme::new(&g);
        let cap = default_step_cap(&g);
        let queries: Vec<(NodeId, NodeId, usize, f64)> = vec![
            (0, 119, 5, 0.0),
            (60, 3, 1, 0.3),
            (119, 0, 7, 0.0),
            (8, 119, 4, 0.5),
            (50, 50, 3, 0.0),
        ];
        let routers: Vec<GreedyRouter<'_>> = queries
            .iter()
            .map(|&(_, t, _, _)| GreedyRouter::new(&g, t).unwrap())
            .collect();
        let mut rngs: Vec<_> = (0..queries.len() as u64).map(|i| task_rng(3, i)).collect();
        let mut pairs: Vec<LockstepPair<'_>> = queries
            .iter()
            .zip(&routers)
            .zip(rngs.iter_mut())
            .map(|((&(s, _, trials, p), router), rng)| LockstepPair {
                router,
                s,
                trials,
                rng,
                coin: DropCoin::new(p),
            })
            .collect();
        let mut shared = BallRowSampler::new(scheme, usize::MAX);
        let together = aggregate_lockstep(&mut shared, &mut pairs, cap);
        assert_eq!(together.len(), queries.len());
        for (i, &(s, t, trials, p)) in queries.iter().enumerate() {
            let router = GreedyRouter::new(&g, t).unwrap();
            let mut alone = FaultySampler::new(BallRowSampler::new(scheme, usize::MAX), p);
            let want = aggregate_pair_with(
                &router,
                &mut alone,
                s,
                &mut task_rng(3, i as u64),
                trials,
                cap,
            );
            assert!(
                together[i].bits_eq(&want),
                "pair {i}: {:?} vs {want:?}",
                together[i]
            );
            assert_eq!(pairs[i].coin.dropped(), alone.dropped(), "pair {i}");
        }
        assert!(pairs.iter().any(|p| p.coin.dropped() > 0));
        assert!(aggregate_lockstep(&mut shared, &mut [], cap).is_empty());
    }

    #[test]
    fn extremal_pairs_on_path_are_endpoints() {
        let g = path(50);
        let (pairs, d) = extremal_pairs_with_distance(&g);
        assert_eq!(d, 49);
        assert_eq!(pairs, extremal_pairs(&g));
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, pairs[1].1);
        let d = pairs[0];
        assert!((d.0 == 0 && d.1 == 49) || (d.0 == 49 && d.1 == 0));
    }

    #[test]
    fn run_standard_smoke() {
        let g = path(40);
        let cfg = TrialConfig {
            trials_per_pair: 8,
            seed: 9,
            threads: 2,
            ..TrialConfig::default()
        };
        let r = run_standard(&g, &UniformScheme, 4, &cfg).unwrap();
        assert_eq!(r.pairs.len(), 6);
        assert_eq!(r.failures(), 0);
    }

    #[test]
    fn invalid_pair_rejected() {
        let g = path(5);
        let cfg = TrialConfig::default();
        assert!(run_trials(&g, &UniformScheme, &[(0, 9)], &cfg).is_err());
    }
}
