//! Target-sharded serving: one [`Engine`] whose row cache is split into
//! `k` target partitions.
//!
//! At large `n` the row cache is the scaling wall: every resident target
//! costs `O(n)` bytes. A front with `k` shards gives shard `s` every
//! target `t` with `t % k == s` and a row-cache partition of its own,
//! each under the full [`EngineConfig::cache_bytes`] budget, and the
//! `nav-net` handle byte can address a shard directly. That partition is
//! the *only* per-shard state: the graph, the scheme, the metrics and
//! the observability registry exist once per front.
//!
//! Each query's answer is a pure function of `(seed, RNG index)`, so the
//! shard that owns a target can never change an answer: a
//! [`ShardedEngine`] answers every query stream with exactly the bytes a
//! single [`Engine`] would produce. A batch is served in one pass —
//! one admission, one cache lookup, one cold fill over all of its cold
//! targets, one parallel trial stage — and each partition sees the same
//! ascending run of lookups and inserts it would see as its own engine.

use crate::engine::{Engine, EngineConfig};
use nav_core::scheme::AugmentationScheme;
use nav_graph::Graph;
use std::ops::{Deref, DerefMut};

/// The largest shard count a front accepts: snapshots store the shard
/// count, and traces the owning shard, as a `u16`.
pub const MAX_SHARDS: usize = u16::MAX as usize;

/// Why a sharded front refused to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// More shards requested than [`MAX_SHARDS`].
    TooManyShards {
        /// The refused shard count.
        requested: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::TooManyShards { requested } => write!(
                f,
                "{requested} shards exceed the {MAX_SHARDS} shard labels \
                 a snapshot or trace can carry"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// A target-sharded front: one [`Engine`] with one row-cache partition
/// per shard, answering bit-identically to a single engine (see the
/// module docs). Every [`Engine`] method is available through `Deref`.
///
/// ```
/// use nav_engine::{Engine, EngineConfig, QueryBatch, ShardedEngine};
/// use nav_core::uniform::UniformScheme;
/// use nav_graph::GraphBuilder;
///
/// let g = GraphBuilder::from_edges(64, (0..63u32).map(|u| (u, u + 1))).unwrap();
/// let cfg = EngineConfig::default();
/// let mut sharded = ShardedEngine::new(g.clone(), || Box::new(UniformScheme), cfg, 4);
/// let mut single = Engine::new(g, Box::new(UniformScheme), cfg);
/// let batch = QueryBatch::from_pairs(&[(0, 63), (5, 62), (9, 63)], 8);
/// let a = sharded.serve(&batch).unwrap();
/// let b = single.serve(&batch).unwrap();
/// assert!(a
///     .answers
///     .iter()
///     .zip(&b.answers)
///     .all(|(x, y)| x.bits_eq(y)));
/// ```
pub struct ShardedEngine {
    engine: Engine,
}

impl ShardedEngine {
    /// Builds a front of `shards` (clamped to at least 1) partitions over
    /// `g`, serving the scheme `scheme_factory` builds (called once).
    ///
    /// # Panics
    /// Panics when `shards` exceeds [`MAX_SHARDS`] — use
    /// [`ShardedEngine::try_new`] to handle the refusal as a value.
    pub fn new(
        g: Graph,
        scheme_factory: impl FnOnce() -> Box<dyn AugmentationScheme + Send>,
        cfg: EngineConfig,
        shards: usize,
    ) -> Self {
        Self::try_new(g, scheme_factory, cfg, shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ShardedEngine::new`] that refuses fronts beyond [`MAX_SHARDS`]
    /// with a typed error instead of panicking. The scheme factory is not
    /// called on refusal.
    pub fn try_new(
        g: Graph,
        scheme_factory: impl FnOnce() -> Box<dyn AugmentationScheme + Send>,
        cfg: EngineConfig,
        shards: usize,
    ) -> Result<Self, ShardError> {
        if shards > MAX_SHARDS {
            return Err(ShardError::TooManyShards { requested: shards });
        }
        Ok(ShardedEngine {
            engine: Engine::with_partitions(g, scheme_factory(), cfg, shards),
        })
    }

    /// Wraps an existing engine as a 1-shard front (what single-engine
    /// callers upgrade through); its lifetime counters carry over.
    pub fn from_engine(engine: Engine) -> Self {
        ShardedEngine { engine }
    }

    /// Restores the front's lifetime counters from a snapshot: the query
    /// counter (the RNG base the next [`Engine::serve`] continues from)
    /// and the batch count its metrics report.
    pub fn restore_front(&mut self, served: u64, batches: u64) {
        self.engine.served = served;
        self.engine.metrics.batches = batches;
    }
}

impl Deref for ShardedEngine {
    type Target = Engine;

    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl DerefMut for ShardedEngine {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::QueryBatch;
    use crate::cache::{AdmissionPolicy, CacheStats};
    use nav_core::trial::PairStats;
    use nav_core::uniform::UniformScheme;
    use nav_graph::{GraphBuilder, NodeId};

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    fn identical(a: &[PairStats], b: &[PairStats]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(y))
    }

    fn pairs() -> Vec<(NodeId, NodeId)> {
        (0..24u32).map(|i| (i * 3 % 90, 89 - (i % 11))).collect()
    }

    #[test]
    fn sharded_matches_single_engine_bit_for_bit() {
        let g = path(90);
        let cfg = EngineConfig {
            seed: 17,
            threads: 2,
            cache_bytes: 1 << 20,
            ..EngineConfig::default()
        };
        let mut single = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
        let want = single.serve(&QueryBatch::from_pairs(&pairs(), 7)).unwrap();
        for k in [1usize, 2, 3, 5, 8] {
            let mut sharded = ShardedEngine::new(g.clone(), || Box::new(UniformScheme), cfg, k);
            assert_eq!(sharded.num_shards(), k);
            let got = sharded.serve(&QueryBatch::from_pairs(&pairs(), 7)).unwrap();
            assert!(identical(&got.answers, &want.answers), "k={k}");
            // Target dedup is per shard, but a target lives in exactly
            // one shard — totals match the single engine.
            assert_eq!(
                got.warm_targets + got.cold_targets,
                want.warm_targets + want.cold_targets,
                "k={k}"
            );
            assert_eq!(sharded.queries_served(), 24);
        }
    }

    #[test]
    fn batch_splits_and_shard_counts_commute() {
        let g = path(90);
        let cfg = EngineConfig {
            seed: 23,
            threads: 1,
            cache_bytes: 1 << 18,
            ..EngineConfig::default()
        };
        let mut whole = ShardedEngine::new(g.clone(), || Box::new(UniformScheme), cfg, 4);
        let want = whole.serve(&QueryBatch::from_pairs(&pairs(), 5)).unwrap();
        let mut split = ShardedEngine::new(g, || Box::new(UniformScheme), cfg, 2);
        let mut got = Vec::new();
        for chunk in pairs().chunks(7) {
            got.extend(
                split
                    .serve(&QueryBatch::from_pairs(chunk, 5))
                    .unwrap()
                    .answers,
            );
        }
        assert!(identical(&want.answers, &got));
    }

    #[test]
    fn front_rejects_before_any_shard_executes() {
        let g = path(10);
        let cfg = EngineConfig::default();
        let mut sharded = ShardedEngine::new(g, || Box::new(UniformScheme), cfg, 3);
        let bad = QueryBatch::from_pairs(&[(0, 4), (0, 10)], 2);
        assert!(sharded.serve(&bad).is_err());
        assert_eq!(sharded.queries_served(), 0);
        assert_eq!(sharded.metrics().batches, 0);
        assert_eq!(sharded.cache_stats().misses, 0);
    }

    #[test]
    fn merged_counters_and_direct_shard_serving() {
        let g = path(60);
        let cfg = EngineConfig {
            seed: 5,
            threads: 1,
            cache_bytes: 1 << 20,
            ..EngineConfig::default()
        };
        let mut sharded = ShardedEngine::new(g.clone(), || Box::new(UniformScheme), cfg, 2);
        let batch = QueryBatch::from_pairs(&[(0, 58), (1, 59), (2, 58)], 3);
        sharded.serve(&batch).unwrap();
        let m = sharded.metrics();
        assert_eq!(m.queries, 3);
        assert_eq!(m.trials, 9);
        // One batch, one latency sample, whichever shards it touched.
        assert_eq!(m.batches, 1);
        assert_eq!(m.batch_hist().count(), 1);
        assert!(m.latency().is_some());
        assert_eq!(sharded.cache_stats().resident_rows, 2);
        assert_eq!(sharded.cache_stats().capacity_bytes, 2 << 20);
        assert_eq!(sharded.scheme_name(), "uniform");
        assert_eq!(sharded.graph().num_nodes(), 60);
        assert_eq!(sharded.num_shards(), 2);
        assert_eq!((sharded.shard_of(58), sharded.shard_of(59)), (0, 1));
        // A batch of one shard's targets (what a direct shard handle
        // sends) equals a single engine's stream at the same base.
        let mut reference = Engine::new(g, Box::new(UniformScheme), cfg);
        let own = QueryBatch::from_pairs(&[(3, 58)], 4);
        let want = reference.serve_at(&own, 11, cfg.sampler).unwrap();
        let got = sharded.serve_at(&own, 11, cfg.sampler).unwrap();
        assert!(identical(&got.answers, &want.answers));
        assert_eq!(sharded.metrics().batches, 2);
    }

    #[test]
    fn merged_metrics_match_single_engine_totals() {
        // A sharded front reports the same lifetime totals a single
        // engine does for the same stream.
        let g = path(90);
        let cfg = EngineConfig {
            seed: 31,
            threads: 1,
            cache_bytes: 1 << 20,
            ..EngineConfig::default()
        };
        let mut single = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
        let mut sharded = ShardedEngine::new(g, || Box::new(UniformScheme), cfg, 3);
        for chunk in pairs().chunks(6) {
            let batch = QueryBatch::from_pairs(chunk, 4);
            single.serve(&batch).unwrap();
            sharded.serve(&batch).unwrap();
        }
        let sm = single.metrics();
        let mm = sharded.metrics();
        assert_eq!(mm.queries, sm.queries);
        assert_eq!(mm.batches, sm.batches);
        assert_eq!(mm.trials, sm.trials);
        assert_eq!(
            mm.warm_targets + mm.cold_targets,
            sm.warm_targets + sm.cold_targets
        );
        assert!(mm.latency().is_some());
    }

    #[test]
    fn obs_snapshot_merges_shards_and_labels_traces() {
        let g = path(90);
        let cfg = EngineConfig {
            seed: 31,
            threads: 2,
            cache_bytes: 1 << 20,
            obs: nav_obs::ObsConfig {
                stages: true,
                trace_every: 1, // trace everything
                trace_capacity: 64,
            },
            ..EngineConfig::default()
        };
        let mut sharded = ShardedEngine::new(g, || Box::new(UniformScheme), cfg, 3);
        sharded.serve(&QueryBatch::from_pairs(&pairs(), 4)).unwrap();
        let snap = sharded.obs_snapshot();
        assert_eq!(snap.traces.len(), 24);
        assert_eq!(snap.traces_recorded, 24);
        // Traces come back in query-index order with correct shard labels.
        let idx: Vec<u64> = snap.traces.iter().map(|t| t.index).collect();
        assert_eq!(idx, (0..24u64).collect::<Vec<_>>());
        for t in &snap.traces {
            assert_eq!(t.shard as usize, t.t as usize % 3);
        }
        // One batch, one sample per stage, however many shards it spans.
        use nav_obs::Stage;
        assert_eq!(snap.stage(Stage::Trials).unwrap().count(), 1);
        assert!(snap.stage(Stage::Admission).is_some());
        assert!(snap.stage(Stage::ColdFill).is_some());
    }

    #[test]
    fn oversized_fronts_are_refused_with_a_typed_error() {
        // Snapshots count shards, and traces label them, in a u16: a
        // front past MAX_SHARDS is refused before the scheme is built.
        let g = path(4);
        let cfg = EngineConfig::default();
        let requested = MAX_SHARDS + 1;
        let err = match ShardedEngine::try_new(
            g.clone(),
            || panic!("no scheme for a refused front"),
            cfg,
            requested,
        ) {
            Err(e) => e,
            Ok(_) => panic!("must refuse"),
        };
        assert_eq!(err, ShardError::TooManyShards { requested });
        assert!(err.to_string().contains("65535"));
        // The boundary itself builds: a shard is just an empty partition.
        let ok = ShardedEngine::try_new(g, || Box::new(UniformScheme), cfg, MAX_SHARDS).unwrap();
        assert_eq!(ok.num_shards(), MAX_SHARDS);
        assert_eq!(ok.shard_of(MAX_SHARDS as NodeId), 0);
    }

    #[test]
    fn partition_counters_match_one_engine_per_shard() {
        // Each partition sees exactly the lookups and inserts an engine
        // serving only that shard's queries would, so hits, misses and
        // evictions add up to theirs — here under evicting budgets.
        let g = path(90);
        for admission in [AdmissionPolicy::Lru, AdmissionPolicy::Segmented] {
            let cfg = EngineConfig {
                seed: 9,
                threads: 1,
                cache_bytes: 3 * 90 * 2,
                admission,
                ..EngineConfig::default()
            };
            let mut front = ShardedEngine::new(g.clone(), || Box::new(UniformScheme), cfg, 3);
            let mut shards: Vec<Engine> = (0..3)
                .map(|_| Engine::new(g.clone(), Box::new(UniformScheme), cfg))
                .collect();
            for chunk in pairs().chunks(5) {
                front.serve(&QueryBatch::from_pairs(chunk, 1)).unwrap();
                for (s, engine) in shards.iter_mut().enumerate() {
                    let own: Vec<_> = chunk
                        .iter()
                        .copied()
                        .filter(|p| p.1 % 3 == s as u32)
                        .collect();
                    engine.serve(&QueryBatch::from_pairs(&own, 1)).unwrap();
                }
            }
            let want: CacheStats = shards.iter().map(Engine::cache_stats).sum();
            assert_eq!(front.cache_stats(), want, "{admission:?}");
            assert!(want.evictions > 0);
        }
    }

    #[test]
    fn one_batch_is_one_cold_fill_across_every_shard() {
        let g = path(90);
        let cfg = EngineConfig {
            seed: 3,
            threads: 2,
            cache_bytes: 1 << 20,
            ..EngineConfig::default()
        };
        let mut front = ShardedEngine::new(g, || Box::new(UniformScheme), cfg, 4);
        // Ten distinct targets, covering every residue mod 4.
        let pairs: Vec<(NodeId, NodeId)> = (0..20u32).map(|i| (i, 70 + i % 10)).collect();
        let r = front.serve(&QueryBatch::from_pairs(&pairs, 2)).unwrap();
        assert_eq!((r.cold_targets, r.warm_targets), (10, 0));
        use nav_obs::Stage;
        let snap = front.obs_snapshot();
        assert_eq!(snap.stage(Stage::ColdFill).unwrap().count(), 1);
        assert_eq!(front.metrics().batch_hist().count(), 1);
        assert_eq!(front.metrics().cold_targets, 10);
        assert_eq!(front.cache_stats().resident_rows, 10);
    }

    #[test]
    #[should_panic(expected = "shard labels")]
    fn new_panics_on_oversized_fronts() {
        let g = path(4);
        let _ = ShardedEngine::new(
            g,
            || Box::new(UniformScheme),
            EngineConfig::default(),
            MAX_SHARDS + 1,
        );
    }

    #[test]
    fn from_engine_wraps_as_one_shard() {
        let g = path(30);
        let cfg = EngineConfig::default();
        let engine = Engine::new(g.clone(), Box::new(UniformScheme), cfg);
        let mut front = ShardedEngine::from_engine(engine);
        assert_eq!(front.num_shards(), 1);
        let mut single = Engine::new(g, Box::new(UniformScheme), cfg);
        let batch = QueryBatch::from_pairs(&[(0, 29), (4, 20)], 6);
        let a = front.serve(&batch).unwrap();
        let b = single.serve(&batch).unwrap();
        assert!(identical(&a.answers, &b.answers));
    }
}
