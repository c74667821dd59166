//! Batched per-step contact sampling.
//!
//! The routing engine draws one long-range contact per *visited node*
//! (deferred decisions). Schemes whose draw is cheap (a matrix row lookup,
//! a fixed realization) don't care how that draw is made — but the
//! a-posteriori [`crate::ball::BallScheme`] pays one truncated BFS per
//! draw, which dominates every ball-scheme experiment. This module
//! abstracts the draw behind a [`ContactSampler`] so the per-step cost can
//! be paid in bulk instead of per visit, the same discipline that batched
//! realizations 64 centres per MS-BFS pass:
//!
//! * [`ScalarSampler`] — backend (a), the reference path: defers every
//!   draw to [`AugmentationScheme::sample_contact`], consuming the
//!   identical RNG stream, so trial results are **bit-identical** to the
//!   pre-sampler engine.
//! * [`crate::ball::BallRowSampler`] — backend (b), the ball-row cache:
//!   computes canonical ball rows up to 256 at a time by bit-parallel
//!   MS-BFS on first visit and serves every later draw for a cached node
//!   in a few word operations, distribution-identical to the scalar draw.
//! * pre-realized — backend (c): a [`crate::realization::Realization`]
//!   (e.g. from [`crate::ball::BallScheme::realize_batched`]) *is* an
//!   [`AugmentationScheme`], so serving it through [`ScalarSampler`] costs
//!   one table lookup per draw.
//!
//! Workers pick a backend through [`SamplerMode`] + [`sampler_for`]:
//! [`SamplerMode::Batched`] asks the scheme for its batched sampler
//! ([`AugmentationScheme::batched_sampler`]) and falls back to the scalar
//! path when the scheme has none, so the knob is safe on every scheme.

use crate::scheme::AugmentationScheme;
use nav_graph::msbfs::LaneWidth;
use nav_graph::{Graph, NodeId};
use rand::RngCore;

/// Which per-step sampling backend the trial/serving engines build for
/// their workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SamplerMode {
    /// One [`AugmentationScheme::sample_contact`] call per visited node —
    /// the reference path, bit-identical to the pre-sampler engine.
    #[default]
    Scalar,
    /// The scheme's batched sampler when it has one (the ball-row cache
    /// for [`crate::ball::BallScheme`]); scalar fallback otherwise.
    Batched,
}

impl SamplerMode {
    /// Parses a CLI flag value (`scalar` | `batched`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(SamplerMode::Scalar),
            "batched" => Some(SamplerMode::Batched),
            _ => None,
        }
    }

    /// The CLI/JSON label of the mode.
    pub fn label(&self) -> &'static str {
        match self {
            SamplerMode::Scalar => "scalar",
            SamplerMode::Batched => "batched",
        }
    }
}

/// Counters a sampler accumulates while serving one worker. Stateless
/// samplers report all zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Draws served from cached sampler state (a resident ball row).
    pub hits: u64,
    /// Draws for a node with no cached state yet.
    pub misses: u64,
    /// Ball rows computed and cached.
    pub rows: u64,
    /// MS-BFS passes issued to fill rows (≤ `width.lanes()` rows each).
    pub passes: u64,
    /// Payload bytes of cached rows at the end of the worker's run.
    pub row_bytes: u64,
    /// Always 0: every sampler answers every draw on its own path (the
    /// ball-row cache always holds at least one row). Kept because
    /// navbench reports it.
    pub fallbacks: u64,
}

impl SamplerStats {
    /// Accumulates another worker's counters into this one (`row_bytes`
    /// adds up too: it then means total bytes across workers).
    pub fn merge(&mut self, other: &SamplerStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.rows += other.rows;
        self.passes += other.passes;
        self.row_bytes += other.row_bytes;
        self.fallbacks += other.fallbacks;
    }
}

/// A per-worker stateful source of long-range contact draws, driven by
/// [`crate::routing::GreedyRouter::route_with`] instead of calling
/// [`AugmentationScheme::sample_contact`] directly.
///
/// A sampler may cache deterministic state (ball rows) across draws, but
/// each `sample` must still be an independent draw from the scheme's
/// `φ_u` — caching may change *when randomness is consumed*, never the
/// distribution of the contact.
pub trait ContactSampler {
    /// Display name (used in metrics and bench JSON).
    fn name(&self) -> String;

    /// Draws the long-range contact of `u` (`None` = the sub-stochastic
    /// leftover mass, exactly as in
    /// [`AugmentationScheme::sample_contact`]).
    fn sample(&mut self, g: &Graph, u: NodeId, rng: &mut dyn RngCore) -> Option<NodeId>;

    /// Announces nodes about to be sampled, letting a batching backend
    /// compute their state in bulk (many ball rows per MS-BFS pass) before
    /// the per-node draws land. Stateless samplers ignore it.
    fn prepare(&mut self, g: &Graph, nodes: &[NodeId]) {
        let _ = (g, nodes);
    }

    /// Lets a batching backend spread each bulk fill over `threads`
    /// workers (`1`, the default, fills inline). Never changes a draw.
    fn set_threads(&mut self, threads: usize) {
        let _ = threads;
    }

    /// `true` when the sampler profits from the trial engine running
    /// trials in lockstep rounds (a pair's, or a whole serving batch's:
    /// all concurrent walks announce
    /// their current nodes through [`ContactSampler::prepare`], so misses
    /// batch with no wasted lanes). The scalar backend keeps the
    /// sequential per-trial order — and with it bit-identity to the
    /// pre-sampler engine.
    fn wants_lockstep(&self) -> bool {
        false
    }

    /// The sampler's counters (zeros for stateless samplers).
    fn stats(&self) -> SamplerStats {
        SamplerStats::default()
    }
}

impl<T: ContactSampler + ?Sized> ContactSampler for Box<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn sample(&mut self, g: &Graph, u: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        (**self).sample(g, u, rng)
    }

    fn prepare(&mut self, g: &Graph, nodes: &[NodeId]) {
        (**self).prepare(g, nodes);
    }

    fn set_threads(&mut self, threads: usize) {
        (**self).set_threads(threads);
    }

    fn wants_lockstep(&self) -> bool {
        (**self).wants_lockstep()
    }

    fn stats(&self) -> SamplerStats {
        (**self).stats()
    }
}

/// Backend (a): every draw goes straight to
/// [`AugmentationScheme::sample_contact`]. The RNG stream is untouched,
/// so routing through this sampler is bit-identical to routing on the
/// scheme directly.
pub struct ScalarSampler<'s, S: AugmentationScheme + ?Sized> {
    scheme: &'s S,
}

impl<'s, S: AugmentationScheme + ?Sized> ScalarSampler<'s, S> {
    /// Wraps a scheme borrow.
    pub fn new(scheme: &'s S) -> Self {
        ScalarSampler { scheme }
    }
}

impl<S: AugmentationScheme + ?Sized> ContactSampler for ScalarSampler<'_, S> {
    fn name(&self) -> String {
        self.scheme.name()
    }

    fn sample(&mut self, g: &Graph, u: NodeId, rng: &mut dyn RngCore) -> Option<NodeId> {
        self.scheme.sample_contact(g, u, rng)
    }
}

/// Builds the sampler `mode` selects for `scheme`, for one routing
/// worker. `byte_cap` bounds the bytes of sampler state one fill holds
/// (`usize::MAX` = unbounded; the ball-row cache always holds at least
/// one row). It never changes a draw.
pub fn sampler_for<'s, S: AugmentationScheme + ?Sized>(
    scheme: &'s S,
    g: &Graph,
    mode: SamplerMode,
    byte_cap: usize,
) -> Box<dyn ContactSampler + 's> {
    sampler_for_w(scheme, g, mode, byte_cap, LaneWidth::W64)
}

/// [`sampler_for`] at an explicit MS-BFS word-block width: a batching
/// backend fills `width.lanes()` rows per pass instead of 64. The width
/// never changes a draw — only how many misses one pass amortises.
pub fn sampler_for_w<'s, S: AugmentationScheme + ?Sized>(
    scheme: &'s S,
    g: &Graph,
    mode: SamplerMode,
    byte_cap: usize,
    width: LaneWidth,
) -> Box<dyn ContactSampler + 's> {
    match mode {
        SamplerMode::Scalar => Box::new(ScalarSampler::new(scheme)),
        SamplerMode::Batched => scheme
            .batched_sampler_w(g, byte_cap, width)
            .unwrap_or_else(|| Box::new(ScalarSampler::new(scheme))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::{NoAugmentation, UniformScheme};
    use nav_graph::GraphBuilder;
    use nav_par::rng::seeded_rng;

    #[test]
    fn mode_parse_and_label_roundtrip() {
        for mode in [SamplerMode::Scalar, SamplerMode::Batched] {
            assert_eq!(SamplerMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(SamplerMode::parse("bogus"), None);
        assert_eq!(SamplerMode::default(), SamplerMode::Scalar);
    }

    #[test]
    fn scalar_sampler_consumes_identical_stream() {
        let g = GraphBuilder::from_edges(6, (0..5u32).map(|u| (u, u + 1))).unwrap();
        let mut direct_rng = seeded_rng(9);
        let direct: Vec<_> = (0..20)
            .map(|i| UniformScheme.sample_contact(&g, i % 6, &mut direct_rng))
            .collect();
        let mut sampler = ScalarSampler::new(&UniformScheme);
        let mut rng = seeded_rng(9);
        let sampled: Vec<_> = (0..20)
            .map(|i| sampler.sample(&g, i % 6, &mut rng))
            .collect();
        assert_eq!(direct, sampled);
        assert_eq!(sampler.name(), "uniform");
        assert_eq!(sampler.stats(), SamplerStats::default());
    }

    #[test]
    fn batched_mode_falls_back_to_scalar_for_plain_schemes() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut s = sampler_for(&NoAugmentation, &g, SamplerMode::Batched, usize::MAX);
        let mut rng = seeded_rng(1);
        assert_eq!(s.sample(&g, 0, &mut rng), None);
        assert_eq!(s.name(), "none");
    }

    #[test]
    fn stats_merge_adds_fieldwise() {
        let mut a = SamplerStats {
            hits: 1,
            misses: 2,
            rows: 3,
            passes: 4,
            row_bytes: 5,
            fallbacks: 6,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            SamplerStats {
                hits: 2,
                misses: 4,
                rows: 6,
                passes: 8,
                row_bytes: 10,
                fallbacks: 12,
            }
        );
    }
}
