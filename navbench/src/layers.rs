//! The traced run's per-layer breakdown. Server-side stage times come
//! from the nav-obs histograms in the server's `Stats` frame; client-side
//! spans come from the traced connections; counters the wire does not
//! carry come from replaying the same requests through an in-process
//! `ShardedEngine::serve_at`. Every figure covers the traced run's
//! warm-up and timed requests alike: the server is fresh, so its lifetime
//! counters are exactly those requests.

use crate::drive::{Conn, Spans};
use crate::spec::{Phases, Plan, Seeds, Spec, TargetTable, World};
use crate::sys::median;
use crate::Metric;
use nav_core::sampler::SamplerStats;
use nav_engine::QueryBatch;
use nav_net::{NetClient, StatsReply};
use nav_obs::{ObsConfig, Stage};
use nav_store::Snapshot;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// What the server reported, plus the cost of a durable snapshot taken
/// after the timed window.
pub struct ServerSide {
    stats: StatsReply,
    snapshot_bytes: usize,
    capture_ms: f64,
    restore_ms: f64,
}

impl ServerSide {
    /// Pulls the `Stats` frame over the first connection, hangs every
    /// connection up, then captures a snapshot over the wire and restores
    /// it in-process.
    pub fn pull(conns: &mut [Conn], addr: SocketAddr) -> Self {
        let stats = conns[0].stats();
        conns.iter_mut().for_each(Conn::hang_up);
        let t = Instant::now();
        let bytes = NetClient::connect_with(addr, u32::MAX as usize)
            .and_then(|mut c| c.snapshot(0))
            .expect("snapshot over the wire");
        let capture_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let restored = Snapshot::decode(&bytes)
            .and_then(|s| s.restore(nav_par::default_threads(), ObsConfig::disabled()))
            .expect("snapshot restores");
        let restore_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(restored);
        ServerSide {
            stats,
            snapshot_bytes: bytes.len(),
            capture_ms,
            restore_ms,
        }
    }

    /// A stage's summed milliseconds and sample count.
    fn stage(&self, stage: Stage) -> (f64, u64) {
        self.stats
            .obs
            .stage(stage)
            .map_or((0.0, 0), |h| (h.sum(), h.count()))
    }
}

/// In-process replay of every request the connections sent, each at the
/// RNG index it carried on the wire: its total `serve_at` time in µs and
/// the sampler counters.
fn replay(
    spec: &Spec,
    world: &World,
    seeds: &Seeds,
    table: &Arc<TargetTable>,
    conns: &[Conn],
) -> (f64, SamplerStats) {
    let mut front = spec.front(world, seeds, ObsConfig::disabled());
    let mut serve_us = 0.0;
    for (c, conn) in conns.iter().enumerate() {
        let mut plan = Plan::new(spec, seeds, Arc::clone(table), c);
        let mut base = 0u64;
        for _ in 0..conn.requests() {
            let batch = QueryBatch {
                queries: plan.next_batch(),
            };
            let t = Instant::now();
            front
                .serve_at(&batch, base, spec.sampler())
                .expect("generated endpoints are valid");
            serve_us += t.elapsed().as_secs_f64() * 1e6;
            base += batch.len() as u64;
        }
    }
    (serve_us, front.metrics().sampler)
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced run but `obs.overhead_frac`, which
/// needs the untraced run.
pub fn metrics(
    spec: &Spec,
    world: &World,
    seeds: &Seeds,
    table: &Arc<TargetTable>,
    conns: &[Conn],
    server: &ServerSide,
    phases: &[Phases],
) -> Vec<Metric> {
    let requests: f64 = conns.iter().map(|c| c.requests() as f64).sum();
    let queries: f64 = conns.iter().map(|c| c.answered_total() as f64).sum();
    let kq = queries / 1e3;
    let spans = conns.iter().fold(Spans::default(), |mut s, c| {
        s.encode_us += c.spans.encode_us;
        s.decode_us += c.spans.decode_us;
        s.rtt_us += c.spans.rtt_us;
        s.bytes += c.spans.bytes;
        s
    });
    let per_req = |stage| ratio(server.stage(stage).0 * 1e3, requests);
    let c = &server.stats.metrics;
    let (fill_ms, fills) = server.stage(Stage::ColdFill);
    let (trials_ms, _) = server.stage(Stage::Trials);
    let rtt_us = ratio(spans.rtt_us, requests);
    let server_us: f64 = Stage::ALL.iter().map(|&s| per_req(s)).sum();
    let residual_us = rtt_us - server_us;
    let (serve_us, sampler) = replay(spec, world, seeds, table, conns);
    let phase = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::new(
            "net.client_encode_us",
            ratio(spans.encode_us, requests),
            "us",
        ),
        Metric::new(
            "net.client_decode_us",
            ratio(spans.decode_us, requests),
            "us",
        ),
        Metric::new("net.rtt_us", rtt_us, "us"),
        Metric::new(
            "net.bytes_per_query",
            ratio(spans.bytes as f64, queries),
            "B",
        ),
        Metric::new("net.decode_us", per_req(Stage::Decode), "us"),
        Metric::new("net.encode_us", per_req(Stage::Encode), "us"),
        Metric::new("net.socket_us", per_req(Stage::Socket), "us"),
        Metric::new("engine.admission_us", per_req(Stage::Admission), "us"),
        Metric::new("engine.cache_lookup_us", per_req(Stage::CacheLookup), "us"),
        Metric::new("engine.cold_fill_us", per_req(Stage::ColdFill), "us"),
        Metric::new("engine.trials_us", per_req(Stage::Trials), "us"),
        Metric::new("engine.serve_us", ratio(serve_us, requests), "us"),
        Metric::new(
            "engine.cache_hit_rate",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "frac",
        ),
        Metric::new(
            "engine.evictions_per_kq",
            ratio(c.cache_evictions as f64, kq),
            "1/kq",
        ),
        Metric::new(
            "engine.epoch_flips_per_kq",
            ratio(c.epoch_flips as f64, kq),
            "1/kq",
        ),
        Metric::new("wait.residual_us", residual_us, "us"),
        Metric::new(
            "trace.unattributed_frac",
            ratio(residual_us, rtt_us),
            "frac",
        ),
        Metric::new("kernel.fill_calls_per_kq", ratio(fills as f64, kq), "1/kq"),
        Metric::new(
            "kernel.rows_per_fill",
            ratio(c.cold_targets as f64, fills as f64),
            "rows",
        ),
        Metric::new(
            "kernel.us_per_row",
            ratio(fill_ms * 1e3, c.cold_targets as f64),
            "us",
        ),
        Metric::new(
            "core.trials_per_ms",
            ratio(c.trials as f64, trials_ms),
            "1/ms",
        ),
        Metric::new(
            "sampler.rows_per_query",
            ratio(sampler.rows as f64, queries),
            "rows",
        ),
        Metric::new(
            "sampler.passes_per_query",
            ratio(sampler.passes as f64, queries),
            "passes",
        ),
        Metric::new(
            "sampler.rows_per_pass",
            ratio(sampler.rows as f64, sampler.passes as f64),
            "rows",
        ),
        Metric::new(
            "sampler.hit_rate",
            ratio(sampler.hits as f64, (sampler.hits + sampler.misses) as f64),
            "frac",
        ),
        Metric::new("sampler.fallbacks", sampler.fallbacks as f64, "count"),
        Metric::new(
            "fault.dropped_links_per_kq",
            ratio(c.dropped_links as f64, kq),
            "1/kq",
        ),
        Metric::new(
            "fault.rerouted_hops_per_kq",
            ratio(c.rerouted_hops as f64, kq),
            "1/kq",
        ),
        Metric::new("store.snapshot_bytes", server.snapshot_bytes as f64, "B"),
        Metric::new("store.capture_ms", server.capture_ms, "ms"),
        Metric::new("store.restore_ms", server.restore_ms, "ms"),
        Metric::new("setup.graph_ms", phase(|p| p.graph_ms), "ms"),
        Metric::new("setup.scheme_ms", phase(|p| p.scheme_ms), "ms"),
        Metric::new("setup.engine_ms", phase(|p| p.engine_ms), "ms"),
    ]
}
