//! The workloads: what each one serves, how its inputs derive from the
//! seed, and how its serving front is built.

use nav_core::ball::BallScheme;
use nav_core::faulty::{FailurePlan, FaultConfig};
use nav_core::realization::Realization;
use nav_core::sampler::SamplerMode;
use nav_core::scheme::AugmentationScheme;
use nav_core::uniform::UniformScheme;
use nav_engine::{EngineConfig, Query, ShardedEngine};
use nav_gen::Family;
use nav_graph::{Graph, NodeId};
use nav_net::{NetConfig, NetServer, ServerHandle};
use nav_obs::ObsConfig;
use nav_par::rng::{seeded_rng, SplitMix64};
use std::sync::Arc;
use std::time::Instant;

/// The augmentation scheme a workload serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// `UniformScheme`, scalar sampler.
    Uniform,
    /// The paper's `BallScheme` with fresh per-step draws
    /// (`SamplerMode::Batched`).
    BallFresh,
    /// One `BallScheme::realize_batched` draw, served as fixed links.
    BallRealized,
}

/// How query targets are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Targets {
    /// Zipf(θ) over `hot` targets chosen once per seed.
    Zipf { theta: f64, hot: usize },
    /// Uniform over every node.
    Uniform,
}

/// What a connection sends before the timed window opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Warmup {
    /// One query per hot target (connection 0 only), so every hot row is
    /// resident when timing starts.
    HotPass,
    /// This many ordinary batches per connection.
    Batches(usize),
}

/// One workload's full configuration. Everything not named here is the
/// `EngineConfig`/`NetConfig` default.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub family: Family,
    pub n: usize,
    pub scheme: Scheme,
    pub shards: usize,
    pub targets: Targets,
    pub trials: usize,
    pub batch: usize,
    /// Row-cache budget per shard (`None` = the engine default).
    pub cache_bytes: Option<usize>,
    pub drop_prob: f64,
    /// Churn epochs of a `FailurePlan::standard` (0 = no churn).
    pub churn_epochs: u32,
    pub conns: usize,
    pub warmup: Warmup,
    /// The client round-trip percentile reported as `req_tail_ms`: p99
    /// where a run sends at least 1000 requests, p90 otherwise.
    pub tail: f64,
}

/// The benchmark's workloads (see the README for why each exists).
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "warm-zipf",
        family: Family::Gnp,
        n: 4096,
        scheme: Scheme::Uniform,
        shards: 1,
        targets: Targets::Zipf {
            theta: 1.1,
            hot: 1024,
        },
        trials: 4,
        batch: 64,
        cache_bytes: None,
        drop_prob: 0.0,
        churn_epochs: 0,
        conns: 2,
        warmup: Warmup::HotPass,
        tail: 0.99,
    },
    Spec {
        name: "cold-scan",
        family: Family::Gnp,
        n: 131_072,
        scheme: Scheme::Uniform,
        shards: 4,
        targets: Targets::Uniform,
        trials: 2,
        batch: 64,
        cache_bytes: Some(8 << 20),
        drop_prob: 0.0,
        churn_epochs: 0,
        conns: 1,
        warmup: Warmup::Batches(2),
        tail: 0.90,
    },
    Spec {
        name: "ball-fresh",
        family: Family::Gnp,
        n: 4096,
        scheme: Scheme::BallFresh,
        shards: 1,
        targets: Targets::Zipf {
            theta: 1.1,
            hot: 1024,
        },
        trials: 4,
        batch: 64,
        cache_bytes: None,
        drop_prob: 0.0,
        churn_epochs: 0,
        conns: 1,
        warmup: Warmup::HotPass,
        tail: 0.90,
    },
    Spec {
        name: "churn-realized",
        family: Family::Grid2d,
        n: 16_384,
        scheme: Scheme::BallRealized,
        shards: 1,
        targets: Targets::Zipf {
            theta: 1.1,
            hot: 1024,
        },
        trials: 4,
        batch: 256,
        cache_bytes: None,
        drop_prob: 0.1,
        churn_epochs: 8,
        conns: 1,
        warmup: Warmup::HotPass,
        tail: 0.90,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Every seed a run uses, derived from the one `--seed` argument so the
/// served program only ever sees generated inputs.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub graph: u64,
    pub engine: u64,
    pub realize: u64,
    pub fault: u64,
    pub targets: u64,
    streams: u64,
}

impl Seeds {
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Seeds {
            graph: sm.next(),
            engine: sm.next(),
            realize: sm.next(),
            fault: sm.next(),
            targets: sm.next(),
            streams: sm.next(),
        }
    }

    /// The source/target stream seed of connection `conn`.
    fn stream(&self, conn: usize) -> u64 {
        SplitMix64::new(self.streams ^ (conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next()
    }
}

/// The generated inputs a front is built from: the graph and, for a
/// realized scheme, its fixed links.
pub struct World {
    pub graph: Graph,
    realized: Option<Realization>,
}

/// Wall-clock of each set-up phase, milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub graph_ms: f64,
    pub scheme_ms: f64,
    pub engine_ms: f64,
}

/// A running loopback server and what it was built from.
pub struct Setup {
    pub world: World,
    pub server: ServerHandle,
    pub phases: Phases,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Spec {
    /// Per-batch sampler the requests carry.
    pub fn sampler(&self) -> SamplerMode {
        match self.scheme {
            Scheme::BallFresh => SamplerMode::Batched,
            Scheme::Uniform | Scheme::BallRealized => SamplerMode::Scalar,
        }
    }

    pub fn engine_config(&self, seeds: &Seeds, obs: ObsConfig) -> EngineConfig {
        let defaults = EngineConfig::default();
        EngineConfig {
            seed: seeds.engine,
            cache_bytes: self.cache_bytes.unwrap_or(defaults.cache_bytes),
            sampler: self.sampler(),
            fault: FaultConfig {
                drop_prob: self.drop_prob,
                plan: (self.churn_epochs > 0)
                    .then(|| FailurePlan::standard(seeds.fault, self.churn_epochs)),
            },
            obs,
            ..defaults
        }
    }

    /// Generates the graph and realizes the scheme, timing both.
    pub fn world(&self, seeds: &Seeds) -> (World, Phases) {
        let t = Instant::now();
        let graph = self
            .family
            .generate(self.n, &mut seeded_rng(seeds.graph))
            .expect("workload graph generates");
        let graph_ms = ms_since(t);
        let t = Instant::now();
        let realized = (self.scheme == Scheme::BallRealized).then(|| {
            BallScheme::new(&graph).realize_batched(
                &graph,
                seeds.realize,
                nav_par::default_threads(),
            )
        });
        let scheme_ms = ms_since(t);
        let phases = Phases {
            graph_ms,
            scheme_ms,
            ..Phases::default()
        };
        (World { graph, realized }, phases)
    }

    /// A boxed scheme for one engine shard.
    pub fn scheme_for(&self, world: &World) -> Box<dyn AugmentationScheme + Send> {
        match (self.scheme, &world.realized) {
            (Scheme::Uniform, _) => Box::new(UniformScheme),
            (Scheme::BallFresh, _) => Box::new(BallScheme::new(&world.graph)),
            (Scheme::BallRealized, Some(r)) => Box::new(r.clone()),
            (Scheme::BallRealized, None) => unreachable!("realized in Spec::world"),
        }
    }

    /// A fresh serving front over `world`.
    pub fn front(&self, world: &World, seeds: &Seeds, obs: ObsConfig) -> ShardedEngine {
        ShardedEngine::new(
            world.graph.clone(),
            || self.scheme_for(world),
            self.engine_config(seeds, obs),
            self.shards,
        )
    }

    /// Builds everything from the seed and starts a loopback server.
    pub fn setup(&self, seeds: &Seeds, obs: ObsConfig) -> Setup {
        let (world, mut phases) = self.world(seeds);
        let t = Instant::now();
        let front = self.front(&world, seeds, obs);
        phases.engine_ms = ms_since(t);
        let server = NetServer::bind_sharded(front, NetConfig::default(), "127.0.0.1:0")
            .and_then(NetServer::spawn)
            .expect("loopback server starts");
        Setup {
            world,
            server,
            phases,
        }
    }

    /// Warm-up batches connection `conn` sends before the timed window.
    pub fn warmup_batches(&self, conn: usize) -> usize {
        match (self.warmup, self.targets) {
            (Warmup::HotPass, Targets::Zipf { hot, .. }) if conn == 0 => hot.div_ceil(self.batch),
            (Warmup::HotPass, _) => 0,
            (Warmup::Batches(k), _) => k,
        }
    }

    /// The whole configuration as one JSON object.
    pub fn describe(&self) -> String {
        let targets = match self.targets {
            Targets::Zipf { theta, hot } => {
                format!("{{\"kind\": \"zipf\", \"theta\": {theta}, \"hot\": {hot}}}")
            }
            Targets::Uniform => "{\"kind\": \"uniform\"}".to_string(),
        };
        let warmup = match self.warmup {
            Warmup::HotPass => "\"hot-pass\"".to_string(),
            Warmup::Batches(k) => format!("{{\"batches\": {k}}}"),
        };
        let cfg = self.engine_config(&Seeds::new(0), ObsConfig::disabled());
        let net = NetConfig::default();
        format!(
            "{{\"name\": \"{}\", \"graph\": \"{}\", \"n\": {}, \"scheme\": \"{:?}\", \"sampler\": \"{}\", \"shards\": {}, \"targets\": {targets}, \"trials\": {}, \"batch\": {}, \"cache_bytes_per_shard\": {}, \"admission\": \"{}\", \"width_lanes\": {}, \"engine_threads\": {}, \"drop_prob\": {}, \"churn_epochs\": {}, \"churn_period\": {}, \"conns\": {}, \"warmup\": {warmup}, \"tail_percentile\": {}, \"net_workers\": {}, \"max_pending\": {}}}",
            self.name,
            self.family.name(),
            self.n,
            self.scheme,
            self.sampler().label(),
            self.shards,
            self.trials,
            self.batch,
            cfg.cache_bytes,
            cfg.admission.label(),
            cfg.width.lanes(),
            cfg.threads,
            self.drop_prob,
            self.churn_epochs,
            cfg.fault.plan.map_or(0, |p| p.period()),
            self.conns,
            self.tail * 100.0,
            net.workers,
            net.max_pending,
        )
    }
}

/// Where a stream's targets come from.
enum Pick {
    /// Hot targets by rank and their cumulative zipf weights.
    Zipf {
        targets: Vec<NodeId>,
        cum: Vec<f64>,
    },
    Uniform,
}

/// The hot-target table, shared by every connection of a run.
pub struct TargetTable {
    n: usize,
    pick: Pick,
}

impl TargetTable {
    pub fn new(spec: &Spec, n: usize, seeds: &Seeds) -> Arc<Self> {
        let pick = match spec.targets {
            Targets::Zipf { theta, hot } => {
                // Partial Fisher–Yates: the first `hot` entries of a
                // seeded shuffle are the hot set, in rank order.
                let mut rng = SplitMix64::new(seeds.targets);
                let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
                for i in 0..hot {
                    let j = i + below(&mut rng, n - i);
                    ids.swap(i, j);
                }
                ids.truncate(hot);
                let mut total = 0.0;
                let cum = (0..hot)
                    .map(|r| {
                        total += 1.0 / ((r + 1) as f64).powf(theta);
                        total
                    })
                    .collect();
                Pick::Zipf { targets: ids, cum }
            }
            Targets::Uniform => Pick::Uniform,
        };
        Arc::new(TargetTable { n, pick })
    }
}

/// Uniform integer in `0..bound` (multiply-shift; the bias is far below
/// anything a benchmark stream can show).
fn below(rng: &mut SplitMix64, bound: usize) -> usize {
    ((rng.next() as u128 * bound as u128) >> 64) as usize
}

/// One connection's request sequence: its warm-up batches, then an
/// endless seeded stream. A pure function of `(seed, conn)`, so the
/// reference regenerates exactly what was sent.
pub struct Plan {
    table: Arc<TargetTable>,
    rng: SplitMix64,
    trials: usize,
    batch: usize,
    /// Batches of the hot pass still to send.
    hot_left: usize,
    hot_next: usize,
}

impl Plan {
    pub fn new(spec: &Spec, seeds: &Seeds, table: Arc<TargetTable>, conn: usize) -> Self {
        Plan {
            table,
            rng: SplitMix64::new(seeds.stream(conn)),
            trials: spec.trials,
            batch: spec.batch,
            hot_left: match spec.warmup {
                Warmup::HotPass => spec.warmup_batches(conn),
                Warmup::Batches(_) => 0,
            },
            hot_next: 0,
        }
    }

    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The next request's queries.
    pub fn next_batch(&mut self) -> Vec<Query> {
        let table = Arc::clone(&self.table);
        let hot_pass = self.hot_left > 0;
        self.hot_left = self.hot_left.saturating_sub(1);
        (0..self.batch)
            .map(|_| {
                let t = match &table.pick {
                    // The hot pass walks the hot set in rank order.
                    Pick::Zipf { targets, .. } if hot_pass => {
                        self.hot_next += 1;
                        targets[(self.hot_next - 1) % targets.len()]
                    }
                    Pick::Zipf { targets, cum } => {
                        let total = cum[cum.len() - 1];
                        let x = (self.rng.next() >> 11) as f64 / (1u64 << 53) as f64 * total;
                        targets[cum.partition_point(|&c| c <= x).min(targets.len() - 1)]
                    }
                    Pick::Uniform => below(&mut self.rng, table.n) as NodeId,
                };
                let s = loop {
                    let s = below(&mut self.rng, table.n) as NodeId;
                    if s != t {
                        break s;
                    }
                };
                Query {
                    s,
                    t,
                    trials: self.trials,
                }
            })
            .collect()
    }
}
