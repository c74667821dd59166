//! The correctness gate. Every answer is compared, bit for bit (via its
//! digest), with a reference computed from the public in-process API over
//! the same (pair, RNG index) sequence, after the timed window closes.

use crate::spec::{Plan, Scheme, Seeds, Spec, TargetTable, World};
use crate::sys::digest;
use nav_core::trial::{run_trials, TrialConfig};
use nav_engine::{Query, QueryBatch};
use nav_obs::ObsConfig;
use std::sync::Arc;

/// Requests sent, answered correctly, and failed (errored, refused, or
/// any answer differing from the reference) in one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"sent\": {}, \"ok\": {}, \"failed\": {}}}",
            self.sent, self.ok, self.failed
        )
    }
}

/// Digests of the first `requests` answers connection `conn` must get.
///
/// Fault-free uniform and fresh-ball serving is checked against
/// `run_trials`, whose query `i` runs on RNG index `i` exactly as the
/// connection's `rng_base` stamps it. Under faults or a realized scheme
/// `run_trials` does not apply, so the reference is a fresh in-process
/// front serving the same requests at the same RNG indices.
pub fn reference(
    spec: &Spec,
    world: &World,
    seeds: &Seeds,
    table: &Arc<TargetTable>,
    conn: usize,
    requests: usize,
) -> Vec<u64> {
    let mut plan = Plan::new(spec, seeds, Arc::clone(table), conn);
    let batches: Vec<Vec<Query>> = (0..requests).map(|_| plan.next_batch()).collect();
    let faulty = spec.drop_prob > 0.0 || spec.churn_epochs > 0;
    if spec.scheme == Scheme::BallRealized || faulty {
        let mut front = spec.front(world, seeds, ObsConfig::disabled());
        let mut base = 0u64;
        return batches
            .into_iter()
            .map(|queries| {
                let batch = QueryBatch { queries };
                let answers = front
                    .serve_at(&batch, base, spec.sampler())
                    .expect("generated endpoints are valid")
                    .answers;
                base += batch.len() as u64;
                digest(&answers)
            })
            .collect();
    }
    let pairs: Vec<_> = batches.iter().flatten().map(|q| (q.s, q.t)).collect();
    let cfg = spec.engine_config(seeds, ObsConfig::disabled());
    let scheme = spec.scheme_for(world);
    let result = run_trials(
        &world.graph,
        scheme.as_ref(),
        &pairs,
        &TrialConfig {
            trials_per_pair: spec.trials,
            seed: cfg.seed,
            threads: cfg.threads,
            sampler: cfg.sampler,
            width: cfg.width,
        },
    )
    .expect("generated endpoints are valid");
    let mut at = 0;
    batches
        .iter()
        .map(|b| {
            at += b.len();
            digest(&result.pairs[at - b.len()..at])
        })
        .collect()
}

/// Scores observed digests against the reference, request by request.
pub fn tally(got: impl ExactSizeIterator<Item = Option<u64>>, want: &[u64]) -> Tally {
    let sent = got.len() as u64;
    let ok = got.zip(want).filter(|(g, w)| *g == Some(**w)).count() as u64;
    Tally {
        sent,
        ok,
        failed: sent - ok,
    }
}
