//! `navbench` — the repository's end-to-end benchmark.
//!
//! One run boots a loopback `nav-net` server from the public
//! `nav-engine`/`nav-net` API, drives it in a closed loop for a fixed
//! number of seconds, checks every answer against an in-process
//! reference, and prints its metrics as the last line of standard
//! output. See `README.md` in this directory for the workloads and the
//! meaning of every metric.
//!
//! ```text
//! navbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with observability off.
//! `--trace 1` reports the per-layer metrics: it serves with the nav-obs
//! stages on, times its own calls into the wire functions, replays the
//! requests in-process, and runs the untraced measurement in a child
//! process to price the tracing.

mod check;
mod drive;
mod layers;
mod spec;
mod sys;

use check::{tally, Tally};
use drive::{Conn, Probes, Sample};
use nav_obs::ObsConfig;
use spec::{Phases, Plan, Seeds, Setup, Spec, TargetTable, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sys::{median, quantile};

/// Set-ups per run: at least `MIN_SETUPS`, more while they have taken
/// under `SETUP_BUDGET` together, at most `MAX_SETUPS`; `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Longest a run may take: past it the process exits non-zero without a
/// result rather than hang.
const WATCHDOG: Duration = Duration::from_secs(175);

const USAGE: &str = "usage: navbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("navbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::find(&args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "navbench: unknown workload {} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("navbench: no result within {WATCHDOG:?}");
        std::process::exit(3);
    });
    run(spec, &args, started);
    ExitCode::SUCCESS
}

/// Builds the world and server repeatedly (see `MIN_SETUPS`), keeping
/// the last. The first set-up is timed from process start, the rest from
/// their own start; each earlier server is shut down before the next is
/// built.
fn setup_repeated(
    spec: &Spec,
    seeds: &Seeds,
    obs: ObsConfig,
    started: Instant,
) -> (Setup, Vec<f64>, Vec<Phases>) {
    let mut times = Vec::new();
    let mut phases = Vec::new();
    let mut last: Option<Setup> = None;
    let mut spent = Duration::ZERO;
    while times.len() < MIN_SETUPS || (spent < SETUP_BUDGET && times.len() < MAX_SETUPS) {
        if let Some(prev) = last.take() {
            prev.server.shutdown();
        }
        let t0 = if times.is_empty() {
            started
        } else {
            Instant::now()
        };
        let setup = spec.setup(seeds, obs);
        let took = t0.elapsed();
        spent += took;
        times.push(took.as_secs_f64());
        phases.push(setup.phases);
        last = Some(setup);
    }
    (last.expect("at least one set-up"), times, phases)
}

fn run(spec: &Spec, args: &Args, started: Instant) {
    let seeds = Seeds::new(args.seed);
    let obs = if args.trace {
        ObsConfig::default()
    } else {
        ObsConfig::disabled()
    };
    let (Setup { world, server, .. }, setup_s, phases) = setup_repeated(spec, &seeds, obs, started);
    let addr = server.addr();
    let table = TargetTable::new(spec, world.graph.num_nodes(), &seeds);
    let mut conns: Vec<Conn> = (0..spec.conns)
        .map(|c| {
            let plan = Plan::new(spec, &seeds, Arc::clone(&table), c);
            Conn::connect(addr, plan, spec.sampler(), args.trace)
        })
        .collect();
    for (c, conn) in conns.iter_mut().enumerate() {
        conn.warm_up(spec.warmup_batches(c));
    }
    let window = drive::timed(&mut conns, args.seconds);
    let peak_rss_mb = sys::peak_rss_mb();
    let server_side = args
        .trace
        .then(|| layers::ServerSide::pull(&mut conns, addr));
    server.shutdown();

    let mut warm = Tally::default();
    let mut timed = Tally::default();
    for (c, conn) in conns.iter().enumerate() {
        let want = check::reference(spec, &world, &seeds, &table, c, conn.requests());
        let (w, t) = want.split_at(conn.warm.len());
        warm.add(tally(conn.warm.iter().copied(), w));
        timed.add(tally(conn.timed.iter().map(|s| s.digest), t));
    }
    let queries: u64 = conns.iter().map(Conn::answered_timed).sum();
    let mut done: Vec<Sample> = conns.iter().flat_map(|c| c.timed.iter().copied()).collect();
    done.sort_by_key(|s| s.at);
    let batch = spec.batch as u64;
    let subs = sub_windows(
        &done,
        batch,
        window.start,
        SUB_WINDOWS,
        spec.tail,
        &window.probes,
    );
    // Each tail sub-window keeps at least 10 samples beyond the percentile.
    let tail_windows =
        ((done.len() as f64 * (1.0 - spec.tail) / 10.0) as usize).clamp(1, SUB_WINDOWS);
    let tail_subs = sub_windows(
        &done,
        batch,
        window.start,
        tail_windows,
        spec.tail,
        &window.probes,
    );
    let calm = calmest(&subs);
    let qps = median(&calm.iter().map(|s| s.qps).collect::<Vec<_>>());
    let p50_ms = median(&calm.iter().map(|s| s.p50_us).collect::<Vec<_>>()) / 1e3;
    let tail_ms = median(
        &calmest(&tail_subs)
            .iter()
            .map(|s| s.tail_us)
            .collect::<Vec<_>>(),
    ) / 1e3;
    // CPU time ticks at 10 ms, so it is summed over the calm sub-windows
    // before dividing rather than taken as a median of coarse ratios.
    let cpu_us_per_query = calm.iter().map(|s| s.cpu_s).sum::<f64>() * 1e6
        / calm.iter().map(|s| s.queries).sum::<f64>();
    let steal_frac = window
        .probes
        .steal_share(window.start, done[done.len() - 1].at);

    let mut all = warm;
    all.add(timed);
    let mut phase_json = format!("\"warmup\": {}", warm.json());
    let (metrics, child_ok) = match server_side {
        None => {
            phase_json.push_str(&format!(", \"timed\": {}", timed.json()));
            let metrics = vec![
                Metric::new("qps", qps, "1/s"),
                Metric::new("req_p50_ms", p50_ms, "ms"),
                Metric::new("req_tail_ms", tail_ms, "ms"),
                Metric::new("ok_frac", all.ok as f64 / all.sent as f64, "frac"),
                Metric::new("setup_s", median(&setup_s), "s"),
                Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
                Metric::new("cpu_us_per_query", cpu_us_per_query, "us"),
            ];
            (metrics, true)
        }
        Some(server_side) => {
            phase_json.push_str(&format!(", \"traced\": {}", timed.json()));
            let mut metrics =
                layers::metrics(spec, &world, &seeds, &table, &conns, &server_side, &phases);
            drop((world, conns, server_side));
            let child = untraced_child(args);
            phase_json.push_str(&format!(
                ", \"untraced_child\": {{\"sent\": {}, \"failed\": {}, \"correct\": {}}}",
                child.attempted, child.failed, child.correct
            ));
            all.sent += child.attempted;
            all.failed += child.failed;
            metrics.push(Metric::new(
                "obs.overhead_frac",
                1.0 - qps / child.qps,
                "frac",
            ));
            (metrics, child.correct)
        }
    };

    println!(
        "{{\"navbench\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \"nproc\": {}, \"host\": {}, \"frame_version\": {}, \"snapshot_version\": {}, \"lane_width\": {}, \"phases\": {{{phase_json}}}, \"failed_frac\": {}, \"tail\": {{\"percentile\": {}, \"samples\": {}, \"sub_windows\": {tail_windows}}}, \"window_s\": {}, \"host_steal_frac\": {}, \"queries\": {}, \"setup_s_samples\": {:?}}}}}",
        spec.describe(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::git_rev(),
        sys::nproc(),
        nav_par::HostMeta::current().to_json(),
        nav_net::frame::VERSION,
        nav_store::SNAPSHOT_VERSION,
        nav_graph::msbfs::LaneWidth::default().lanes(),
        all.failed as f64 / all.sent as f64,
        spec.tail * 100.0,
        done.len(),
        window.seconds,
        steal_frac,
        queries,
        setup_s,
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        all.failed == 0 && child_ok,
        all.sent,
        all.failed,
        body.join(", ")
    );
}

/// Most sub-windows the timed window is cut into.
const SUB_WINDOWS: usize = 100;

/// One sub-window: a run of consecutively completed requests, timed from
/// the previous run's last answer, with the host steal during it.
struct Sub {
    queries: f64,
    qps: f64,
    p50_us: f64,
    tail_us: f64,
    cpu_s: f64,
    steal: f64,
}

/// Cuts the completed requests into at most `groups` sub-windows.
fn sub_windows(
    done: &[Sample],
    batch: u64,
    start: Instant,
    groups: usize,
    q: f64,
    probes: &Probes,
) -> Vec<Sub> {
    let mut from = start;
    done.chunks(done.len().div_ceil(groups))
        .map(|chunk| {
            let to = chunk[chunk.len() - 1].at;
            let answered = chunk.iter().filter(|s| s.digest.is_some()).count() as u64;
            let queries = (answered * batch) as f64;
            let lat: Vec<f64> = chunk.iter().map(|s| s.lat_us).collect();
            let sub = Sub {
                queries,
                qps: queries / (to - from).as_secs_f64(),
                p50_us: median(&lat),
                tail_us: quantile(&lat, q),
                cpu_s: probes.cpu_s(from, to),
                steal: probes.steal_share(from, to),
            };
            from = to;
            sub
        })
        .collect()
}

/// The quarter of the sub-windows in which the hypervisor withheld the
/// least host CPU: steal from outside the process then drops out instead
/// of moving the figures taken over them.
fn calmest(subs: &[Sub]) -> Vec<&Sub> {
    let mut calm: Vec<&Sub> = subs.iter().collect();
    calm.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    calm.truncate(calm.len().div_ceil(4));
    calm
}

/// The end-to-end result of an untraced run of the same workload and
/// seed, taken in a fresh process so the comparison is like for like.
struct Child {
    qps: f64,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn untraced_child(args: &Args) -> Child {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .expect("run the untraced child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let field = |key: &str| -> Option<&str> {
        let at = last.find(key)? + key.len();
        let rest = &last[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let num = |key: &str| field(key).and_then(|v| v.trim().parse::<f64>().ok());
    match (
        out.status.success(),
        num("\"qps\": {\"value\": "),
        num("\"attempted\": "),
        num("\"failed\": "),
    ) {
        (true, Some(qps), Some(attempted), Some(failed)) => Child {
            qps,
            attempted: attempted as u64,
            failed: failed as u64,
            correct: field("\"correct\": ") == Some("true"),
        },
        _ => panic!("untraced child failed: {}\n{stdout}", out.status),
    }
}
