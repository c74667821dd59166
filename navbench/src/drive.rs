//! The closed-loop client side: every connection waits for each reply
//! before it sends its next request, as every client this repository
//! ships does.

use crate::spec::Plan;
use crate::sys::{cpu_seconds, digest, host_steal_ticks};
use nav_core::sampler::SamplerMode;
use nav_net::frame::DEFAULT_MAX_PAYLOAD;
use nav_net::{
    read_frame, read_frame_timed, write_frame, Frame, NetClient, Request, StatsReply, StatsRequest,
};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client-side spans summed over every request (traced runs only).
#[derive(Clone, Copy, Debug, Default)]
pub struct Spans {
    /// `Frame::encode` of each request.
    pub encode_us: f64,
    /// Response payload decode inside `read_frame_timed`.
    pub decode_us: f64,
    /// From the first byte written to the last response byte read:
    /// the request's wall time minus the client's own encode/decode.
    pub rtt_us: f64,
    /// Request plus response frame bytes, headers included.
    pub bytes: u64,
}

/// Counts the bytes the frame reader consumes.
struct Counting<R> {
    inner: R,
    bytes: u64,
}

impl<R: Read> Read for Counting<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

enum Client {
    /// The shipped blocking client (end-to-end runs).
    Plain(NetClient),
    /// The same exchange as `NetClient::request`, spelled out through
    /// the public frame functions so each call can be timed.
    Traced {
        reader: Counting<BufReader<TcpStream>>,
        writer: BufWriter<TcpStream>,
    },
}

/// One timed request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the answer arrived.
    pub at: Instant,
    /// Client round trip, microseconds.
    pub lat_us: f64,
    /// Answer digest (`None` = no answer).
    pub digest: Option<u64>,
}

/// One client connection with its request plan and what it observed.
pub struct Conn {
    /// `None` once hung up.
    client: Option<Client>,
    plan: Plan,
    sampler: SamplerMode,
    rng_base: u64,
    /// Answer digests of the warm-up requests (`None` = no answer).
    pub warm: Vec<Option<u64>>,
    pub timed: Vec<Sample>,
    pub spans: Spans,
}

impl Conn {
    pub fn connect(addr: SocketAddr, plan: Plan, sampler: SamplerMode, traced: bool) -> Self {
        let client = if traced {
            let stream = TcpStream::connect(addr).expect("connect to loopback server");
            stream.set_nodelay(true).expect("set TCP_NODELAY");
            let reader = BufReader::new(stream.try_clone().expect("clone stream"));
            Client::Traced {
                reader: Counting {
                    inner: reader,
                    bytes: 0,
                },
                writer: BufWriter::new(stream),
            }
        } else {
            Client::Plain(NetClient::connect(addr).expect("connect to loopback server"))
        };
        Conn {
            client: Some(client),
            plan,
            sampler,
            rng_base: 0,
            warm: Vec::new(),
            timed: Vec::new(),
            spans: Spans::default(),
        }
    }

    /// Sends the next request of the plan and waits for its answer.
    /// Returns the answer digest (`None` on any error or a short answer).
    fn call(&mut self) -> Option<u64> {
        let queries = self.plan.next_batch();
        let len = queries.len();
        let req = Request {
            handle: 0,
            rng_base: self.rng_base,
            sampler: self.sampler,
            queries,
        };
        self.rng_base += len as u64;
        let answers = match self.client.as_mut().expect("connection is open") {
            Client::Plain(c) => c.request(req).ok().map(|(a, _)| a),
            Client::Traced { reader, writer } => {
                let t0 = Instant::now();
                let bytes = Frame::Request(req).encode();
                let t1 = Instant::now();
                reader.bytes = 0;
                let read = writer
                    .write_all(&bytes)
                    .and_then(|()| writer.flush())
                    .ok()
                    .and_then(|()| read_frame_timed(reader, DEFAULT_MAX_PAYLOAD, None).ok());
                let t2 = Instant::now();
                match read {
                    Some(Some((Frame::Response(resp), timing))) => {
                        let decode_us = timing.decode_ms * 1e3;
                        self.spans.encode_us += us(t1 - t0);
                        self.spans.decode_us += decode_us;
                        self.spans.rtt_us += us(t2 - t1) - decode_us;
                        self.spans.bytes += bytes.len() as u64 + reader.bytes;
                        Some(resp.answers)
                    }
                    _ => None,
                }
            }
        };
        answers.filter(|a| a.len() == len).map(|a| digest(&a))
    }

    /// Sends `batches` requests outside the timed window.
    pub fn warm_up(&mut self, batches: usize) {
        for _ in 0..batches {
            let d = self.call();
            self.warm.push(d);
        }
    }

    /// Requests sent so far, warm-up included.
    pub fn requests(&self) -> usize {
        self.warm.len() + self.timed.len()
    }

    fn run_until(&mut self, start: Instant, seconds: f64) -> Instant {
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut now = Instant::now();
        while now < deadline {
            let digest = self.call();
            let at = Instant::now();
            self.timed.push(Sample {
                at,
                lat_us: us(at - now),
                digest,
            });
            now = at;
        }
        now
    }

    /// Queries per request.
    fn batch(&self) -> u64 {
        self.plan.batch() as u64
    }

    /// Queries answered in the timed window.
    pub fn answered_timed(&self) -> u64 {
        self.timed.iter().filter(|s| s.digest.is_some()).count() as u64 * self.batch()
    }

    /// Queries answered so far, warm-up included.
    pub fn answered_total(&self) -> u64 {
        self.answered_timed() + self.warm.iter().flatten().count() as u64 * self.batch()
    }

    /// Asks for the server's `Stats` frame over this (traced) connection.
    /// The server gives each connection a worker until it closes, so an
    /// extra ops connection could wait behind busy workers forever.
    pub fn stats(&mut self) -> StatsReply {
        let Some(Client::Traced { reader, writer }) = self.client.as_mut() else {
            panic!("stats are pulled over a traced connection");
        };
        write_frame(writer, &Frame::StatsRequest(StatsRequest { handle: 0 }))
            .expect("send stats request");
        match read_frame(reader, DEFAULT_MAX_PAYLOAD) {
            Ok(Some(Frame::Stats(reply))) => reply,
            other => panic!("expected a stats frame, got {other:?}"),
        }
    }

    /// Closes the connection, freeing its server worker.
    pub fn hang_up(&mut self) {
        self.client = None;
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// How often the probes are sampled during the window.
const PROBE_PERIOD: Duration = Duration::from_millis(20);

/// One reading of the host's steal counter and this process's CPU time.
#[derive(Clone, Copy, Debug)]
struct Probe {
    at: Instant,
    steal_ticks: u64,
    host_ticks: u64,
    cpu_s: f64,
}

impl Probe {
    fn now() -> Self {
        let (steal_ticks, host_ticks) = host_steal_ticks();
        Probe {
            at: Instant::now(),
            steal_ticks,
            host_ticks,
            cpu_s: cpu_seconds(),
        }
    }
}

/// Probes taken through the timed window, oldest first.
pub struct Probes(Vec<Probe>);

impl Probes {
    /// The nearest probes at or before `a` and at or after `b`.
    fn around(&self, a: Instant, b: Instant) -> (Probe, Probe) {
        let v = &self.0;
        (
            v[v.partition_point(|p| p.at <= a).saturating_sub(1)],
            v[v.partition_point(|p| p.at < b).min(v.len() - 1)],
        )
    }

    /// Share of the host's CPU time the hypervisor withheld (steal)
    /// between `a` and `b`.
    pub fn steal_share(&self, a: Instant, b: Instant) -> f64 {
        let (p, q) = self.around(a, b);
        let host = q.host_ticks.saturating_sub(p.host_ticks);
        if host == 0 {
            0.0
        } else {
            q.steal_ticks.saturating_sub(p.steal_ticks) as f64 / host as f64
        }
    }

    /// Process user + system CPU seconds between `a` and `b`.
    pub fn cpu_s(&self, a: Instant, b: Instant) -> f64 {
        let (p, q) = self.around(a, b);
        q.cpu_s - p.cpu_s
    }
}

/// The timed window as observed from the client process.
pub struct Window {
    pub start: Instant,
    /// From the common start to the last connection's last answer.
    pub seconds: f64,
    pub probes: Probes,
}

/// Drives every connection in a closed loop on its own thread, all from
/// one common start, until `seconds` have passed; a request in flight at
/// the deadline completes and counts. A probe thread samples host steal
/// and process CPU every `PROBE_PERIOD` meanwhile.
pub fn timed(conns: &mut [Conn], seconds: f64) -> Window {
    let barrier = Barrier::new(conns.len() + 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    c.run_until(Instant::now(), seconds)
                })
            })
            .collect();
        let first = Probe::now();
        barrier.wait();
        let start = Instant::now();
        let stop = &stop;
        let prober = scope.spawn(move || {
            let mut probes = vec![first];
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(PROBE_PERIOD);
                probes.push(Probe::now());
            }
            probes
        });
        let end = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .max()
            .expect("at least one connection");
        stop.store(true, Ordering::Relaxed);
        let mut probes = prober.join().expect("probe thread panicked");
        probes.push(Probe::now());
        Window {
            start,
            seconds: (end - start).as_secs_f64(),
            probes: Probes(probes),
        }
    })
}
