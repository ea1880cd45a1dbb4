//! Serving: start the HTTP front end over a saved bundle (monolithic, or a
//! router over in-process shard servers), drive it with the open-loop
//! generator, diff the server's own metrics around each phase, and check
//! its answers against in-process inference.

use crate::loadgen::{request_once, LoadGen, Phase, Request};
use crate::pipeline::timed;
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use topmine_obs::{bucket_bounds, HistogramSnapshot, Registry, N_BUCKETS};
use topmine_serve::metrics::fleet_shard_metrics;
use topmine_serve::{
    load_bundle, serve_metrics, HttpServer, InferConfig, ModelBackend, PoolConfig, QueryEngine,
    RemoteShardedModel, ServerConfig, ServerHandle, ShardServer, ShardServerHandle, ShardSlice,
    Stage,
};

/// Client connections of the load generator (one per core of the 2-CPU
/// reference machine).
pub const CONNECTIONS: usize = 2;

/// A running server and what it serves.
pub struct Server {
    pub addr: SocketAddr,
    pub engine: Arc<QueryEngine>,
    http: ServerHandle,
    shards: Vec<ShardServerHandle>,
}

impl Server {
    pub fn stop(self) {
        self.http.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// Load the bundle in `dir` and start serving it: for `shards > 1`, one
/// in-process shard server per shard behind a router. Returns the server,
/// the set-up time up to the first successful `/healthz`, and the part of
/// it spent reading the bundle.
pub fn start(dir: &Path, shards: usize, tracer: &Tracer) -> (Server, f64, f64) {
    let start = Instant::now();
    let mut load_s = 0.0;
    let mut handles = Vec::new();
    let backend: Arc<dyn ModelBackend> = if shards > 1 {
        let mut addrs = Vec::new();
        for k in 0..shards {
            let (slice, t) = timed(tracer, "serve.load", || ShardSlice::load(dir, k));
            load_s += t;
            let handle = tracer.span("fleet.shard_start", || {
                ShardServer::bind("127.0.0.1:0", slice.expect("load shard slice"))
                    .and_then(ShardServer::spawn)
                    .expect("start shard server")
            });
            addrs.push(handle.addr().to_string());
            handles.push(handle);
        }
        let (remote, t) = timed(tracer, "fleet.connect", || {
            RemoteShardedModel::connect(dir, &addrs, PoolConfig::default())
        });
        load_s += t;
        Arc::new(remote.expect("connect router to shards"))
    } else {
        let (backend, t) = timed(tracer, "serve.load", || load_bundle(dir));
        load_s += t;
        backend.expect("load bundle")
    };
    let engine = Arc::new(QueryEngine::new(backend, 1));
    let http = tracer.span("serve.http_start", || {
        HttpServer::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default())
            .and_then(HttpServer::spawn)
            .expect("start HTTP server")
    });
    let addr = http.addr();
    tracer.span("serve.healthz", || wait_healthy(addr));
    let setup_s = start.elapsed().as_secs_f64();
    let server = Server {
        addr,
        engine,
        http,
        shards: handles,
    };
    (server, setup_s, load_s)
}

fn wait_healthy(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while request_once(addr, "GET", "/healthz", "").0 != 200 {
        assert!(Instant::now() < deadline, "server never became healthy");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Total size of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

// ----- requests -------------------------------------------------------------

/// How requests are drawn from the document pool, one document per
/// `/infer`.
#[derive(Clone, Copy)]
pub enum Mix {
    /// The next document of the pool, cycling: no document repeats within
    /// a pool's length.
    Unique,
    /// Zipf popularity of exponent `s`: the document at pool position `r`
    /// (from 1) with probability proportional to `r^-s`.
    Zipf(f64),
}

/// A deterministic stream of requests over a document pool.
pub struct RequestStream<'a> {
    pool: &'a [String],
    /// Cumulative Zipf probabilities over the pool (empty for `Unique`).
    cdf: Vec<f64>,
    rng: u64,
    cursor: usize,
}

impl<'a> RequestStream<'a> {
    pub fn new(pool: &'a [String], mix: Mix, seed: u64) -> Self {
        assert!(!pool.is_empty(), "empty query pool");
        let cdf = match mix {
            Mix::Unique => Vec::new(),
            Mix::Zipf(s) => {
                let weights: Vec<f64> = (1..=pool.len()).map(|r| (r as f64).powf(-s)).collect();
                let total: f64 = weights.iter().sum();
                weights
                    .iter()
                    .scan(0.0, |acc, w| {
                        *acc += w / total;
                        Some(*acc)
                    })
                    .collect()
            }
        };
        Self {
            pool,
            cdf,
            rng: seed,
            cursor: 0,
        }
    }

    /// The next `n` requests, with the pool index each one carries.
    pub fn take(&mut self, n: usize) -> (Vec<Request>, Vec<usize>) {
        (0..n)
            .map(|_| {
                let doc = if self.cdf.is_empty() {
                    let doc = self.cursor;
                    self.cursor = (self.cursor + 1) % self.pool.len();
                    doc
                } else {
                    let u = unit(&mut self.rng);
                    self.cdf
                        .partition_point(|&c| c < u)
                        .min(self.pool.len() - 1)
                };
                (Request::post("/infer", &self.pool[doc]), doc)
            })
            .unzip()
    }
}

/// SplitMix64 step mapped to `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

// ----- server-side metric diffs ----------------------------------------------

/// A point-in-time copy of the server metrics one phase is judged by.
pub struct RegistrySnap {
    stages: Vec<HistogramSnapshot>,
    route: HistogramSnapshot,
    batch_docs: HistogramSnapshot,
    rejected: u64,
    expired: u64,
    hits: u64,
    misses: u64,
    rpc: HistogramSnapshot,
    /// frames sent, bytes sent + received, retries, failures
    wire: [u64; 4],
}

/// What the server recorded between two snapshots, as raw totals so the
/// sub-phases of one rate add up.
#[derive(Clone)]
pub struct ServerDiff {
    /// Nanoseconds spent in each `Stage::ALL` stage.
    pub stage_ns: [u64; 5],
    /// Server-side handling time (dispatch through response write).
    pub route_ns: u64,
    pub requests: u64,
    pub batches: u64,
    pub batch_docs: u64,
    pub rejected: u64,
    pub expired: u64,
    pub hits: u64,
    pub misses: u64,
    /// Fleet RPC round trips per log₂ nanosecond bucket.
    pub rpc_buckets: [u64; N_BUCKETS],
    pub frames: u64,
    pub bytes: u64,
    pub retries: u64,
    pub failures: u64,
}

impl Default for ServerDiff {
    fn default() -> Self {
        Self {
            stage_ns: [0; 5],
            route_ns: 0,
            requests: 0,
            batches: 0,
            batch_docs: 0,
            rejected: 0,
            expired: 0,
            hits: 0,
            misses: 0,
            rpc_buckets: [0; N_BUCKETS],
            frames: 0,
            bytes: 0,
            retries: 0,
            failures: 0,
        }
    }
}

impl ServerDiff {
    pub fn add(&mut self, o: &ServerDiff) {
        for (a, b) in self.stage_ns.iter_mut().zip(o.stage_ns) {
            *a += b;
        }
        for (a, b) in self.rpc_buckets.iter_mut().zip(o.rpc_buckets) {
            *a += b;
        }
        self.route_ns += o.route_ns;
        self.requests += o.requests;
        self.batches += o.batches;
        self.batch_docs += o.batch_docs;
        self.rejected += o.rejected;
        self.expired += o.expired;
        self.hits += o.hits;
        self.misses += o.misses;
        self.frames += o.frames;
        self.bytes += o.bytes;
        self.retries += o.retries;
        self.failures += o.failures;
    }

    /// Mean milliseconds per request of `total_ns`.
    pub fn per_request_ms(&self, total_ns: u64) -> f64 {
        total_ns as f64 / 1e6 / self.requests.max(1) as f64
    }

    pub fn batch_docs_mean(&self) -> f64 {
        self.batch_docs as f64 / self.batches.max(1) as f64
    }

    /// Quantile of the fleet RPC round trips in ms (log₂ buckets,
    /// interpolated inside the bucket).
    pub fn rpc_ms(&self, q: f64) -> f64 {
        let n: u64 = self.rpc_buckets.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0;
        for (i, &c) in self.rpc_buckets.iter().enumerate() {
            if c > 0 && cum + c >= target {
                let (lo, hi) = bucket_bounds(i);
                let frac = (target - cum) as f64 / c as f64;
                return (lo as f64 + frac * (hi - lo) as f64) / 1e6;
            }
            cum += c;
        }
        0.0
    }
}

pub fn snapshot(server: &Server) -> RegistrySnap {
    let m = serve_metrics();
    let route_hist = Registry::global().histogram(
        "topmine_http_request_seconds",
        "",
        &[("route", "/infer")],
        1e-9,
    );
    let mut rpc = HistogramSnapshot::empty();
    let mut wire = [0u64; 4];
    for k in 0..server.shards.len() {
        let f = fleet_shard_metrics(k);
        rpc.merge(&f.rpc_seconds.snapshot());
        wire[0] += f.frames_sent.get();
        wire[1] += f.bytes_sent.get() + f.bytes_received.get();
        wire[2] += f.retries.get();
        wire[3] += f.failures.get();
    }
    let cache = server.engine.cache_stats();
    RegistrySnap {
        stages: Stage::ALL.iter().map(|&s| m.stage(s).snapshot()).collect(),
        route: route_hist.snapshot(),
        batch_docs: m.dispatch_batch_docs.snapshot(),
        rejected: m.requests_rejected_total.get(),
        expired: m.requests_expired_total.get(),
        hits: cache.hits,
        misses: cache.misses,
        rpc,
        wire,
    }
}

pub fn diff(a: &RegistrySnap, b: &RegistrySnap) -> ServerDiff {
    let delta =
        |x: &HistogramSnapshot, y: &HistogramSnapshot| (y.count() - x.count(), y.sum() - x.sum());
    let mut stage_ns = [0; 5];
    for (i, (x, y)) in a.stages.iter().zip(&b.stages).enumerate() {
        stage_ns[i] = delta(x, y).1;
    }
    let mut rpc_buckets = [0; N_BUCKETS];
    for (i, c) in rpc_buckets.iter_mut().enumerate() {
        *c = b.rpc.bucket_counts()[i] - a.rpc.bucket_counts()[i];
    }
    let (requests, route_ns) = delta(&a.route, &b.route);
    let (batches, batch_docs) = delta(&a.batch_docs, &b.batch_docs);
    ServerDiff {
        stage_ns,
        route_ns,
        requests,
        batches,
        batch_docs,
        rejected: b.rejected - a.rejected,
        expired: b.expired - a.expired,
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        rpc_buckets,
        frames: b.wire[0] - a.wire[0],
        bytes: b.wire[1] - a.wire[1],
        retries: b.wire[2] - a.wire[2],
        failures: b.wire[3] - a.wire[3],
    }
}

// ----- phases -----------------------------------------------------------------

/// The frozen rates and latency limit of one serving workload.
pub struct Rates {
    pub low: f64,
    pub high: f64,
    pub p99_limit_ms: f64,
    pub ladder: Vec<f64>,
    /// Requests per sub-phase. A run makes at least three sub-phases per
    /// rate; their median p50 is reported, and the p99 over all of them
    /// (at least 1000 requests, so 10 lie beyond it).
    pub phase_requests: usize,
}

/// Requests per ladder probe, so its p99 has 10 samples beyond it.
const PROBE_REQUESTS: usize = 1000;

/// One measured sub-phase with the requests it sent and the server's view.
pub struct Measured {
    pub phase: Phase,
    /// CPU time the process spent outside the load generator during the
    /// phase — the server's cost of answering it — in seconds.
    pub server_cpu_s: f64,
    /// Pool index of each request's document.
    pub docs: Vec<usize>,
    pub server: ServerDiff,
}

/// Sub-phases at one fixed rate.
pub struct Fixed(pub Vec<Measured>);

impl Fixed {
    /// Median across sub-phases of each one's median latency: one stall
    /// of the machine moves one sub-phase, not the figure.
    pub fn p50_ms(&self) -> f64 {
        let per: Vec<f64> = self.0.iter().map(|m| m.phase.latency_q(0.5)).collect();
        crate::report::median(&per)
    }

    /// Server CPU time per answered request over all sub-phases, in
    /// microseconds.
    pub fn cpu_us_per_request(&self) -> f64 {
        let cpu_s: f64 = self.0.iter().map(|m| m.server_cpu_s).sum();
        let ok: usize = self.0.iter().map(|m| m.phase.ok).sum();
        cpu_s * 1e6 / ok.max(1) as f64
    }

    /// Latency quantile `q` over every request of every sub-phase.
    pub fn pooled_ms(&self, q: f64) -> f64 {
        crate::report::quantile(&self.latencies_ms(), q)
    }

    pub fn server(&self) -> ServerDiff {
        let mut total = ServerDiff::default();
        for m in &self.0 {
            total.add(&m.server);
        }
        total
    }

    pub fn late_ms(&self) -> Vec<f64> {
        self.0
            .iter()
            .flat_map(|m| m.phase.late_ms.iter().copied())
            .collect()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.0
            .iter()
            .flat_map(|m| m.phase.latencies_ms.iter().copied())
            .collect()
    }

    pub fn busy_share(&self) -> f64 {
        let per: Vec<f64> = self.0.iter().map(|m| m.phase.busy_share).collect();
        crate::report::mean(&per)
    }

    pub fn achieved_rps(&self) -> f64 {
        let ok: usize = self.0.iter().map(|m| m.phase.ok).sum();
        let wall: f64 = self.0.iter().map(|m| m.phase.wall_s).sum();
        ok as f64 / wall.max(1e-9)
    }
}

pub struct ServeRun {
    /// Unmeasured warm-up phases, counted only for failures and checks.
    pub warmup: Vec<Measured>,
    pub low: Fixed,
    pub high: Fixed,
    pub ladder: Vec<Measured>,
    pub max_rps: f64,
}

impl ServeRun {
    pub fn phases(&self) -> impl Iterator<Item = &Measured> {
        self.warmup
            .iter()
            .chain(self.low.0.iter())
            .chain(self.high.0.iter())
            .chain(self.ladder.iter())
    }
}

/// Runs load phases against one server and diffs its metrics around each.
pub struct PhaseRunner<'a> {
    server: &'a Server,
    stream: RequestStream<'a>,
    gen: LoadGen,
    tracer: &'a Tracer,
}

impl<'a> PhaseRunner<'a> {
    pub fn new(
        server: &'a Server,
        stream: RequestStream<'a>,
        sample_every: usize,
        tracer: &'a Tracer,
    ) -> Self {
        Self {
            server,
            stream,
            gen: LoadGen::new(server.addr, CONNECTIONS, sample_every),
            tracer,
        }
    }

    /// Send the next `count` requests of the stream at `rate`.
    pub fn phase(&mut self, count: usize, rate: f64, name: &'static str) -> Measured {
        let (requests, docs) = self.stream.take(count);
        let before = snapshot(self.server);
        let cpu0 = crate::sys::process_cpu();
        let phase = self.tracer.group(name, || self.gen.run(&requests, rate));
        let cpu1 = crate::sys::process_cpu();
        let after = snapshot(self.server);
        let server_cpu_s = match (cpu0, cpu1) {
            (Some(a), Some(b)) => (b.saturating_sub(a)).as_secs_f64() - phase.cpu_s,
            _ => 0.0,
        };
        eprintln!(
            "perfbench: {name:<15} {rate:>8.0}/s  p50 {:.3} ms  p99 {:.3} ms  late p99 {:.3} ms  \
             failed {}  generator busy {:.2}  server cpu {:.1} us/req",
            phase.latency_q(0.5),
            phase.latency_q(0.99),
            crate::report::quantile(&phase.late_ms, 0.99),
            phase.failed(),
            phase.busy_share,
            server_cpu_s * 1e6 / phase.ok.max(1) as f64,
        );
        Measured {
            phase,
            server_cpu_s,
            docs,
            server: diff(&before, &after),
        }
    }

    /// Binary-search the ladder for the highest rate that meets the limit.
    /// A failed rung is probed once more before it counts, so one stall of
    /// the machine does not cut the search short. Returns the probes and
    /// the rate found (0 when even the lowest rung fails).
    pub fn climb(&mut self, rates: &Rates) -> (Vec<Measured>, f64) {
        let mut probes = Vec::new();
        let (mut lo, mut hi) = (0, rates.ladder.len());
        let mut best = 0.0;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let rate = rates.ladder[mid];
            let mut ok = false;
            for _ in 0..2 {
                let probe = self.phase(PROBE_REQUESTS, rate, "loadgen.ladder");
                ok = probe.phase.meets(rates.p99_limit_ms);
                probes.push(probe);
                if ok {
                    break;
                }
            }
            if ok {
                best = rate;
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (probes, best)
    }
}

// ----- output checks ----------------------------------------------------------

/// Compare every sampled response body with in-process inference by
/// `reference` (a cacheless engine over the in-memory model). Returns the
/// number of bodies checked and the mismatches.
pub fn check_bodies(
    run: &ServeRun,
    pool: &[String],
    reference: &QueryEngine,
) -> (usize, Vec<String>) {
    let config = InferConfig::default();
    let mut checked = 0;
    let mut errors = Vec::new();
    for m in run.phases() {
        for (index, body) in &m.phase.bodies {
            let text = &pool[m.docs[*index]];
            checked += 1;
            if *body != topmine_serve::inference_json(&reference.infer(text, &config)) {
                errors.push(format!(
                    "response to request {index} differs from in-process inference"
                ));
            }
        }
    }
    (checked, errors)
}

/// Send `batches` pairs of pool documents to `/infer_batch` and each
/// document alone to `/infer` with the seed its batch position draws; the
/// batch body must be exactly the concatenation, and equal `reference`'s
/// in-process batch. Returns the number of batches checked and the
/// mismatches.
pub fn check_batches(
    addr: SocketAddr,
    pool: &[String],
    reference: &QueryEngine,
    batches: usize,
) -> (usize, Vec<String>) {
    let config = InferConfig::default();
    let mut errors = Vec::new();
    for (b, docs) in pool.chunks(2).take(batches).enumerate() {
        let (status, body) = request_once(addr, "POST", "/infer_batch", &docs.join("\n"));
        let entries: Vec<String> = docs
            .iter()
            .enumerate()
            .map(|(i, doc)| {
                let target = format!("/infer?seed={}", config.seed_for_index(i));
                request_once(addr, "POST", &target, doc).1
            })
            .collect();
        let joined = format!(
            "{{\"batch_size\":{},\"results\":[{}]}}",
            entries.len(),
            entries.join(",")
        );
        let local = topmine_serve::batch_inference_json(&reference.infer_batch(docs, &config));
        if status != 200 || body != joined || body != local {
            errors.push(format!(
                "/infer_batch {b} differs from its /infer entries or in-process"
            ));
        }
    }
    (batches, errors)
}
