//! A minimal std-only HTTP/1.1 front end for the query engine.
//!
//! No async runtime (the build is offline): a `std::net::TcpListener`
//! accept loop hands each connection to a fixed worker pool. Connections
//! are persistent: HTTP/1.1 requests default to keep-alive (HTTP/1.0 must
//! ask for it), bounded by a per-connection request cap and an idle
//! timeout between requests; `Connection: close` is honored per request.
//! The surface is deliberately tiny:
//!
//! * `GET /healthz` — liveness, model shape, shard count, uptime, bundle
//!   and kernel versions, and the response-cache hit/miss counters;
//! * `GET /model`   — bundle metadata (header + preprocessing contract);
//! * `GET /metrics` — Prometheus text exposition of the serving metrics
//!   (per-stage latency histograms, per-route/status counters);
//! * `POST /infer`  — body is one plain-text document; query parameters
//!   `seed`, `iters`, `top`, `deadline_ms` override the per-request knobs;
//! * `POST /infer_batch` — body is newline-delimited documents; one
//!   response carries every result in input order, bit-identical to the
//!   same documents sent as sequential `/infer` calls with per-index
//!   seeds.
//!
//! Two interchangeable front ends feed one shared admission pipeline
//! (the private `dispatch` module): the default on Linux/x86-64 is a
//! single-threaded epoll event loop (the private `event_loop` module)
//! that parses requests incrementally and answers the cheap read routes
//! inline; elsewhere (or via [`ServerConfig::front_end`]) a
//! thread-per-connection loop does the same job. Either way, inference
//! requests enter a **bounded admission queue** — full queue ⇒ `429` +
//! `Retry-After`, deadline expired while queued ⇒ `504` — and dispatcher
//! workers drain them in batches that share one φ gather.
//!
//! Responses are JSON (`/metrics` is text exposition), hand-rendered (no
//! serde in the dependency set); floats use Rust's shortest round-trip
//! `Display`, so a fixed seed yields byte-identical bodies across runs,
//! thread counts, and shard counts.

use crate::dispatch::{DispatchOptions, InferJob, InferService, JobKind};
use crate::engine::{QueryEngine, ThreadPool};
use crate::infer::{DocInference, InferConfig};
use crate::metrics::{serve_metrics, ServeMetrics, Stage};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use topmine_obs::Registry;

/// Hard cap on request bodies (1 MiB) — inference input is one document.
pub(crate) const MAX_BODY: usize = 1 << 20;
/// Hard cap on the request head (request line + headers). Enforced via
/// `Read::take`, so a newline-free request line cannot allocate past it.
pub(crate) const MAX_HEAD: usize = 16 << 10;
/// Socket read/write timeout: a stalled or silent client (slowloris) frees
/// its worker after this long instead of occupying it forever.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests served on one keep-alive connection before the server closes
/// it (bounds how long one client can pin a worker).
pub(crate) const MAX_REQUESTS_PER_CONN: usize = 100;
/// Idle timeout between keep-alive requests: a connection holding no
/// in-flight request frees its worker after this long.
pub(crate) const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);
/// Most documents accepted in one `/infer_batch` body.
pub(crate) const MAX_BATCH_DOCS: usize = 1024;
/// `Retry-After` seconds advertised with a 429.
pub(crate) const RETRY_AFTER_SECS: u64 = 1;

/// Which connection front end drives the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    /// Event loop on Linux/x86-64, blocking elsewhere.
    Auto,
    /// Single-threaded epoll readiness loop (Linux/x86-64 only; falls back
    /// to `Blocking` elsewhere).
    EventLoop,
    /// Thread-per-connection with a worker pool (the pre-event-loop
    /// design, kept as the portable fallback).
    Blocking,
}

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Dispatcher worker threads draining the admission queue (and, for
    /// the blocking front end, the connection-handling pool size).
    pub n_threads: usize,
    /// Default inference knobs; `/infer` query parameters override per
    /// request.
    pub infer_defaults: InferConfig,
    /// Admission-queue bound (pending inference requests). One more
    /// request than this is answered `429` + `Retry-After`.
    pub queue_depth: usize,
    /// Most documents a dispatcher folds in per batch (coalescing queued
    /// requests up to this many documents).
    pub max_batch: usize,
    /// Default per-request deadline, checked when a queued request reaches
    /// a dispatcher (`504` if already expired). `None` disables; the
    /// `deadline_ms` query parameter overrides per request.
    pub deadline: Option<Duration>,
    /// Connection front end ([`FrontEnd::Auto`] picks the event loop where
    /// supported).
    pub front_end: FrontEnd,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            n_threads: 4,
            infer_defaults: InferConfig::default(),
            queue_depth: 128,
            max_batch: 16,
            deadline: Some(Duration::from_secs(30)),
            front_end: FrontEnd::Auto,
        }
    }
}

/// A bound, not-yet-running server.
pub struct HttpServer {
    listener: TcpListener,
    engine: Arc<QueryEngine>,
    config: ServerConfig,
}

impl HttpServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<QueryEngine>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        // Pin uptime to server start; otherwise the first /healthz or
        // /metrics touch would start the clock and report ~0 uptime.
        topmine_obs::mark_process_start();
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            engine,
            config,
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until the process exits (the CLI path).
    pub fn run(self) -> io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        self.serve(&stop)
    }

    /// Serve on a background thread; the returned handle stops the accept
    /// loop and joins it (tests, embedding).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_loop = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("topmine-serve-accept".into())
            .spawn(move || {
                let _ = self.serve(&stop_loop);
            })?;
        Ok(ServerHandle {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// The resolved front end for this build and config.
    fn front_end(&self) -> FrontEnd {
        match self.config.front_end {
            FrontEnd::Blocking => FrontEnd::Blocking,
            FrontEnd::Auto | FrontEnd::EventLoop => {
                if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
                    FrontEnd::EventLoop
                } else {
                    FrontEnd::Blocking
                }
            }
        }
    }

    /// Run the selected front end over one shared admission pipeline. The
    /// [`InferService`] outlives the front end and is dropped last, so a
    /// shutdown drains: the front end stops accepting and finishes its
    /// in-flight work, then the dispatchers finish every queued job.
    fn serve(&self, stop: &Arc<AtomicBool>) -> io::Result<()> {
        let service = Arc::new(InferService::start(
            Arc::clone(&self.engine),
            DispatchOptions {
                queue_depth: self.config.queue_depth,
                max_batch: self.config.max_batch,
                n_workers: self.config.n_threads,
            },
        ));
        match self.front_end() {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            FrontEnd::EventLoop => crate::event_loop::run(
                &self.listener,
                Arc::clone(&self.engine),
                Arc::clone(&service),
                self.config.clone(),
                stop,
            ),
            _ => self.accept_loop(stop, &service),
        }
    }

    fn accept_loop(&self, stop: &AtomicBool, service: &Arc<InferService>) -> io::Result<()> {
        let pool = ThreadPool::new(self.config.n_threads);
        for stream in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue, // transient accept error; keep serving
            };
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            let engine = Arc::clone(&self.engine);
            let service = Arc::clone(service);
            let config = self.config.clone();
            pool.execute(move || {
                let _ = handle_connection(stream, &engine, &service, &config);
            });
        }
        Ok(())
    }
}

/// Handle to a spawned server; dropping it shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. In-flight connections
    /// finish (the pool drains on drop).
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

// ----- request handling -----------------------------------------------------

pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) query: Vec<(String, String)>,
    pub(crate) body: String,
    /// The client asked to end the connection after this response
    /// (`Connection: close`, or an HTTP/1.0 request without keep-alive).
    pub(crate) close: bool,
}

#[derive(Debug, PartialEq)]
pub(crate) struct HttpError {
    pub(crate) status: u16,
    pub(crate) message: String,
}

impl HttpError {
    pub(crate) fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

/// A successful route result: a body plus its media type (JSON for the
/// API routes, text exposition for `/metrics`).
pub(crate) struct RouteResponse {
    pub(crate) body: String,
    pub(crate) content_type: &'static str,
}

impl RouteResponse {
    pub(crate) fn json(body: String) -> Self {
        Self {
            body,
            content_type: "application/json",
        }
    }
}

/// What a routed request needs next: an immediate response (the cheap read
/// routes and every error), or a trip through the admission queue (the
/// inference routes — the front end must not run fold-in inline).
pub(crate) enum RouteOutcome {
    Done(u16, RouteResponse),
    Dispatch {
        docs: Vec<String>,
        config: InferConfig,
        kind: JobKind,
        /// Per-request deadline override from `deadline_ms`.
        deadline: Option<Duration>,
    },
}

/// The deadline instant for a request admitted now: the per-request
/// override wins, else the server default, else none.
pub(crate) fn effective_deadline(
    request_override: Option<Duration>,
    server_default: Option<Duration>,
) -> Option<Instant> {
    request_override
        .or(server_default)
        .map(|d| Instant::now() + d)
}

/// Serve one connection: up to [`MAX_REQUESTS_PER_CONN`] requests on a
/// persistent connection, closing on client request, idle timeout, the
/// cap, or any malformed request (framing is unreliable after one).
fn handle_connection(
    stream: TcpStream,
    engine: &QueryEngine,
    service: &Arc<InferService>,
    config: &ServerConfig,
) -> io::Result<()> {
    // The reader owns the stream for the connection's lifetime (buffered
    // bytes of a pipelined next request must survive between requests);
    // responses go out through a cloned handle. The take-limit caps how
    // much a connection can make us buffer per request: the head cap up
    // front, widened to admit the (already length-checked) body once the
    // headers are parsed, reset for the next request's head.
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream.take(MAX_HEAD as u64));
    for served in 0..MAX_REQUESTS_PER_CONN {
        if served > 0 {
            reader.get_mut().set_limit(MAX_HEAD as u64);
            let _ = reader
                .get_ref()
                .get_ref()
                .set_read_timeout(Some(KEEP_ALIVE_IDLE));
        }
        let at_cap = served + 1 == MAX_REQUESTS_PER_CONN;
        let metrics = serve_metrics();
        match read_request(&mut reader) {
            Ok(None) => break, // clean close (EOF or idle timeout)
            Ok(Some(req)) => {
                let handle_start = Instant::now();
                let close = req.close || at_cap;
                let route_label = ServeMetrics::route_label(&req.path);
                let (status, resp) = match route(&req, engine, &config.infer_defaults) {
                    RouteOutcome::Done(status, resp) => (status, resp),
                    RouteOutcome::Dispatch {
                        docs,
                        config: infer_config,
                        kind,
                        deadline,
                    } => {
                        // Block this connection's thread on the dispatcher
                        // verdict: the admission queue, not the connection
                        // pool, is what bounds concurrent inference.
                        let (tx, rx) = std::sync::mpsc::channel::<(u16, String)>();
                        let job = InferJob {
                            docs,
                            config: infer_config,
                            kind,
                            deadline: effective_deadline(deadline, config.deadline),
                            respond: Box::new(move |status, body| {
                                let _ = tx.send((status, body));
                            }),
                        };
                        match service.try_submit(job) {
                            Ok(()) => match rx.recv() {
                                Ok((status, body)) => (status, RouteResponse::json(body)),
                                Err(_) => (
                                    503,
                                    RouteResponse::json(error_json(
                                        "server shutting down before dispatch",
                                    )),
                                ),
                            },
                            Err(_job) => {
                                metrics.requests_rejected_total.inc();
                                (
                                    429,
                                    RouteResponse::json(error_json(
                                        "admission queue full; retry shortly",
                                    )),
                                )
                            }
                        }
                    }
                };
                let serialize_span = metrics.stage(Stage::Serialize).span();
                let payload = render_response(status, &resp.body, resp.content_type, close);
                writer.write_all(payload.as_bytes())?;
                writer.flush()?;
                serialize_span.stop();
                metrics.observe_request(route_label, status, handle_start.elapsed());
                if close {
                    break;
                }
            }
            Err(e) => {
                metrics.count_request("invalid", e.status);
                let _ = writer.write_all(
                    render_response(e.status, &error_json(&e.message), "application/json", true)
                        .as_bytes(),
                );
                let _ = writer.flush();
                break;
            }
        }
    }
    Ok(())
}

/// Read one request off the connection. `Ok(None)` means the client went
/// away cleanly before sending one (EOF or idle timeout at a request
/// boundary) — not an error, just the end of a keep-alive conversation.
fn read_request(reader: &mut BufReader<io::Take<TcpStream>>) -> Result<Option<Request>, HttpError> {
    let bad = |m: &str| HttpError::new(400, m);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        // An idle timeout with nothing read is the clean end of a
        // keep-alive conversation; mid-request-line it is a client error.
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) && line.is_empty() =>
        {
            return Ok(None)
        }
        Err(_) => return Err(bad("unreadable request line")),
    }
    // A request is in flight: time the rest of the head + body read and
    // parse as the `parse` stage. Starting after the first line keeps
    // keep-alive idle waits (which block in the read above) out of the
    // histogram.
    let parse_start = std::time::Instant::now();
    // A request is now in flight: the rest of it (headers + body) gets the
    // full I/O timeout again, not the shorter between-requests idle one.
    let _ = reader
        .get_ref()
        .get_ref()
        .set_read_timeout(Some(IO_TIMEOUT));
    let (method, target, keep_alive_default) = parse_request_line(&line)?;

    let mut content_length: Option<usize> = None;
    let mut close = !keep_alive_default;
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|_| bad("unreadable header"))?;
        head_bytes += n;
        if n == 0 {
            // The head ended without a blank line: either the client hit
            // the take-limit or closed the connection mid-head.
            return if head_bytes >= MAX_HEAD {
                Err(HttpError::new(431, "request head too large"))
            } else {
                Err(bad("truncated request head"))
            };
        }
        let header = header.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        apply_header_line(header, &mut content_length, &mut close)?;
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::new(413, "request body too large"));
    }
    // Widen the read cap for the declared (and now validated) body size;
    // any body bytes already buffered were counted against the head cap.
    reader.get_mut().set_limit(content_length as u64);
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|_| bad("body shorter than content-length"))?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;

    let (path, query) = parse_target(&target);
    serve_metrics()
        .stage(Stage::Parse)
        .record_duration(parse_start.elapsed());
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        close,
    }))
}

/// Parse an HTTP/1.x request line into `(method, target,
/// keep_alive_default)`. Shared by the blocking reader and the event
/// loop's incremental parser, so both front ends enforce identical
/// request-line rules.
pub(crate) fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpError> {
    let bad = |m: &str| HttpError::new(400, m);
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    // Exact-match the version token: `starts_with("HTTP/1.")` would wave
    // through `HTTP/1.`, `HTTP/1.1x`, `HTTP/1.999`, … — garbage that no
    // peer speaking this protocol sends and whose framing rules we'd be
    // guessing at.
    let version = match parts.next() {
        Some(v @ ("HTTP/1.0" | "HTTP/1.1")) => v,
        Some(_) => return Err(HttpError::new(505, "unsupported HTTP version")),
        None => return Err(bad("missing HTTP version")),
    };
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 must opt in.
    Ok((
        method.to_string(),
        target.to_string(),
        version != "HTTP/1.0",
    ))
}

/// Fold one header line (already stripped of its line terminator) into the
/// request's framing state. Shared by both front ends: the
/// Content-Length validation (pure digits, duplicates must agree) and the
/// Connection token handling live exactly once.
pub(crate) fn apply_header_line(
    header: &str,
    content_length: &mut Option<usize>,
    close: &mut bool,
) -> Result<(), HttpError> {
    let bad = |m: &str| HttpError::new(400, m);
    if let Some((name, value)) = header.split_once(':') {
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9110 §8.6: a pure digit string. `usize::parse` alone
            // would admit a leading `+`, and silently letting a second
            // Content-Length overwrite the first is the classic
            // request-smuggling seam — two parsers, two framings.
            let value = value.trim();
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad("bad content-length"));
            }
            let parsed: usize = value.parse().map_err(|_| bad("bad content-length"))?;
            match *content_length {
                Some(prev) if prev != parsed => {
                    return Err(bad("conflicting content-length headers"))
                }
                _ => *content_length = Some(parsed),
            }
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list; "close" and "keep-alive" are what we honor.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    *close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    *close = false;
                }
            }
        }
    }
    Ok(())
}

/// Split a request target into path and `key=value` query pairs (no
/// percent-decoding: the API's parameters are plain integers).
pub(crate) fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => (
            path.to_string(),
            query
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (kv.to_string(), String::new()),
                })
                .collect(),
        ),
    }
}

/// Parse the inference query parameters: the [`InferConfig`] knobs plus
/// the `deadline_ms` admission override (not part of the config — it never
/// enters the cache key or the RNG stream).
fn infer_config_from_query(
    query: &[(String, String)],
    defaults: &InferConfig,
) -> Result<(InferConfig, Option<Duration>), HttpError> {
    let mut cfg = defaults.clone();
    let mut deadline = None;
    for (key, value) in query {
        let bad = || HttpError::new(400, format!("bad value for {key}: {value:?}"));
        match key.as_str() {
            "seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "iters" => {
                cfg.fold_iters = value.parse().map_err(|_| bad())?;
                if cfg.fold_iters == 0 || cfg.fold_iters > 10_000 {
                    return Err(HttpError::new(400, "iters must be in 1..=10000"));
                }
            }
            "top" => cfg.top_topics = value.parse().map_err(|_| bad())?,
            "deadline_ms" => {
                let ms: u64 = value.parse().map_err(|_| bad())?;
                if ms == 0 || ms > 600_000 {
                    return Err(HttpError::new(400, "deadline_ms must be in 1..=600000"));
                }
                deadline = Some(Duration::from_millis(ms));
            }
            other => return Err(HttpError::new(400, format!("unknown parameter {other:?}"))),
        }
    }
    Ok((cfg, deadline))
}

/// Route one parsed request. The cheap read routes are answered inline
/// (the event loop relies on this to keep `/healthz` and `/metrics`
/// responsive when the admission queue is saturated); the inference
/// routes come back as [`RouteOutcome::Dispatch`] for the caller to
/// submit.
pub(crate) fn route(req: &Request, engine: &QueryEngine, defaults: &InferConfig) -> RouteOutcome {
    match route_inner(req, engine, defaults) {
        Ok(outcome) => outcome,
        Err(e) => RouteOutcome::Done(e.status, RouteResponse::json(error_json(&e.message))),
    }
}

fn route_inner(
    req: &Request,
    engine: &QueryEngine,
    defaults: &InferConfig,
) -> Result<RouteOutcome, HttpError> {
    let done = |resp: RouteResponse| Ok(RouteOutcome::Done(200, resp));
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let m = engine.model();
            let cache = engine.cache_stats();
            // A fleet router aggregates per-shard health: overall status
            // degrades when any shard fails its ping, and the per-shard
            // snapshot rides along under "fleet".
            let fleet = m.fleet_status_json();
            let status = match &fleet {
                Some(json) if json.contains("\"ok\":false") => "degraded",
                _ => "ok",
            };
            let fleet = fleet
                .map(|json| format!(",\"fleet\":{json}"))
                .unwrap_or_default();
            done(RouteResponse::json(format!(
                "{{\"status\":\"{status}\",\"format\":{},\"version\":{},\"kernel_version\":{},\
                 \"kernel\":\"frozen-phi\",\"uptime_seconds\":{},\
                 \"topics\":{},\"vocab\":{},\"shards\":{},\
                 \"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"capacity\":{}}}{fleet}}}",
                json_string(m.format_tag()),
                json_string(env!("CARGO_PKG_VERSION")),
                topmine_lda::KERNEL_VERSION,
                topmine_obs::uptime_seconds(),
                m.n_topics(),
                m.vocab_size(),
                m.n_shards(),
                cache.hits,
                cache.misses,
                cache.entries,
                cache.capacity
            )))
        }
        ("GET", "/metrics") => {
            // Point-in-time gauges are sampled at scrape; everything else
            // accumulated as requests were served.
            serve_metrics().refresh_scrape_gauges(&engine.cache_stats());
            done(RouteResponse {
                body: Registry::global().render(),
                content_type: "text/plain; version=0.0.4; charset=utf-8",
            })
        }
        ("GET", "/model") => {
            let m = engine.model();
            let h = m.header();
            let p = m.preprocess();
            done(RouteResponse::json(format!(
                "{{\"format\":{},\"topics\":{},\"vocab\":{},\"shards\":{},\"train_docs\":{},\
                 \"train_tokens\":{},\"lexicon_phrases\":{},\"seg_alpha\":{},\"beta\":{},\
                 \"stem\":{},\"remove_stopwords\":{}}}",
                json_string(m.format_tag()),
                h.n_topics,
                h.vocab_size,
                m.n_shards(),
                h.n_docs,
                h.n_tokens,
                m.n_lexicon_phrases(),
                h.seg_alpha,
                h.beta,
                p.stem,
                p.remove_stopwords
            )))
        }
        ("POST", "/infer") => {
            let (cfg, deadline) = infer_config_from_query(&req.query, defaults)?;
            if req.body.is_empty() {
                return Err(HttpError::new(400, "empty body: send the document text"));
            }
            Ok(RouteOutcome::Dispatch {
                docs: vec![req.body.clone()],
                config: cfg,
                kind: JobKind::Single,
                deadline,
            })
        }
        ("POST", "/infer_batch") => {
            let (cfg, deadline) = infer_config_from_query(&req.query, defaults)?;
            // One document per non-empty line; document `i` draws
            // `seed_for_index(i)`, exactly as `QueryEngine::infer_batch`
            // numbers its inputs.
            let docs: Vec<String> = req
                .body
                .lines()
                .filter(|line| !line.trim().is_empty())
                .map(str::to_string)
                .collect();
            if docs.is_empty() {
                return Err(HttpError::new(
                    400,
                    "empty batch: send newline-delimited documents",
                ));
            }
            if docs.len() > MAX_BATCH_DOCS {
                return Err(HttpError::new(
                    400,
                    format!("batch of {} documents exceeds {MAX_BATCH_DOCS}", docs.len()),
                ));
            }
            Ok(RouteOutcome::Dispatch {
                docs,
                config: cfg,
                kind: JobKind::Batch,
                deadline,
            })
        }
        (_, "/healthz" | "/model" | "/metrics" | "/infer" | "/infer_batch") => Err(HttpError::new(
            405,
            format!("method {} not allowed", req.method),
        )),
        (_, path) => Err(HttpError::new(404, format!("no such endpoint: {path}"))),
    }
}

pub(crate) fn render_response(status: u16, body: &str, content_type: &str, close: bool) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    };
    let connection = if close { "close" } else { "keep-alive" };
    // Admission rejections advertise when to come back; both front ends
    // render through here, so the header can never be forgotten.
    let retry_after = if status == 429 {
        format!("Retry-After: {RETRY_AFTER_SECS}\r\n")
    } else {
        String::new()
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\n{retry_after}Connection: {connection}\r\n\r\n{body}",
        body.len()
    )
}

// ----- JSON rendering -------------------------------------------------------

/// Escape and quote a string for JSON output.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub(crate) fn error_json(message: &str) -> String {
    format!("{{\"error\":{}}}", json_string(message))
}

/// Render a [`DocInference`] as the `/infer` response body.
pub fn inference_json(inference: &DocInference) -> String {
    let mut out = String::new();
    out.push_str("{\"n_tokens\":");
    out.push_str(&inference.n_tokens.to_string());
    out.push_str(",\"n_oov\":");
    out.push_str(&inference.n_oov.to_string());
    out.push_str(",\"theta\":[");
    for (i, t) in inference.theta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_string());
    }
    out.push_str("],\"top_topics\":[");
    for (i, (topic, weight)) in inference.top_topics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"topic\":{topic},\"weight\":{weight}}}"));
    }
    out.push_str("],\"phrases\":[");
    for (i, p) in inference.phrases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"text\":{},\"n_words\":{},\"topic\":{}}}",
            json_string(&p.text),
            p.words.len(),
            p.topic
        ));
    }
    out.push_str("]}");
    out
}

/// Render a batch of results as the `/infer_batch` response body: each
/// entry is exactly what `/infer` would have returned for that document.
pub fn batch_inference_json(results: &[DocInference]) -> String {
    let mut out = String::from("{\"batch_size\":");
    out.push_str(&results.len().to_string());
    out.push_str(",\"results\":[");
    for (i, inference) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&inference_json(inference));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_parsing() {
        let (path, query) = parse_target("/infer?seed=7&iters=30");
        assert_eq!(path, "/infer");
        assert_eq!(
            query,
            vec![
                ("seed".to_string(), "7".to_string()),
                ("iters".to_string(), "30".to_string())
            ]
        );
        let (path, query) = parse_target("/healthz");
        assert_eq!(path, "/healthz");
        assert!(query.is_empty());
    }

    #[test]
    fn query_overrides_defaults() {
        let defaults = InferConfig::default();
        let (cfg, deadline) = infer_config_from_query(
            &[
                ("seed".into(), "42".into()),
                ("iters".into(), "5".into()),
                ("top".into(), "2".into()),
            ],
            &defaults,
        )
        .unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.fold_iters, 5);
        assert_eq!(cfg.top_topics, 2);
        assert_eq!(deadline, None);
        let (cfg, deadline) =
            infer_config_from_query(&[("deadline_ms".into(), "250".into())], &defaults).unwrap();
        assert_eq!(cfg, defaults, "deadline_ms never enters the config");
        assert_eq!(deadline, Some(Duration::from_millis(250)));
        assert!(infer_config_from_query(&[("seed".into(), "x".into())], &defaults).is_err());
        assert!(infer_config_from_query(&[("iters".into(), "0".into())], &defaults).is_err());
        assert!(infer_config_from_query(&[("deadline_ms".into(), "0".into())], &defaults).is_err());
        assert!(infer_config_from_query(&[("bogus".into(), "1".into())], &defaults).is_err());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn responses_carry_length_type_and_connection_intent() {
        let r = render_response(200, "{\"x\":1}", "application/json", true);
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Type: application/json\r\n"));
        assert!(r.contains("Content-Length: 7\r\n"));
        assert!(r.contains("Connection: close\r\n"));
        assert!(r.ends_with("{\"x\":1}"));
        let r = render_response(200, "{\"x\":1}", "application/json", false);
        assert!(r.contains("Connection: keep-alive\r\n"));
        let r = render_response(
            200,
            "a 1\n",
            "text/plain; version=0.0.4; charset=utf-8",
            true,
        );
        assert!(r.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"));
    }

    #[test]
    fn rejections_carry_retry_after() {
        let r = render_response(429, "{}", "application/json", false);
        assert!(r.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(r.contains(&format!("Retry-After: {RETRY_AFTER_SECS}\r\n")));
        let r = render_response(504, "{}", "application/json", false);
        assert!(r.starts_with("HTTP/1.1 504 Gateway Timeout\r\n"));
        assert!(!r.contains("Retry-After"));
    }

    #[test]
    fn batch_json_wraps_per_document_bodies() {
        let inf = DocInference {
            theta: vec![1.0],
            top_topics: vec![(0, 1.0)],
            phrases: Vec::new(),
            n_tokens: 0,
            n_oov: 2,
        };
        let batch = batch_inference_json(&[inf.clone(), inf.clone()]);
        let single = inference_json(&inf);
        assert_eq!(
            batch,
            format!("{{\"batch_size\":2,\"results\":[{single},{single}]}}")
        );
        assert_eq!(
            batch_inference_json(&[]),
            "{\"batch_size\":0,\"results\":[]}"
        );
    }

    #[test]
    fn inference_json_shape() {
        use crate::infer::PhraseAssignment;
        let inf = DocInference {
            theta: vec![0.75, 0.25],
            top_topics: vec![(0, 0.75)],
            phrases: vec![PhraseAssignment {
                text: "support vector".into(),
                words: vec![1, 2],
                topic: 0,
            }],
            n_tokens: 2,
            n_oov: 1,
        };
        let json = inference_json(&inf);
        assert_eq!(
            json,
            "{\"n_tokens\":2,\"n_oov\":1,\"theta\":[0.75,0.25],\
             \"top_topics\":[{\"topic\":0,\"weight\":0.75}],\
             \"phrases\":[{\"text\":\"support vector\",\"n_words\":2,\"topic\":0}]}"
        );
    }
}
