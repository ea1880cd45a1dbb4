//! Open-loop HTTP load generator: one thread, a fixed number of keep-alive
//! connections, a fixed send schedule.
//!
//! Request `i` of a phase is due at `t0 + i / rate`. It is sent at its due
//! time on a free connection, or as soon as one frees up, and its latency
//! is measured from the due time, so a stall also counts against the
//! requests queued behind it. Each connection carries one request at a
//! time. The server's `Connection: close` (sent on the 100th request of a
//! keep-alive connection, and on errors) is honoured by dialing a fresh
//! connection for the next request, and so is its idle timeout: a
//! connection idle for [`IDLE_REDIAL`] is closed and dialed afresh before
//! its next send. Every such dial is counted. A connection that ends
//! before its response is complete fails that request; nothing is resent.

use crate::report::quantile;
use crate::sys;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request that has not answered after this long counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest single wait when nothing is due.
const IDLE_WAIT: Duration = Duration::from_millis(20);
/// A keep-alive connection idle this long is dialed afresh before its next
/// send, ahead of the server's 5 s idle close.
const IDLE_REDIAL: Duration = Duration::from_secs(4);

/// One pre-rendered HTTP request.
pub struct Request {
    bytes: Vec<u8>,
}

impl Request {
    pub fn post(target: &str, body: &str) -> Self {
        let head = format!(
            "POST {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        Self { bytes }
    }
}

/// What one phase of the schedule measured.
pub struct Phase {
    pub attempted: usize,
    pub ok: usize,
    /// Latency of each successful request from its due time, in ms.
    pub latencies_ms: Vec<f64>,
    /// How late each request was sent against its due time, in ms.
    pub late_ms: Vec<f64>,
    pub reconnects: u64,
    /// First due time to last completion, in seconds.
    pub wall_s: f64,
    /// Generator thread CPU time over phase wall time.
    pub busy_share: f64,
    /// Generator thread CPU time, in seconds.
    pub cpu_s: f64,
    /// Sampled successful responses: (request index, body).
    pub bodies: Vec<(usize, String)>,
}

impl Phase {
    pub fn failed(&self) -> usize {
        self.attempted - self.ok
    }

    pub fn latency_q(&self, q: f64) -> f64 {
        quantile(&self.latencies_ms, q)
    }

    /// Whether the generator fell ever further behind the schedule: the
    /// median lateness of the last tenth of sends exceeds `limit_ms`.
    pub fn backlog(&self, limit_ms: f64) -> bool {
        let tail = &self.late_ms[self.late_ms.len() * 9 / 10..];
        quantile(tail, 0.5) > limit_ms
    }

    /// Whether this phase meets the latency limit with no failures and no
    /// growing backlog. Failed requests count as missing the limit.
    pub fn meets(&self, p99_limit_ms: f64) -> bool {
        self.failed() == 0 && self.latency_q(0.99) <= p99_limit_ms && !self.backlog(p99_limit_ms)
    }
}

struct Conn {
    stream: Option<TcpStream>,
    dialed: bool,
    /// When the connection last sent or received.
    last_used: Instant,
    /// (request index, response bytes so far)
    inflight: Option<(usize, Vec<u8>)>,
}

pub struct LoadGen {
    addr: SocketAddr,
    n_conns: usize,
    /// Keep the body of every `sample_every`-th successful response.
    sample_every: usize,
}

enum Outcome {
    Pending,
    Done {
        status: u16,
        close: bool,
        body: String,
    },
    /// The connection ended before a full response arrived.
    Broken,
}

impl LoadGen {
    pub fn new(addr: SocketAddr, n_conns: usize, sample_every: usize) -> Self {
        Self {
            addr,
            n_conns: n_conns.max(1),
            sample_every: sample_every.max(1),
        }
    }

    fn dial(&self, conn: &mut Conn, reconnects: &mut u64) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        if conn.dialed {
            *reconnects += 1;
        }
        conn.dialed = true;
        conn.stream = Some(stream);
        Ok(())
    }

    /// Send request `index` on `conn`, dialing first if needed.
    fn send(
        &self,
        conn: &mut Conn,
        index: usize,
        request: &Request,
        reconnects: &mut u64,
    ) -> std::io::Result<()> {
        if conn.last_used.elapsed() >= IDLE_REDIAL {
            conn.stream = None;
        }
        if conn.stream.is_none() {
            self.dial(conn, reconnects)?;
        }
        let stream = conn.stream.as_mut().expect("dialed above");
        let mut written = 0;
        while written < request.bytes.len() {
            match stream.write(&request.bytes[written..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        conn.inflight = Some((index, Vec::new()));
        conn.last_used = Instant::now();
        Ok(())
    }

    /// Read what `conn` has and report whether its response is complete.
    fn poll(conn: &mut Conn) -> Outcome {
        let (Some(stream), Some((_, buf))) = (conn.stream.as_mut(), conn.inflight.as_mut()) else {
            return Outcome::Pending;
        };
        let mut chunk = [0u8; 64 << 10];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Outcome::Broken,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    if let Some(done) = parse_response(buf) {
                        return done;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Outcome::Pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Outcome::Broken,
            }
        }
    }

    /// Send `requests` on an open-loop schedule at `rate` per second.
    pub fn run(&self, requests: &[Request], rate: f64) -> Phase {
        sys::tight_timer_slack();
        let n = requests.len();
        let interval = 1.0 / rate;
        let mut conns: Vec<Conn> = (0..self.n_conns)
            .map(|_| Conn {
                stream: None,
                dialed: false,
                last_used: Instant::now(),
                inflight: None,
            })
            .collect();
        let mut phase = Phase {
            attempted: n,
            ok: 0,
            latencies_ms: Vec::with_capacity(n),
            late_ms: Vec::with_capacity(n),
            reconnects: 0,
            wall_s: 0.0,
            busy_share: 0.0,
            cpu_s: 0.0,
            bodies: Vec::new(),
        };
        let cpu0 = sys::thread_cpu();
        let t0 = Instant::now();
        let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 * interval);
        let (mut next, mut finished) = (0usize, 0usize);
        let mut last_done = t0;
        while finished < n {
            // Send everything due while connections are free.
            while next < n && due(next) <= Instant::now() {
                let Some(conn) = conns.iter_mut().find(|c| c.inflight.is_none()) else {
                    break;
                };
                let index = next;
                next += 1;
                phase
                    .late_ms
                    .push(Instant::now().duration_since(due(index)).as_secs_f64() * 1e3);
                if self
                    .send(conn, index, &requests[index], &mut phase.reconnects)
                    .is_err()
                {
                    conn.stream = None;
                    conn.inflight = None;
                    finished += 1;
                }
            }
            // Collect whatever has answered.
            for conn in conns.iter_mut() {
                let Some(index) = conn.inflight.as_ref().map(|f| f.0) else {
                    continue;
                };
                let outcome = match Self::poll(conn) {
                    Outcome::Pending if due(index).elapsed() > REQUEST_TIMEOUT => Outcome::Broken,
                    other => other,
                };
                match outcome {
                    Outcome::Pending => {}
                    Outcome::Done {
                        status,
                        close,
                        body,
                    } => {
                        let now = Instant::now();
                        conn.inflight = None;
                        conn.last_used = now;
                        if close {
                            conn.stream = None;
                        }
                        finished += 1;
                        last_done = now;
                        if (200..300).contains(&status) {
                            phase.ok += 1;
                            phase
                                .latencies_ms
                                .push(now.duration_since(due(index)).as_secs_f64() * 1e3);
                            if index % self.sample_every == 0 {
                                phase.bodies.push((index, body));
                            }
                        }
                    }
                    Outcome::Broken => {
                        conn.stream = None;
                        conn.inflight = None;
                        finished += 1;
                    }
                }
            }
            if finished >= n {
                break;
            }
            // Wait for a response, or until the next request is due.
            let free = conns.iter().any(|c| c.inflight.is_none());
            let timeout = if next < n && free {
                due(next).saturating_duration_since(Instant::now())
            } else {
                IDLE_WAIT
            };
            if timeout.is_zero() {
                continue;
            }
            let fds: Vec<i32> = conns
                .iter()
                .filter(|c| c.inflight.is_some())
                .filter_map(|c| c.stream.as_ref().map(raw_fd))
                .collect();
            if fds.is_empty() {
                std::thread::sleep(timeout.min(IDLE_WAIT));
            } else {
                sys::wait_readable(&fds, timeout.min(IDLE_WAIT));
            }
        }
        phase.wall_s = last_done.duration_since(t0).as_secs_f64();
        if let (Some(c0), Some(c1)) = (cpu0, sys::thread_cpu()) {
            phase.cpu_s = (c1 - c0).as_secs_f64();
            phase.busy_share = phase.cpu_s / t0.elapsed().as_secs_f64().max(1e-9);
        }
        phase
    }
}

#[cfg(unix)]
fn raw_fd(stream: &TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd(_stream: &TcpStream) -> i32 {
    -1
}

/// Parse a complete HTTP/1.1 response out of `buf`, or `None` if more
/// bytes are needed.
fn parse_response(buf: &[u8]) -> Option<Outcome> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return Some(Outcome::Broken);
    };
    let mut lines = head.split("\r\n");
    let status: u16 = match lines.next().and_then(|l| l.split(' ').nth(1)) {
        Some(code) => code.parse().ok()?,
        None => return Some(Outcome::Broken),
    };
    let (mut length, mut close) = (0usize, false);
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse().ok()?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    if buf.len() < head_end + length {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + length]).into_owned();
    Some(Outcome::Done {
        status,
        close,
        body,
    })
}

/// A blocking one-off request on a fresh connection: `(status, body)`.
pub fn request_once(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let attempt = || -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let message = format!(
            "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(message.as_bytes())?;
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf)?;
        match parse_response(&buf) {
            Some(Outcome::Done { status, body, .. }) => Ok((status, body)),
            _ => Err(ErrorKind::InvalidData.into()),
        }
    };
    attempt().unwrap_or((0, String::new()))
}
