//! The served workloads: one load-generator process driving the advisory
//! server over loopback TCP, on two connections, one thread each.
//!
//! * `ide_open` — open loop: distinct corpus snippets arrive as a
//!   Poisson stream at [`IDE_RATE`]; latency runs from each request's
//!   due time, so a stall is charged to the requests queued behind it.
//! * `hot_closed` — closed loop: each connection keeps [`HOT_WINDOW`]
//!   pipelined requests in flight, drawn with Zipf popularity from
//!   [`crate::inputs::HOT_POOL`] short snippets; latency runs from send.

use crate::inputs::{self, Rng, Zipf, SCALE};
use crate::layers::{self, Tokenizer};
use crate::report::{
    json_num, median, metric, percentile, ratio, sorted, windowed, Metric, Outcome, Tally, TAIL_P,
};
use crate::trace::Trace;
use pragformer_core::Advisor;
use pragformer_serve::{AdvisorServer, ServeConfig, ServerStats, TcpServer};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// `ide_open` offered load, requests per second: a quarter of the
/// saturated distinct-snippet throughput of a 2-vCPU host (≈ 2,000/s),
/// so a shared host running at half speed still builds no backlog.
pub const IDE_RATE: f64 = 500.0;

/// `hot_closed` requests in flight per connection.
pub const HOT_WINDOW: usize = 32;

/// Connections, and load-generator threads: one per connection.
const CONNECTIONS: usize = 2;

/// How long requests may stay unanswered after the run before they
/// count as failed.
const DRAIN: Duration = Duration::from_secs(2);

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Snippets replayed through the layers in a traced run.
const REPLAY: usize = 1024;

/// What one connection saw.
#[derive(Default)]
struct ConnResult {
    /// Correctly answered requests: when each was due (open loop) or
    /// sent (closed loop), and its latency.
    answers: Vec<(Instant, Duration)>,
    /// Open loop: how late each request was sent.
    late_ns: Vec<u64>,
    tally: Tally,
}

impl ConnResult {
    fn merge(&mut self, o: ConnResult) {
        self.answers.extend(o.answers);
        self.late_ns.extend(o.late_ns);
        self.tally.add(o.tally);
    }
}

/// How long an idle open-loop connection sleeps between polls. Socket
/// read timeouts round up to the kernel tick (up to 10 ms), which would
/// make the open-loop sender late; `sleep` uses high-resolution timers.
const OPEN_POLL: Duration = Duration::from_micros(100);

/// A response-line reader over one connection.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    chunk: Box<[u8; 1 << 16]>,
}

enum Read1 {
    Data,
    Idle,
    Closed,
}

impl LineReader {
    /// Reads once (blocking or not, as the socket is set) and hands every
    /// complete line, without its newline, to `f`.
    fn read(&mut self, mut f: impl FnMut(&[u8])) -> Read1 {
        let n = match self.stream.read(&mut self.chunk[..]) {
            Ok(0) => return Read1::Closed,
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Read1::Idle
            }
            Err(_) => return Read1::Closed,
        };
        self.buf.extend_from_slice(&self.chunk[..n]);
        let mut start = 0;
        while let Some(nl) = self.buf[start..].iter().position(|&b| b == b'\n') {
            f(&self.buf[start..start + nl]);
            start += nl + 1;
        }
        self.buf.drain(..start);
        Read1::Data
    }
}

/// Connects; the open loop polls a non-blocking socket, the closed loop
/// blocks in reads that time out every 100 ms to check the clock.
fn connect(addr: SocketAddr, nonblocking: bool) -> Option<(TcpStream, LineReader)> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    if nonblocking {
        stream.set_nonblocking(true).ok()?;
    } else {
        stream.set_read_timeout(Some(Duration::from_millis(100))).ok()?;
    }
    let writer = stream.try_clone().ok()?;
    Some((writer, LineReader { stream, buf: Vec::new(), chunk: Box::new([0; 1 << 16]) }))
}

/// `write_all` that also works on a non-blocking socket.
fn send_all(stream: &mut TcpStream, mut bytes: &[u8]) -> bool {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return false,
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(OPEN_POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Open loop on one connection: sends request `id` at `start + due`
/// whatever the server is doing, reads answers in between.
fn open_loop(
    addr: SocketAddr,
    start: Instant,
    reqs: &[(u64, f64)],
    lines: &[Vec<u8>],
    refs: &[String],
    mut trace: Option<&mut Trace>,
) -> ConnResult {
    let mut r = ConnResult::default();
    r.tally.attempted = reqs.len() as u64;
    let Some((mut writer, mut reader)) = connect(addr, true) else {
        r.tally.refused = r.tally.attempted;
        return r;
    };
    let conn_span = trace.as_mut().map(|t| t.open("client.connection", 0, None));
    let due: Vec<Instant> =
        reqs.iter().map(|&(_, at)| start + Duration::from_secs_f64(at)).collect();
    let end_of_run = due.last().copied().unwrap_or(start) + DRAIN;
    let (mut next, mut answered) = (0usize, 0usize);
    let mut out = Vec::new();
    while answered < reqs.len() {
        let now = Instant::now();
        while next < reqs.len() && due[next] <= now {
            out.extend_from_slice(&lines[reqs[next].0 as usize]);
            r.late_ns.push((now - due[next]).as_nanos() as u64);
            next += 1;
        }
        if !out.is_empty() {
            if !send_all(&mut writer, &out) {
                break;
            }
            out.clear();
        }
        let status = reader.read(|line| {
            let recv = Instant::now();
            let k = answered;
            answered += 1;
            let id = reqs[k].0;
            match inputs::split_response(line) {
                Some((got, suffix)) if got == id => {
                    if r.tally.score(suffix, &refs[id as usize % refs.len()]) {
                        r.answers.push((due[k], recv - due[k]));
                    }
                }
                _ => r.tally.mismatched += 1,
            }
            if let Some(t) = trace.as_mut() {
                t.record("client.request", id, conn_span, due[k], recv);
            }
        });
        match status {
            Read1::Data => {}
            Read1::Closed => break,
            Read1::Idle => {
                let wake = if next < reqs.len() { due[next] } else { end_of_run };
                let now = Instant::now();
                if now >= end_of_run {
                    break;
                }
                std::thread::sleep(wake.saturating_duration_since(now).min(OPEN_POLL));
            }
        }
    }
    r.tally.unanswered = (reqs.len() - answered) as u64;
    if let (Some(t), Some(s)) = (trace, conn_span) {
        t.close(s);
    }
    r
}

/// Closed loop on one connection: keeps `HOT_WINDOW` requests in flight
/// until `until`, then drains.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: SocketAddr,
    first_id: u64,
    until: Instant,
    bodies: &[Vec<u8>],
    refs: &[String],
    zipf: &Zipf,
    mut rng: Rng,
    mut trace: Option<&mut Trace>,
) -> ConnResult {
    let mut r = ConnResult::default();
    let Some((mut writer, mut reader)) = connect(addr, false) else {
        r.tally.attempted = HOT_WINDOW as u64;
        r.tally.refused = r.tally.attempted;
        return r;
    };
    let conn_span = trace.as_mut().map(|t| t.open("client.connection", 0, None));
    let mut inflight: VecDeque<(u64, usize, Instant)> = VecDeque::with_capacity(HOT_WINDOW);
    let mut next_id = first_id;
    let mut out = Vec::new();
    let mut send = |out: &mut Vec<u8>, inflight: &mut VecDeque<_>, now: Instant| {
        let item = zipf.sample(&mut rng);
        let _ = write!(out, "{{\"id\":{next_id}");
        out.extend_from_slice(&bodies[item]);
        inflight.push_back((next_id, item, now));
        next_id += 1;
    };
    let now = Instant::now();
    for _ in 0..HOT_WINDOW {
        send(&mut out, &mut inflight, now);
    }
    let mut open = true;
    while open {
        if !out.is_empty() {
            if writer.write_all(&out).is_err() {
                break;
            }
            out.clear();
        }
        let status = reader.read(|line| {
            let recv = Instant::now();
            let Some((id, item, sent)) = inflight.pop_front() else {
                r.tally.mismatched += 1;
                return;
            };
            match inputs::split_response(line) {
                Some((got, suffix)) if got == id => {
                    if r.tally.score(suffix, &refs[item]) {
                        r.answers.push((sent, recv - sent));
                    }
                }
                _ => r.tally.mismatched += 1,
            }
            if let Some(t) = trace.as_mut() {
                t.record("client.request", id, conn_span, sent, recv);
            }
            if recv < until {
                send(&mut out, &mut inflight, recv);
            }
        });
        let now = Instant::now();
        let done = now >= until && inflight.is_empty();
        open = !matches!(status, Read1::Closed) && !done && now < until + DRAIN;
    }
    r.tally.attempted = next_id - first_id;
    r.tally.unanswered = inflight.len() as u64;
    if let (Some(t), Some(s)) = (trace, conn_span) {
        t.close(s);
    }
    r
}

/// The server under test, plus an identically seeded advisor for
/// reference answers and the replay.
struct Served {
    server: AdvisorServer,
    tcp: TcpServer,
    reference: Advisor,
    setup_s: f64,
}

/// Builds the advisor (eager prepack included), starts the server and
/// binds the loopback listener, [`SETUPS`] times; keeps the last.
fn set_up(seed: u64) -> Served {
    let mut times = Vec::new();
    let mut reference = None;
    loop {
        let t = Instant::now();
        let config = ServeConfig::default();
        let workers = config.tcp_workers;
        let server = AdvisorServer::start(Advisor::untrained(SCALE, seed), config);
        let tcp =
            TcpServer::bind("127.0.0.1:0", server.client(), workers).expect("bind a loopback port");
        times.push(t.elapsed().as_secs_f64());
        if times.len() == SETUPS {
            let reference = reference.expect("SETUPS > 1 leaves a spare advisor");
            return Served { server, tcp, reference, setup_s: median(&times) };
        }
        tcp.shutdown();
        let spare = server.shutdown();
        reference.get_or_insert(spare);
    }
}

/// Server-side counters over one phase.
struct Window {
    stats: ServerStats,
    wait: (f64, f64),
    busy: f64,
    at: Instant,
}

impl Window {
    fn now(server: &AdvisorServer) -> Window {
        Window {
            stats: server.stats(),
            wait: layers::hist_totals("pragformer_serve_deadline_wait_seconds", None),
            busy: layers::collector_busy_secs(),
            at: Instant::now(),
        }
    }

    /// The scheduler and cache metrics between `self` and `end`.
    fn metrics(&self, end: &Window) -> Vec<Metric> {
        let (a, b) = (&self.stats, &end.stats);
        let requests = (b.requests - a.requests) as f64;
        let batches = (b.batches - a.batches) as f64;
        let hits = (b.cache_hits - a.cache_hits) as f64;
        let lookups = hits + (b.cache_misses - a.cache_misses) as f64;
        let wall = (end.at - self.at).as_secs_f64();
        vec![
            metric("serve.requests", requests, "count"),
            metric("serve.batches", batches, "count"),
            metric("serve.batch_size_mean", ratio(requests, batches), "count"),
            metric(
                "serve.batch_full_frac",
                ratio((b.batches_full - a.batches_full) as f64, batches),
                "frac",
            ),
            metric(
                "serve.deadline_wait_mean_ms",
                1e3 * ratio(end.wait.1 - self.wait.1, end.wait.0 - self.wait.0),
                "ms",
            ),
            metric("serve.queue_hwm", b.queue_hwm as f64, "count"),
            metric("serve.collector_busy_frac", ratio(end.busy - self.busy, wall), "frac"),
            metric("serve.cache_lookups", lookups, "count"),
            metric("serve.cache_hit_frac", ratio(hits, lookups), "frac"),
            metric(
                "serve.cache_evictions",
                (b.cache_evictions - a.cache_evictions) as f64,
                "count",
            ),
        ]
    }
}

/// One measured phase of a served workload.
struct Phase {
    result: ConnResult,
    start: Instant,
    seconds: f64,
    trace: Option<Trace>,
}

/// Served runs are cut into windows of this many seconds; at about 500
/// answers per window, p90 has about 50 samples beyond it.
const WINDOW_S: f64 = 1.0;

impl Phase {
    /// Median per-window throughput, requests per second.
    fn throughput(&self) -> f64 {
        let w = windowed(&self.result.answers, self.start, self.seconds, WINDOW_S);
        w.median_of(|lat| lat.len() as f64 / w.width)
    }
}

/// Runs one load-generator thread per connection and merges what they
/// saw; `conn` gets the connection index and its own trace.
fn drive(
    start: Instant,
    traced: bool,
    conn: impl Fn(usize, Option<&mut Trace>) -> ConnResult + Sync,
) -> (ConnResult, Option<Trace>) {
    let mut merged = ConnResult::default();
    let mut trace = traced.then(|| Trace::new(start));
    std::thread::scope(|scope| {
        let conn = &conn;
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut t = traced.then(|| Trace::new(start));
                    (conn(c, t.as_mut()), t)
                })
            })
            .collect();
        for h in handles {
            let (r, t) = h.join().expect("load-generator thread");
            merged.merge(r);
            if let (Some(all), Some(t)) = (trace.as_mut(), t) {
                all.absorb(t);
            }
        }
    });
    (merged, trace)
}

/// Runs a served workload: `ide_open` or `hot_closed`.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let open = workload == "ide_open";
    let corpus = inputs::corpus_snippets(seed);
    let mut served = set_up(seed);
    let addr = served.tcp.local_addr();
    // A traced run measures half its time untraced and half traced; the
    // gap between the two is the tracing overhead.
    let lengths = if traced { vec![seconds / 2.0; 2] } else { vec![seconds] };
    let mut tally = Tally::default();

    // Inputs and reference answers, all off the clock.
    let (snippets, refs, lines, schedules) = if open {
        let schedules: Vec<Vec<f64>> = lengths
            .iter()
            .enumerate()
            .map(|(i, &len)| inputs::poisson_schedule(IDE_RATE, len, seed ^ ((i as u64) << 40)))
            .collect();
        // Request `id` carries snippet `id % snippets.len()`: a reuse
        // distance far beyond the cache size.
        let total: usize = schedules.iter().map(Vec::len).sum();
        let snippets = corpus[..total.min(corpus.len())].to_vec();
        let refs = inputs::reference_suffixes(&mut served.reference, &snippets);
        let lines: Vec<Vec<u8>> = (0..total)
            .map(|id| inputs::request_line(id as u64, &snippets[id % snippets.len()]))
            .collect();
        (snippets, refs, lines, schedules)
    } else {
        let pool = inputs::hot_pool(&corpus);
        let refs = inputs::reference_suffixes(&mut served.reference, &pool);
        // The request line after its id: `,"code":"…"}\n`.
        let bodies: Vec<Vec<u8>> = pool
            .iter()
            .map(|s| inputs::request_line(0, s)[b"{\"id\":0".len()..].to_vec())
            .collect();
        // Warm-up: every pool snippet once, so the cache holds them all.
        let client = served.server.client();
        for (s, want) in pool.iter().zip(&refs) {
            tally.attempted += 1;
            tally.score(inputs::response_suffix(client.advise(s)).as_bytes(), want);
        }
        (pool, refs, bodies, Vec::new())
    };
    let zipf = Zipf::new(snippets.len(), seed);

    let mut phases = Vec::new();
    let mut windows = Vec::new();
    let mut first_id = 0u64;
    for (i, &len) in lengths.iter().enumerate() {
        let traced_phase = traced && i == 1;
        let before = Window::now(&served.server);
        let start = Instant::now() + Duration::from_millis(10);
        let (result, trace) = if open {
            let due = &schedules[i];
            let first = first_id;
            first_id += due.len() as u64;
            drive(start, traced_phase, |c, t| {
                let mine: Vec<(u64, f64)> = (0..due.len())
                    .filter(|k| k % CONNECTIONS == c)
                    .map(|k| (first + k as u64, due[k]))
                    .collect();
                open_loop(addr, start, &mine, &lines, &refs, t)
            })
        } else {
            let until = start + Duration::from_secs_f64(len);
            drive(start, traced_phase, |c, t| {
                let rng = Rng::new(seed ^ ((i * CONNECTIONS + c + 1) as u64).wrapping_mul(0x9E37));
                let first = ((c as u64) << 40) + ((i as u64) << 48);
                closed_loop(addr, first, until, &lines, &refs, &zipf, rng, t)
            })
        };
        windows.push((before, Window::now(&served.server)));
        phases.push(Phase { result, start, seconds: len, trace });
    }
    served.tcp.shutdown();
    let stats = served.server.stats();
    served.server.shutdown();

    for p in &phases {
        tally.add(p.result.tally);
    }
    let mut notes = vec![format!(
        "  server: {} requests, {} batches ({} full), {} cache lookups ({} hits, {} misses, \
             {} evictions), queue hwm {}",
        stats.requests,
        stats.batches,
        stats.batches_full,
        stats.cache_hits + stats.cache_misses,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.queue_hwm
    )];
    let mut record = vec![if open {
        ("rate_rps".to_string(), format!("{IDE_RATE}"))
    } else {
        ("window".to_string(), HOT_WINDOW.to_string())
    }];

    let metrics = if !traced {
        let p = &phases[0];
        let w = windowed(&p.result.answers, p.start, p.seconds, WINDOW_S);
        let all = sorted(p.result.answers.iter().map(|a| a.1.as_secs_f64() * 1e3).collect());
        let (fewest, most) = w.sample_range();
        let per_window: Vec<String> =
            w.windows.iter().map(|lat| format!("{:.0}", lat.len() as f64 / w.width)).collect();
        notes.push(format!(
            "  {} answers in {} windows of {fewest}..{most}; per-window medians: p50 {:.3} ms, \
             p{TAIL_P} {:.3} ms (latency_tail_ms), p99 {:.3} ms; whole run: p50 {:.3} ms, \
             p{TAIL_P} {:.3} ms, p99 {:.3} ms; sender late p99 {:.3} ms",
            w.samples(),
            w.windows.len(),
            w.percentile(50.0),
            w.percentile(TAIL_P),
            w.percentile(99.0),
            percentile(&all, 50.0),
            percentile(&all, TAIL_P),
            percentile(&all, 99.0),
            late_p99_ms(&p.result)
        ));
        notes.push(format!("  per-window throughput: {}", per_window.join(" ")));
        record.push(("samples".to_string(), w.samples().to_string()));
        record.push(("windows".to_string(), w.windows.len().to_string()));
        record.push(("window_throughputs".to_string(), format!("[{}]", per_window.join(","))));
        record.push(("tail_percentile".to_string(), TAIL_P.to_string()));
        record.push(("latency_p99_ms".to_string(), json_num(w.percentile(99.0))));
        vec![
            metric("setup_s", served.setup_s, "s"),
            metric("throughput_rps", p.throughput(), "1/s"),
            metric("latency_p50_ms", w.percentile(50.0), "ms"),
            metric("latency_tail_ms", w.percentile(TAIL_P), "ms"),
        ]
    } else {
        let overhead = 1.0 - ratio(phases[1].throughput(), phases[0].throughput());
        let mut m = windows[1].0.metrics(&windows[1].1);
        let batch_mean =
            m.iter().find(|x| x.name == "serve.batch_size_mean").map_or(1.0, |x| x.value);
        m.push(metric("loadgen.late_p99_ms", late_p99_ms(&phases[1].result), "ms"));
        // The replay: the traced phase's own inputs, in serve-sized chunks.
        let (replay, replay_lines): (Vec<&str>, Vec<Vec<u8>>) = if open {
            let first = schedules[0].len();
            (first..(first + REPLAY).min(lines.len()))
                .map(|id| (snippets[id % snippets.len()].as_str(), lines[id].clone()))
                .unzip()
        } else {
            let mut rng = Rng::new(seed ^ 0x7E91_A7E5);
            (0..REPLAY)
                .map(|i| {
                    let s = snippets[zipf.sample(&mut rng)].as_str();
                    (s, inputs::request_line(i as u64, s))
                })
                .unzip()
        };
        let tokenizer = Tokenizer::new(seed);
        let trace = phases[1].trace.as_mut().expect("the traced phase keeps its spans");
        let root = trace.open("replay", 0, None);
        let chunk = (batch_mean.round() as usize).clamp(1, 64);
        m.extend(layers::replay(
            &mut served.reference,
            &tokenizer,
            &replay,
            Some(&replay_lines),
            chunk,
            trace,
            root,
        ));
        trace.close(root);
        notes.push(format!("  replay: {} snippets in chunks of {chunk}", replay.len()));
        m.push(metric("obs.trace_overhead_frac", overhead, "frac"));
        m
    };
    Outcome { tally, metrics, notes, record, trace: phases.pop().and_then(|p| p.trace) }
}

fn late_p99_ms(r: &ConnResult) -> f64 {
    percentile(&sorted(r.late_ns.iter().map(|&n| n as f64 / 1e6).collect()), 99.0)
}
