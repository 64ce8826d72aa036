//! Open-loop load for `jl_bench::serve::serve`. The generator is the
//! `BufRead` serve's reader thread pulls request lines from: it releases
//! each line at its due time. The recorder is the `Write` serve's
//! responder writes response lines to. The benchmark adds no thread.
//! Latency is timed from each request's due time, so a stall that delays
//! later requests is charged to them.

use std::io::{self, BufRead, Read, Write};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use jl_bench::serve::{serve, ServeConfig};
use jl_engine::{reference_run, JobPlan};

use crate::gen::{serve_keys, serve_store, serve_tuples, UDF};

/// Lines released per `fill_buf` at most, so a late generator catches up
/// in bounded chunks.
const CHUNK: usize = 256;

/// The clock both ends of one session share: due times are offsets from
/// the instant the reader first asks for input.
#[derive(Default)]
struct Epoch(OnceLock<Instant>);

impl Epoch {
    fn start(&self) -> Instant {
        *self.0.get_or_init(Instant::now)
    }
}

/// Request lines released at their due times.
pub struct PacedReader {
    keys: Vec<u64>,
    gap: Duration,
    epoch: Arc<Epoch>,
    next: usize,
    buf: Vec<u8>,
    pos: usize,
    /// Worst lateness of a release against its due time.
    pub max_lag: Duration,
}

impl PacedReader {
    fn due(&self, i: usize) -> Duration {
        self.gap * (i as u32 + 1)
    }
}

impl Read for PacedReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() && self.next < self.keys.len() {
            self.buf.clear();
            self.pos = 0;
            let start = self.epoch.start();
            let due = start + self.due(self.next);
            // Sleep, never spin: the serve loop and responder need the
            // cores. Sleep overshoot is charged as generator lateness.
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let now = Instant::now();
            self.max_lag = self.max_lag.max(now - due);
            let mut n = 0;
            while self.next < self.keys.len() && n < CHUNK && start + self.due(self.next) <= now {
                writeln!(self.buf, "{}", self.keys[self.next])?;
                self.next += 1;
                n += 1;
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// Response lines parsed as they are written.
pub struct Recorder {
    gap: Duration,
    epoch: Arc<Epoch>,
    partial: Vec<u8>,
    /// Milliseconds from due time to response, per request: `None` until
    /// answered, infinite when the answer is not `ok`.
    pub latency_ms: Vec<Option<f64>>,
    /// `ok` responses.
    pub ok: u64,
    /// `gave_up` responses.
    pub gave_up: u64,
    /// `shed` responses.
    pub shed: u64,
    /// Responses naming an unknown or already answered request, or lines
    /// that do not parse.
    pub bad: u64,
}

impl Recorder {
    fn line(&mut self, line: &[u8], now: Instant) {
        let text = String::from_utf8_lossy(line);
        let mut it = text.split_whitespace();
        let seq = it.next().and_then(|s| s.parse::<usize>().ok());
        let status = it.next();
        match (seq, status) {
            (Some(seq), Some(status)) if seq < self.latency_ms.len() => {
                if self.latency_ms[seq].is_some() {
                    self.bad += 1;
                    return;
                }
                let due = self.epoch.start() + self.gap * (seq as u32 + 1);
                let ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
                self.latency_ms[seq] = Some(match status {
                    "ok" => {
                        self.ok += 1;
                        ms
                    }
                    "gave_up" => {
                        self.gave_up += 1;
                        f64::INFINITY
                    }
                    "shed" => {
                        self.shed += 1;
                        f64::INFINITY
                    }
                    _ => {
                        self.bad += 1;
                        f64::INFINITY
                    }
                });
            }
            _ => self.bad += 1,
        }
    }
}

impl Write for Recorder {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        self.partial.extend_from_slice(data);
        while let Some(nl) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=nl).collect();
            self.line(&line[..nl], now);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One ladder step's session.
#[derive(Debug, Clone)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: u64,
    /// Requests sent.
    pub sent: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `gave_up` responses.
    pub gave_up: u64,
    /// `shed` responses.
    pub shed: u64,
    /// Requests with no response.
    pub missing: u64,
    /// Median latency of the `ok` responses, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency of the `ok` responses, ms.
    pub p99_ms: f64,
    /// 99th-percentile latency over every request sent, where a request
    /// that failed counts as over any limit (infinite), ms.
    pub p99_all_ms: f64,
    /// Worst generator lateness, ms.
    pub lag_ms: f64,
    /// Wall seconds of the `serve` call.
    pub wall_s: f64,
    /// Events the wall-clock runtime dispatched.
    pub events: u64,
    /// Failed correctness checks, each described.
    pub failures: Vec<String>,
}

impl Step {
    /// Requests that did not complete, over requests sent.
    pub fn failed_share(&self) -> f64 {
        (self.gave_up + self.shed + self.missing) as f64 / self.sent.max(1) as f64
    }
}

/// The `q`-quantile (nearest rank) of `sorted`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::INFINITY;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Serve `n` Zipf 1.0 requests at `rate` per second through the default
/// front door, and check the session's accounting and join output.
pub fn run_step(seed: u64, step: usize, rate: u64, n: usize) -> Step {
    let cfg = ServeConfig {
        seed,
        ..ServeConfig::default()
    };
    let keys = serve_keys(&cfg, seed, step, n);
    let gap = Duration::from_secs_f64(1.0 / rate as f64);
    let epoch = Arc::new(Epoch::default());
    let mut reader = PacedReader {
        keys: keys.clone(),
        gap,
        epoch: Arc::clone(&epoch),
        next: 0,
        buf: Vec::new(),
        pos: 0,
        max_lag: Duration::ZERO,
    };
    let mut rec = Recorder {
        gap,
        epoch,
        partial: Vec::new(),
        latency_ms: vec![None; n],
        ok: 0,
        gave_up: 0,
        shed: 0,
        bad: 0,
    };
    let t = Instant::now();
    let result = serve(&mut reader, &mut rec, &cfg);
    let wall_s = t.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let missing = rec.latency_ms.iter().filter(|l| l.is_none()).count() as u64;
    let sent = n as u64;
    let mut events = 0;
    match result {
        Err(e) => failures.push(format!("serve failed: {e}")),
        Ok(stats) => {
            events = stats.report.sim_events;
            if stats.served != sent || stats.malformed != 0 {
                failures.push(format!(
                    "served {} malformed {} of {sent} sent",
                    stats.served, stats.malformed
                ));
            }
            let r = &stats.report;
            if (r.completed, r.gave_up, r.shed) != (rec.ok, rec.gave_up, rec.shed) {
                failures.push(format!(
                    "engine counted {} ok, {} gave_up, {} shed; responses say {}, {}, {}",
                    r.completed, r.gave_up, r.shed, rec.ok, rec.gave_up, rec.shed
                ));
            }
            // With every request answered ok, the served join output must
            // be the reference join's.
            if rec.ok == sent {
                let store = serve_store(&cfg);
                let mut udfs = jl_store::UdfRegistry::new();
                udfs.register(UDF, Arc::new(jl_store::DigestUdf { out_bytes: 256 }));
                let tuples = serve_tuples(&cfg, &keys, rate);
                let r = reference_run(&store, &udfs, &JobPlan::single(0, UDF), &tuples);
                if r.fingerprint != stats.report.fingerprint {
                    failures.push("served join output differs from the reference".into());
                }
            }
        }
    }
    if missing != 0 || rec.bad != 0 {
        failures.push(format!(
            "{missing} requests unanswered, {} bad or duplicate responses",
            rec.bad
        ));
    }
    if rec.ok + rec.gave_up + rec.shed != sent {
        failures.push(format!(
            "outcomes do not add up: {} ok + {} gave_up + {} shed != {sent} sent",
            rec.ok, rec.gave_up, rec.shed
        ));
    }

    // A request that failed counts as missing every latency limit.
    let mut all: Vec<f64> = rec
        .latency_ms
        .iter()
        .map(|l| l.unwrap_or(f64::INFINITY))
        .collect();
    all.sort_by(f64::total_cmp);
    let ok: Vec<f64> = all.iter().copied().filter(|l| l.is_finite()).collect();
    // With nothing answered ok there is no ok latency; the step's shed
    // and gave-up counts say why.
    let ok_quantile = |q: f64| if ok.is_empty() { 0.0 } else { quantile(&ok, q) };
    Step {
        rate,
        sent,
        ok: rec.ok,
        gave_up: rec.gave_up,
        shed: rec.shed,
        missing,
        p50_ms: ok_quantile(0.50),
        p99_ms: ok_quantile(0.99),
        p99_all_ms: quantile(&all, 0.99),
        lag_ms: reader.max_lag.as_secs_f64() * 1e3,
        wall_s,
        events,
        failures,
    }
}
