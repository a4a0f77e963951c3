//! Client + load generator for the counter service.
//!
//! [`Client`] is the minimal blocking JSONL client (one connection,
//! sequenced requests, update lines surfaced or skipped). [`run_load`]
//! drives a configurable hit/miss mix against a running daemon from
//! many client threads and audits the service's contract while it
//! measures it:
//!
//! * **No lost or duplicated responses** — every submit is retried
//!   through backpressure until it yields exactly one terminal
//!   response, and the satisfied count must equal the request count.
//! * **Byte-identical replays** — the first response for each key
//!   records a checksum + length of the spliced `result` bytes; every
//!   later response for that key must match exactly.
//! * **Rejects only via the backpressure path** — any `ok:false`
//!   other than `backpressure` counts as a failure.
//!
//! The mix is controlled by `distinct`: request *i* carries seed
//! `i % distinct`, so a 10 000-request run over 16 distinct seeds is
//! 16 misses and ~9 984 hits/joins once the cache is warm.

use crate::proto::{result_payload, SubmitReq};
use bgp_trace::json::Obj;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A blocking JSONL protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a daemon.
    ///
    /// # Errors
    /// [`std::io::Error`] on connect failure.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and return the terminal response,
    /// passing any `update` lines to `on_update`.
    ///
    /// # Errors
    /// [`std::io::Error`] on socket failure or a connection closed
    /// before the terminal response.
    pub fn request_with_updates(
        &mut self,
        line: &str,
        mut on_update: impl FnMut(&str),
    ) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut buf = String::new();
        loop {
            buf.clear();
            if self.reader.read_line(&mut buf)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before the terminal response",
                ));
            }
            if buf.trim_start().starts_with("{\"update\"") {
                on_update(buf.trim_end());
            } else {
                return Ok(buf.trim_end().to_string());
            }
        }
    }

    /// Send one request line and return the terminal response,
    /// discarding updates.
    ///
    /// # Errors
    /// Same as [`Client::request_with_updates`].
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.request_with_updates(line, |_| {})
    }
}

/// Pull the raw text of a `"key":value` member out of a response line
/// (first occurrence — envelope members precede the spliced result).
pub fn raw_member<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = if let Some(inner) = rest.strip_prefix('"') {
        // String member; keys/tokens in the envelope never contain
        // escapes, so scan to the bare closing quote.
        inner.find('"')? + 2
    } else {
        rest.find([',', '}']).unwrap_or(rest.len())
    };
    Some(&rest[..end])
}

/// A string member's unquoted value (envelope members only).
pub fn str_member<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let raw = raw_member(line, key)?;
    raw.strip_prefix('"')?.strip_suffix('"')
}

/// A u64 member's value (envelope members only).
pub fn u64_member(line: &str, key: &str) -> Option<u64> {
    raw_member(line, key)?.parse().ok()
}

/// Load-run shape.
#[derive(Clone, Copy, Debug)]
pub struct LoadConfig {
    /// Daemon to target.
    pub addr: SocketAddr,
    /// Total submit requests that must be satisfied.
    pub requests: u64,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Distinct seeds in the mix (distinct cache keys ≈ cold misses).
    pub distinct: u64,
    /// The submission template (seed is overridden per request).
    pub template: SubmitReq,
}

impl LoadConfig {
    /// A standard run against `addr`: 10 000 requests, 8 connections,
    /// 16 distinct keys.
    pub fn standard(addr: SocketAddr) -> LoadConfig {
        LoadConfig {
            addr,
            requests: 10_000,
            concurrency: 8,
            distinct: 16,
            template: SubmitReq::default(),
        }
    }
}

/// What a load run measured (and audited).
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests the run was asked to satisfy.
    pub requests: u64,
    /// Terminal `ok:true` responses received (must equal `requests`).
    pub satisfied: u64,
    /// Responses served from the cache.
    pub hits: u64,
    /// Responses that ran the job.
    pub misses: u64,
    /// Responses coalesced onto an in-flight job.
    pub joined: u64,
    /// Backpressure rejections absorbed (each was retried).
    pub rejects: u64,
    /// Non-backpressure errors (must be 0).
    pub failures: u64,
    /// Distinct cache keys in the mix.
    pub distinct: u64,
    /// Wall-clock for the whole run.
    pub wall_ms: u64,
    /// Satisfied requests per second.
    pub throughput_rps: f64,
    /// Median per-request latency (µs), including retries.
    pub p50_us: u64,
    /// 90th-percentile latency (µs).
    pub p90_us: u64,
    /// 99th-percentile latency (µs).
    pub p99_us: u64,
    /// Worst latency (µs).
    pub max_us: u64,
    /// Whether every repeat response matched the first byte-for-byte.
    pub byte_identical: bool,
}

impl LoadReport {
    /// Cache hit rate over satisfied requests.
    pub fn hit_rate(&self) -> f64 {
        if self.satisfied == 0 {
            0.0
        } else {
            self.hits as f64 / self.satisfied as f64
        }
    }

    /// Whether the run upheld the service contract.
    pub fn contract_held(&self) -> bool {
        self.satisfied == self.requests && self.failures == 0 && self.byte_identical
    }

    /// Render as a JSON object (the `BENCH_serve.json` payload).
    pub fn to_json(&self) -> String {
        Obj::new()
            .field_u64("requests", self.requests)
            .field_u64("satisfied", self.satisfied)
            .field_u64("hits", self.hits)
            .field_u64("misses", self.misses)
            .field_u64("joined", self.joined)
            .field_u64("rejects", self.rejects)
            .field_u64("failures", self.failures)
            .field_u64("distinct_keys", self.distinct)
            .field_f64("hit_rate", self.hit_rate())
            .field_u64("wall_ms", self.wall_ms)
            .field_f64("throughput_rps", self.throughput_rps)
            .field_u64("p50_us", self.p50_us)
            .field_u64("p90_us", self.p90_us)
            .field_u64("p99_us", self.p99_us)
            .field_u64("max_us", self.max_us)
            .field_bool("byte_identical", self.byte_identical)
            .field_bool("contract_held", self.contract_held())
            .finish()
    }
}

/// First-response record for one key: `(len, checksum)` of the raw
/// result bytes.
type Fingerprints = Mutex<HashMap<String, (usize, u64)>>;

#[derive(Default)]
struct Tally {
    satisfied: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    joined: AtomicU64,
    rejects: AtomicU64,
    failures: AtomicU64,
    mismatches: AtomicU64,
}

/// Drive the configured mix against the daemon and audit the replies.
///
/// # Errors
/// [`std::io::Error`] when a connection cannot be established or dies
/// mid-run (the daemon vanishing is an infrastructure failure, not a
/// measured outcome).
pub fn run_load(cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    let next = AtomicU64::new(0);
    let tally = Tally::default();
    let prints: Fingerprints = Mutex::new(HashMap::new());
    let started = Instant::now();

    let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.concurrency.max(1))
            .map(|_| {
                let (next, tally, prints) = (&next, &tally, &prints);
                scope.spawn(move || load_worker(cfg, next, tally, prints))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker must not panic"))
            .collect::<std::io::Result<Vec<_>>>()
    })?;

    let wall = started.elapsed();
    let mut lat: Vec<u64> = latencies.into_iter().flatten().collect();
    lat.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lat.is_empty() {
            0
        } else {
            lat[((lat.len() - 1) as f64 * p) as usize]
        }
    };
    let satisfied = tally.satisfied.load(Ordering::Relaxed);
    Ok(LoadReport {
        requests: cfg.requests,
        satisfied,
        hits: tally.hits.load(Ordering::Relaxed),
        misses: tally.misses.load(Ordering::Relaxed),
        joined: tally.joined.load(Ordering::Relaxed),
        rejects: tally.rejects.load(Ordering::Relaxed),
        failures: tally.failures.load(Ordering::Relaxed),
        distinct: cfg.distinct.max(1),
        wall_ms: wall.as_millis() as u64,
        throughput_rps: satisfied as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: pct(0.50),
        p90_us: pct(0.90),
        p99_us: pct(0.99),
        max_us: lat.last().copied().unwrap_or(0),
        byte_identical: tally.mismatches.load(Ordering::Relaxed) == 0,
    })
}

fn load_worker(
    cfg: &LoadConfig,
    next: &AtomicU64,
    tally: &Tally,
    prints: &Fingerprints,
) -> std::io::Result<Vec<u64>> {
    let mut client = Client::connect(cfg.addr)?;
    let mut lat = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= cfg.requests {
            return Ok(lat);
        }
        let req = SubmitReq {
            seed: i % cfg.distinct.max(1),
            ..cfg.template
        };
        let line = req.encode();
        let started = Instant::now();
        loop {
            let resp = client.request(&line)?;
            if let Some(outcome) = str_member(&resp, "cache") {
                match outcome {
                    "hit" => tally.hits.fetch_add(1, Ordering::Relaxed),
                    "miss" => tally.misses.fetch_add(1, Ordering::Relaxed),
                    _ => tally.joined.fetch_add(1, Ordering::Relaxed),
                };
                tally.satisfied.fetch_add(1, Ordering::Relaxed);
                audit_payload(&resp, tally, prints);
                break;
            }
            if str_member(&resp, "error") == Some("backpressure") {
                tally.rejects.fetch_add(1, Ordering::Relaxed);
                let wait = u64_member(&resp, "retry_after_ms").unwrap_or(50);
                std::thread::sleep(Duration::from_millis(wait.clamp(5, 2_000)));
                continue;
            }
            // draining / job-failed / bad-request: terminal, audited
            // as contract failures.
            tally.failures.fetch_add(1, Ordering::Relaxed);
            break;
        }
        lat.push(started.elapsed().as_micros() as u64);
    }
}

/// Check the spliced result bytes against the first response seen for
/// this key.
fn audit_payload(resp: &str, tally: &Tally, prints: &Fingerprints) {
    let (Some(key), Some(payload)) = (str_member(resp, "key"), result_payload(resp)) else {
        tally.mismatches.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let print = (payload.len(), bgp_arch::wire::checksum(payload.as_bytes()));
    let mut map = prints.lock().unwrap_or_else(|e| e.into_inner());
    if *map.entry(key.to_string()).or_insert(print) != print {
        tally.mismatches.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_extraction_reads_the_envelope_not_the_payload() {
        let line = r#"{"ok":true,"cache":"hit","key":"aa","queue_ms":3,"result":{"key":"bb","cache_line":9}}"#;
        assert_eq!(str_member(line, "cache"), Some("hit"));
        assert_eq!(str_member(line, "key"), Some("aa"));
        assert_eq!(u64_member(line, "queue_ms"), Some(3));
        assert_eq!(raw_member(line, "ok"), Some("true"));
        assert_eq!(str_member(line, "absent"), None);
    }

    #[test]
    fn report_json_and_contract() {
        let mut r = LoadReport {
            requests: 10,
            satisfied: 10,
            hits: 8,
            byte_identical: true,
            ..LoadReport::default()
        };
        assert!(r.contract_held());
        assert!((r.hit_rate() - 0.8).abs() < 1e-12);
        let json = r.to_json();
        assert!(json.contains("\"hits\":8"));
        assert!(json.contains("\"contract_held\":true"));
        r.failures = 1;
        assert!(!r.contract_held());
    }
}
