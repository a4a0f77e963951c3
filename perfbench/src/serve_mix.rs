//! `serve-mix`: an in-process `bgp-serve` daemon on loopback under a
//! closed loop of MG class-S submissions.
//!
//! [`CONNECTIONS`] clients share one seeded request stream. Every
//! [`MISS_EVERY`]-th request carries a first-seen fault seed, so the
//! daemon must run a job (a miss); every other request repeats a seed
//! drawn from those issued before it — a hit once that job finished, a
//! join while it still runs. Each client sends its next request only
//! after the previous one was answered.

use crate::spans::Tracer;
use crate::{stats, Metrics, Outcome};
use bgp_arch::rng::SimRng;
use bgp_serve::load::{raw_member, str_member, u64_member, Client};
use bgp_serve::proto::{result_payload, CacheOutcome, Request, SubmitReq};
use bgp_serve::server::{Server, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Client connections (and client threads): no more than the host's 2
/// CPUs.
pub const CONNECTIONS: usize = 2;
/// One request in this many is a miss: the mix of `fig_ext_service`,
/// whose committed `BENCH_serve.json` sends 12,000 requests over 16
/// keys. At that share the serve path, not the simulator, takes most of
/// the clients' time.
pub const MISS_EVERY: u64 = 750;
/// Daemon start-ups timed for `setup_s`. Each leaves sockets in
/// `TIME_WAIT` for a minute, so many more per run would exhaust the
/// host's ephemeral ports across back-to-back runs and slow start-up.
const SETUP_REPS: usize = 200;
/// The closed loop runs in this many stretches with a burst of
/// start-ups before each. Start-up time follows how fast the host wakes
/// idle threads, which drifts over seconds; bursts spread over the run
/// sample that drift instead of one moment of it.
const SEGMENTS: usize = 5;
/// `peak_rss_mb` is read once this many misses were answered, so it
/// covers the same number of cached results in every run.
const RSS_AT_MISSES: u64 = 32;

/// The outcome of one send.
pub enum Reply {
    /// A terminal answer.
    Answered(CacheOutcome),
    /// Refused with backpressure: send the same request again after
    /// this long.
    Retry(Duration),
    /// Any other failure.
    Failed(String),
}

/// One answered request, timed from its first send to its answer.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// How it was answered.
    pub answer: CacheOutcome,
    /// First send.
    pub start: Instant,
    /// Terminal answer.
    pub end: Instant,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A closed loop: take the next request, send it until answered, repeat
/// while `until` has not passed. A request refused with backpressure
/// counts once, timed from its first send, so the wait shows in its
/// latency; a failed request is recorded in `fails` and not timed.
pub fn closed_loop<R>(
    until: Instant,
    mut next: impl FnMut() -> R,
    mut send: impl FnMut(&R) -> Reply,
    samples: &mut Vec<Sample>,
    fails: &mut Vec<String>,
) {
    while Instant::now() < until {
        let req = next();
        let start = Instant::now();
        loop {
            match send(&req) {
                Reply::Answered(answer) => {
                    samples.push(Sample {
                        answer,
                        start,
                        end: Instant::now(),
                    });
                    break;
                }
                Reply::Retry(after) => std::thread::sleep(after),
                Reply::Failed(e) => {
                    fails.push(e);
                    break;
                }
            }
        }
    }
}

/// The seeded request stream shared by the clients.
pub struct RequestStream {
    rng: SimRng,
    base: u64,
    issued: Vec<u64>,
    sent: u64,
}

impl RequestStream {
    /// The stream for benchmark seed `seed`.
    pub fn new(seed: u64) -> RequestStream {
        RequestStream {
            rng: SimRng::seed_from_u64(seed),
            base: 1 + (seed << 32),
            issued: Vec::new(),
            sent: 0,
        }
    }

    /// The fault seed of the next submission.
    pub fn next_seed(&mut self) -> u64 {
        let i = self.sent;
        self.sent += 1;
        if i.is_multiple_of(MISS_EVERY) {
            let fresh = self.base + i;
            self.issued.push(fresh);
            fresh
        } else {
            self.issued[self.rng.gen_range(0..self.issued.len())]
        }
    }
}

fn submit(seed: u64) -> String {
    SubmitReq {
        seed,
        ..SubmitReq::default()
    }
    .encode()
}

/// Classify a response line, checking that every answer for a seed
/// carries byte-identical result bytes.
fn classify(resp: &str, seed: u64, results: &Mutex<HashMap<u64, (u64, usize)>>) -> Reply {
    if raw_member(resp, "ok") != Some("true") {
        return match str_member(resp, "error") {
            Some("backpressure") => Reply::Retry(Duration::from_millis(
                u64_member(resp, "retry_after_ms").unwrap_or(10),
            )),
            _ => Reply::Failed(format!("seed {seed}: {resp}")),
        };
    }
    let Some(answer) = str_member(resp, "cache").and_then(CacheOutcome::parse) else {
        return Reply::Failed(format!("seed {seed}: no cache outcome in {resp}"));
    };
    let Some(payload) = result_payload(resp) else {
        return Reply::Failed(format!("seed {seed}: no result in the answer"));
    };
    let id = (bgp_arch::wire::checksum(payload.as_bytes()), payload.len());
    let mut seen = results.lock().expect("result map poisoned");
    match *seen.entry(seed).or_insert(id) {
        first if first == id => Reply::Answered(answer),
        _ => Reply::Failed(format!(
            "seed {seed}: a replay differs from the first answer"
        )),
    }
}

fn daemon_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: CONNECTIONS,
        job_sim_threads: crate::batch::SIM_THREADS,
        quiet: true,
        ..ServerConfig::default()
    }
}

/// Durations of the `setup` spans, in seconds.
fn setup_times(t: &Tracer) -> Vec<f64> {
    t.spans()
        .iter()
        .filter(|s| s.name == "setup")
        .map(|s| s.duration().as_secs_f64())
        .collect()
}

/// Time `n` daemon start-ups, each from bind to the first answered
/// `ping`, one after another; the last daemon is left running.
fn start_ups(t: &mut Tracer, n: usize, fails: &mut Vec<String>) -> Option<ServerHandle> {
    let mut handle: Option<ServerHandle> = None;
    for _ in 0..n {
        if let Some(h) = handle.take() {
            h.shutdown();
        }
        let started = t.span("setup", |_| {
            let h = Server::spawn(daemon_config()).map_err(|e| format!("bind: {e}"))?;
            let pong = Client::connect(h.addr())
                .and_then(|mut c| c.request(&Request::Ping.encode()))
                .map_err(|e| format!("ping: {e}"))?;
            if !pong.contains("\"pong\":true") {
                return Err(format!("ping answered {pong}"));
            }
            Ok(h)
        });
        match started {
            Ok(h) => handle = Some(h),
            Err(e) => fails.push(e),
        }
    }
    handle
}

/// Run the workload for `budget`: [`SEGMENTS`] stretches of the closed
/// loop against one daemon, each after a burst of timed start-ups of
/// other daemons, so `setup_s` samples the host across the whole run.
pub fn run(seed: u64, budget: Duration, traced: bool) -> Outcome {
    println!(
        "seed {seed}: picks the request order and the miss keys; {CONNECTIONS} connections, \
         1 miss in {MISS_EVERY}"
    );
    let begin = Instant::now();
    let mut t = Tracer::default();
    let mut fails = Vec::new();
    let burst = SETUP_REPS / SEGMENTS;
    let Some(daemon) = start_ups(&mut t, burst, &mut fails) else {
        return Outcome {
            attempted: 1,
            failed: 1,
            metrics: Metrics::default(),
            tracer: t,
        };
    };

    let stream = Mutex::new(RequestStream::new(seed));
    let results = Mutex::new(HashMap::new());
    let addr = daemon.addr();
    let (answered_misses, rss_mark) = (AtomicU64::new(0), OnceLock::new());
    let mut stream_cpu_s = 0.0;
    let mut per_conn: Vec<(Instant, Instant, Vec<Sample>, Vec<String>)> = Vec::new();
    for seg in 1..=SEGMENTS as u32 {
        if seg > 1 {
            if let Some(h) = start_ups(&mut t, burst, &mut fails) {
                h.shutdown();
            }
        }
        let until = begin + budget * seg / SEGMENTS as u32;
        let cpu_start = stats::cpu_seconds();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    s.spawn(|| {
                        let (mut samples, mut fails) = (Vec::new(), Vec::new());
                        let start = Instant::now();
                        match Client::connect(addr) {
                            Ok(mut client) => closed_loop(
                                until,
                                || stream.lock().expect("stream poisoned").next_seed(),
                                |&seed| match client.request(&submit(seed)) {
                                    Ok(resp) => {
                                        let reply = classify(&resp, seed, &results);
                                        if matches!(reply, Reply::Answered(CacheOutcome::Miss))
                                            && answered_misses.fetch_add(1, Ordering::Relaxed) + 1
                                                == RSS_AT_MISSES
                                        {
                                            rss_mark.get_or_init(stats::peak_rss_mb);
                                        }
                                        reply
                                    }
                                    Err(e) => Reply::Failed(format!("seed {seed}: {e}")),
                                },
                                &mut samples,
                                &mut fails,
                            ),
                            Err(e) => fails.push(format!("connect: {e}")),
                        }
                        (start, Instant::now(), samples, fails)
                    })
                })
                .collect();
            per_conn.extend(
                workers
                    .into_iter()
                    .map(|w| w.join().expect("client thread panicked")),
            );
        });
        stream_cpu_s += stats::cpu_seconds() - cpu_start;
    }
    let stats_line = Client::connect(addr).and_then(|mut c| c.request(&Request::Stats.encode()));
    daemon.shutdown();
    let setups = setup_times(&t);
    println!(
        "setup: {} start-ups, p50 {:.6} s, p90 {:.6} s",
        setups.len(),
        stats::median(&setups),
        stats::percentile(&setups, 90.0)
    );

    let samples: Vec<Sample> = per_conn.iter().flat_map(|c| c.2.iter().copied()).collect();
    fails.extend(per_conn.iter().flat_map(|c| c.3.iter().cloned()));
    let lat = |a: CacheOutcome| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.answer == a)
            .map(Sample::ms)
            .collect()
    };
    let (hits, misses, joined) = (
        lat(CacheOutcome::Hit),
        lat(CacheOutcome::Miss),
        lat(CacheOutcome::Joined),
    );
    for (name, xs) in [("hit", &hits), ("miss", &misses), ("joined", &joined)] {
        let tail = stats::tail_percentile(xs.len())
            .filter(|&p| p > 50.0)
            .map_or(String::new(), |p| {
                format!(", p{p} {:.3} ms", stats::percentile(xs, p))
            });
        println!(
            "{name}: n={} p50 {:.3} ms{tail}",
            xs.len(),
            stats::median(xs)
        );
    }
    let distinct = stream.lock().expect("stream poisoned").issued.len() as f64;
    let stat = |k: &str| -> f64 {
        stats_line
            .as_deref()
            .ok()
            .and_then(|l| u64_member(l, k))
            .map_or(0.0, |v| v as f64)
    };
    match &stats_line {
        Ok(l) => println!("daemon stats: {l}"),
        Err(e) => fails.push(format!("stats: {e}")),
    }
    if samples.is_empty() {
        fails.push("no request was answered".into());
    }
    if stat("rejected_draining") + stat("bad_requests") + stat("failed") > 0.0 {
        fails.push("the daemon refused or failed requests other than by backpressure".into());
    }
    for f in &fails {
        println!("failed: {f}");
    }

    let mut m = Metrics::default();
    if traced {
        for (start, end, samples, _) in &per_conn {
            let conn = t.record("serve.conn", *start, *end);
            for (name, a) in [
                ("serve.hit", CacheOutcome::Hit),
                ("serve.miss", CacheOutcome::Miss),
                ("serve.joined", CacheOutcome::Joined),
            ] {
                let mine: Vec<&Sample> = samples.iter().filter(|s| s.answer == a).collect();
                let total = mine.iter().map(|s| s.end - s.start).sum();
                t.collapsed(name, conn, total, mine.len() as u64);
            }
        }
        let jobs_run = stat("completed");
        m.set("serve.hits", stat("hits"));
        m.set("serve.misses", stat("misses"));
        m.set("serve.joined", stat("joined"));
        m.set(
            "serve.rejects",
            stat("rejected_backpressure") + stat("rejected_draining"),
        );
        m.set("serve.jobs_run", jobs_run);
        m.set("serve.dup_runs", jobs_run - distinct);
        m.set("serve.hit_ratio", stat("hits") / stat("submits").max(1.0));
        m.set("serve.job_p50_ms", stat("latency_p50_ms"));
        m.set("serve.hit_p50_ms", stats::median(&hits));
        m.set("serve.hit_p90_ms", stats::percentile(&hits, 90.0));
        m.set("serve.miss_p50_ms", stats::median(&misses));
        // The spans reuse timestamps the untraced run takes anyway, so
        // tracing adds no work to this workload.
        m.set("bench.span_overhead_pct", 0.0);
    } else {
        m.set("setup_s", stats::median(&setups));
        let all: Vec<f64> = samples.iter().map(Sample::ms).collect();
        m.set("job_s", stats::median(&all) / 1e3);
        m.set("peak_rss_mb", *rss_mark.get_or_init(stats::peak_rss_mb));
        if stream_cpu_s > 0.0 {
            m.set("throughput_rps", samples.len() as f64 / stream_cpu_s);
        }
    }
    Outcome {
        attempted: (samples.len() + fails.len()) as u64,
        failed: fails.len() as u64,
        metrics: m,
        tracer: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_keeps_the_miss_share() {
        let take = |seed| {
            let mut s = RequestStream::new(seed);
            (0..10 * MISS_EVERY)
                .map(|_| s.next_seed())
                .collect::<Vec<_>>()
        };
        let a = take(5);
        assert_eq!(a, take(5));
        assert_ne!(a, take(6));
        let mut seen = std::collections::HashSet::new();
        let first_seen = a.iter().filter(|&&s| seen.insert(s)).count();
        assert_eq!(first_seen, 10);
        assert!(
            a.iter().all(|&s| s != 0),
            "seed 0 would be the clean machine"
        );
    }

    #[test]
    fn closed_loop_times_each_request_once_from_its_first_send() {
        let nap = Duration::from_millis(2);
        let until = Instant::now() + Duration::from_millis(150);
        let (mut samples, mut fails, mut sent) = (Vec::new(), Vec::new(), Vec::new());
        let (mut id, mut k) = (0u32, 0u32);
        closed_loop(
            until,
            || {
                id += 1;
                id
            },
            |&req| {
                sent.push(req);
                std::thread::sleep(nap);
                k += 1;
                match k % 5 {
                    1 => Reply::Answered(CacheOutcome::Miss),
                    2 => Reply::Retry(nap),
                    3 => Reply::Answered(CacheOutcome::Hit),
                    4 => Reply::Failed(format!("request {req}")),
                    _ => Reply::Answered(CacheOutcome::Joined),
                }
            },
            &mut samples,
            &mut fails,
        );
        assert!(samples.len() >= 6, "only {} samples", samples.len());
        // Each request is one sample or one failure, however often it
        // was sent; a retried request is timed across both sends.
        let mut distinct = sent.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), samples.len() + fails.len());
        let pattern = [CacheOutcome::Miss, CacheOutcome::Hit, CacheOutcome::Joined];
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.answer, pattern[i % 3]);
            let floor = if s.answer == CacheOutcome::Hit {
                nap * 3
            } else {
                nap
            };
            assert!(
                s.end - s.start >= floor,
                "sample {i} shorter than its sends"
            );
            assert!(s.start < until, "no request starts after the deadline");
        }
        assert!(
            samples.windows(2).all(|w| w[0].end <= w[1].start),
            "one request at a time"
        );
        // Every fourth request fails: after each Miss, Hit pair.
        let pairs = (samples.len() + 1) / 3;
        assert!(
            fails.len() == pairs || fails.len() + 1 == pairs,
            "{} fails",
            fails.len()
        );
    }
}
