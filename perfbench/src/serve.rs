//! The `serve_mix` workload: the `sweep-server` binary on loopback,
//! driven in a closed loop over two connections, and the short server
//! probe the sweep workloads' traced runs make.
//!
//! The load generator frames requests itself — one `write` per request
//! on a `TCP_NODELAY` socket — and does not use the server crate's
//! client module, so only the server's side of the transport is
//! measured. Most requests repeat a warmed hot set (cache hits); the
//! rest are small cold specs with unique seed lists, so cache inserts
//! sit beside reads. Every response is checked after the timed window
//! against an in-process `SweepSpec::try_run` of the same spec.

use crate::report::{median, peak_rss_mb, quantile, since, splitmix, time_per_op, Report};
use crate::spec::{derived_seeds, Reference, Resolved, SweepReq};
use crate::sweeps;
use nplus_server::json::{self, Json};
use nplus_server::protocol::{
    parse_request, stats_to_json, sweep_response, write_json_frame, Request,
};
use nplus_server::ResultCache;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `serve_mix` requests that are cold specs.
const COLD_SHARE: f64 = 0.4;
/// Server start-ups per `serve_mix` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Connections of the closed loop.
const CONNECTIONS: u64 = 2;
/// Hit loop of the sweep workloads' server probe, seconds.
const PROBE_S: f64 = 2.0;
/// Shortest batch of an in-process stage timing, seconds.
const STAGE_BATCH_S: f64 = 0.005;
/// Longest a single response may take before the run fails.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// What a correct response carries: the key and the stats JSON.
struct Expected {
    key_hex: String,
    stats_json: String,
}

impl Expected {
    fn new(r: &Resolved, reference: &Reference) -> Self {
        Expected {
            key_hex: r.canonical.key_hex(),
            stats_json: stats_to_json(&reference.stats).to_string_compact(),
        }
    }
}

/// Runs a cold spec in-process; returns what its response must carry
/// and the `to_spec` + `try_run` seconds.
fn expected_cold(req: &SweepReq) -> Result<(Expected, f64), String> {
    let r = Resolved::new(req)?;
    let t = Instant::now();
    let stats = r.spec(1)?.try_run().map_err(|e| e.to_string())?;
    let compute_s = since(t);
    Ok((Expected::new(&r, &Reference::new(stats)), compute_s))
}

/// Checks one response against its expectation; `Err` names the defect.
fn check_response(body: &[u8], want: &Expected, cache_hit: bool) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    if doc.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("status not ok: {}", &text[..text.len().min(200)]));
    }
    if doc.get("key").and_then(Json::as_str) != Some(want.key_hex.as_str()) {
        return Err("key differs from the canonical key".to_string());
    }
    if doc.get("cache_hit") != Some(&Json::Bool(cache_hit)) {
        return Err(format!("cache_hit is not {cache_hit}"));
    }
    // Byte identity of the stats member as it came off the wire.
    if !text.contains(&format!("\"stats\":{}", want.stats_json)) {
        return Err("stats bytes differ from the in-process sweep".to_string());
    }
    Ok(())
}

/// The hot set: warmed once, then repeated. One `city:1024` spec makes
/// canonicalization and serialization expensive on its hits.
fn hot_set(seed: u64) -> Vec<SweepReq> {
    let req = |scenario: &str, environment, policies: &[&'static str], seeds, rounds| SweepReq {
        scenario: scenario.to_string(),
        environment,
        policies: policies.to_vec(),
        seeds,
        rounds,
    };
    let trio = ["dot11n", "beamforming", "nplus"];
    vec![
        req(
            "three_pairs",
            "sigcomm11",
            &trio,
            derived_seeds(seed, 0x407A, 4),
            10,
        ),
        req(
            "pairs:4",
            "sigcomm11",
            &["dot11n", "nplus"],
            derived_seeds(seed, 0x407B, 3),
            8,
        ),
        req(
            "ap_downlink",
            "sigcomm11",
            &trio,
            derived_seeds(seed, 0x407C, 3),
            8,
        ),
        req(
            "city:1024",
            "multi_cell",
            &["nplus"],
            derived_seeds(seed, 0x407D, 1),
            2,
        ),
    ]
}

/// The `index`-th cold spec of the run: a small scenario with a seed
/// list no other request uses.
fn cold_spec(cold_base: u64, index: u64, pick: u64) -> SweepReq {
    let first = cold_base + 2 * index;
    let (scenario, environment) = match pick % 4 {
        0 => (format!("pairs:{}", 2 + pick / 4 % 3), "sigcomm11"),
        1 => (format!("hidden:{}", 2 + pick / 4 % 2), "sigcomm11"),
        2 => (format!("asym:{}", 2 + pick / 4 % 2), "sigcomm11"),
        _ => ("load:poisson:0.5/city:16".to_string(), "multi_cell"),
    };
    SweepReq {
        scenario,
        environment,
        policies: vec!["dot11n", "nplus"],
        seeds: vec![first, first + 1],
        rounds: 4,
    }
}

/// A spawned `sweep-server` and its address.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout not captured".to_string());
        };
        let mut stdout = BufReader::new(out);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().rsplit(' ').next().unwrap_or("").to_string();
        if read.is_err() || !addr.starts_with("127.0.0.1:") {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected server banner {line:?}"));
        }
        Ok(Server {
            child,
            stdout,
            addr,
        })
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| format!("timeout: {e}"))?;
        Ok(s)
    }

    /// The `stats` command's document.
    fn counters(&self) -> Result<Json, String> {
        let body = roundtrip(&mut self.connect()?, b"{\"cmd\":\"stats\"}")?;
        json::parse(&String::from_utf8_lossy(&body)).map_err(|e| format!("stats JSON: {e}"))
    }

    /// Sends `shutdown` and waits for the process; kills it if it does
    /// not exit within a few seconds.
    fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut s| roundtrip(&mut s, b"{\"cmd\":\"shutdown\"}").map(drop));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return match (asked, status.success()) {
                        (Ok(()), true) => Ok(()),
                        (Err(e), _) => Err(format!("shutdown request failed: {e}")),
                        (_, false) => Err(format!("server exited with {status}")),
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after shutdown".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    /// A safety net for early returns: a server still running is killed
    /// (a stopped one has already exited and this does nothing).
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request/response exchange: the frame goes out in one write; the
/// call returns when the last response byte is read.
fn roundtrip(stream: &mut TcpStream, payload: &[u8]) -> Result<Vec<u8>, String> {
    let len = u32::try_from(payload.len()).map_err(|_| "request too large".to_string())?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    stream
        .write_all(&frame)
        .map_err(|e| format!("write: {e}"))?;
    let mut prefix = [0u8; 4];
    stream
        .read_exact(&mut prefix)
        .map_err(|e| format!("read prefix: {e}"))?;
    let n = u32::from_be_bytes(prefix) as usize;
    if n > nplus_server::MAX_FRAME {
        return Err(format!("response frame of {n} bytes"));
    }
    let mut body = vec![0u8; n];
    stream
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(body)
}

/// A started server whose hot set has been computed once.
struct Warm {
    server: Server,
    /// Spawn -> ping answered -> every hot spec computed, seconds.
    setup_s: f64,
    /// Round trip of each warm-up (miss) request, seconds.
    miss_s: Vec<f64>,
}

/// Starts a server, pings it and sends every hot spec once, checking
/// that each is computed (a miss) and correct.
fn start_warm(
    name: &str,
    bin: &Path,
    hot_payloads: &[String],
    want: &[Expected],
    report: &mut Report,
) -> Result<Warm, String> {
    let t = Instant::now();
    let server = Server::spawn(bin)?;
    let warm = (|| {
        let mut s = server.connect()?;
        let pong = roundtrip(&mut s, b"{\"cmd\":\"ping\"}")?;
        if !String::from_utf8_lossy(&pong).contains("\"pong\":true") {
            return Err("ping not answered".to_string());
        }
        let mut out = Vec::new();
        for payload in hot_payloads {
            let t = Instant::now();
            let body = roundtrip(&mut s, payload.as_bytes())?;
            out.push((since(t), body));
        }
        Ok(out)
    })();
    let setup_s = since(t);
    match warm {
        Ok(out) => {
            let mut miss_s = Vec::with_capacity(out.len());
            for ((secs, body), exp) in out.iter().zip(want) {
                let verdict = check_response(body, exp, false);
                report.check(verdict.is_ok(), || format!("{name} warm-up: {verdict:?}"));
                miss_s.push(*secs);
            }
            Ok(Warm {
                server,
                setup_s,
                miss_s,
            })
        }
        Err(e) => {
            let _ = server.stop();
            Err(e)
        }
    }
}

/// A request of the mix.
enum Class {
    /// Index into the hot set.
    Hot(usize),
    Cold(SweepReq),
}

/// What one connection of the closed loop saw.
#[derive(Default)]
struct ConnLog {
    /// `(request, seconds, response)` in send order.
    samples: Vec<(Class, f64, Vec<u8>)>,
    error: Option<String>,
    last_end: f64,
}

/// The request stream of one connection.
struct Mix<'a> {
    hot_payloads: &'a [String],
    cold_share: f64,
    cold_base: u64,
}

/// One closed-loop connection until `deadline` (seconds from `origin`).
fn drive(
    server: &Server,
    mix: &Mix,
    seed: u64,
    conn: u64,
    origin: Instant,
    deadline: f64,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut stream = match server.connect() {
        Ok(s) => s,
        Err(e) => {
            log.error = Some(e);
            return log;
        }
    };
    let mut state = seed ^ (conn + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    let mut j = 0u64;
    while since(origin) < deadline {
        let draw = splitmix(&mut state);
        let cold = ((draw >> 11) as f64 / (1u64 << 53) as f64) < mix.cold_share;
        let (class, payload) = if cold {
            let spec = cold_spec(mix.cold_base, j * CONNECTIONS + conn, splitmix(&mut state));
            let payload = spec.payload();
            (Class::Cold(spec), payload)
        } else {
            let i = (splitmix(&mut state) % mix.hot_payloads.len() as u64) as usize;
            (Class::Hot(i), mix.hot_payloads[i].clone())
        };
        j += 1;
        let t = Instant::now();
        match roundtrip(&mut stream, payload.as_bytes()) {
            Ok(body) => {
                log.samples.push((class, since(t), body));
                log.last_end = since(origin);
            }
            Err(e) => {
                log.error = Some(e);
                break;
            }
        }
    }
    log
}

/// Runs `connections` closed-loop connections for `seconds`.
fn drive_all(
    server: &Server,
    mix: &Mix,
    seed: u64,
    connections: u64,
    seconds: f64,
) -> Vec<ConnLog> {
    let origin = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| s.spawn(move || drive(server, mix, seed, c, origin, seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ConnLog {
                    error: Some("load thread panicked".to_string()),
                    ..ConnLog::default()
                })
            })
            .collect()
    })
}

/// Latencies by class, in ms, and the in-process compute seconds of
/// the cold specs; every response is checked on the way.
fn check_logs(
    name: &str,
    logs: &[ConnLog],
    hot_want: &[Expected],
    report: &mut Report,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut hit_ms, mut miss_ms, mut compute_s) = (Vec::new(), Vec::new(), Vec::new());
    for log in logs {
        if let Some(e) = &log.error {
            report.check(false, || format!("{name}: connection failed: {e}"));
        }
        for (class, secs, body) in &log.samples {
            let verdict = match class {
                Class::Hot(i) => {
                    hit_ms.push(secs * 1e3);
                    check_response(body, &hot_want[*i], true)
                }
                Class::Cold(spec) => {
                    miss_ms.push(secs * 1e3);
                    expected_cold(spec).and_then(|(want, secs)| {
                        compute_s.push(secs);
                        check_response(body, &want, false)
                    })
                }
            };
            report.check(verdict.is_ok(), || format!("{name} response: {verdict:?}"));
        }
    }
    (hit_ms, miss_ms, compute_s)
}

/// Checks the `stats` command against what was sent and reports it.
fn check_counters(
    name: &str,
    counters: Result<Json, String>,
    hits: usize,
    misses: usize,
    report: &mut Report,
) {
    let doc = match counters {
        Ok(doc) => doc,
        Err(e) => {
            report.check(false, || format!("{name}: stats command: {e}"));
            return;
        }
    };
    let get = |k: &str| doc.get(k).and_then(Json::as_u64);
    let (h, m, e) = (get("hits"), get("misses"), get("entries"));
    let (sent_h, sent_m) = (Some(hits as u64), Some(misses as u64));
    report.check(h == sent_h && m == sent_m && e == sent_m, || {
        format!("{name}: counters hits={h:?} misses={m:?} entries={e:?}, sent {hits} hits and {misses} misses")
    });
    for (metric, value, what) in [
        ("server.hits", h, "stats command: cache hits"),
        ("server.misses", m, "stats command: computed specs"),
        ("server.entries", e, "stats command: cache entries"),
    ] {
        if let Some(v) = value {
            report.push(metric, v as f64, "count", what);
        }
    }
}

fn push_latencies(hit_ms: &[f64], miss_ms: &[f64], report: &mut Report) {
    let n = |xs: &[f64]| format!("first byte written -> last byte read, n={}", xs.len());
    report.push("server.hit_p50_ms", median(hit_ms), "ms", n(hit_ms));
    report.push("server.hit_p90_ms", quantile(hit_ms, 0.9), "ms", n(hit_ms));
    report.push(
        "server.hit_samples",
        hit_ms.len() as f64,
        "count",
        "hit requests timed",
    );
    report.push("server.miss_p50_ms", median(miss_ms), "ms", n(miss_ms));
    report.push(
        "server.miss_p90_ms",
        quantile(miss_ms, 0.9),
        "ms",
        n(miss_ms),
    );
    report.push(
        "server.miss_samples",
        miss_ms.len() as f64,
        "count",
        "cold requests timed",
    );
}

/// Runs `serve_mix` and returns its report.
pub fn run(seed: u64, seconds: f64, traced: bool, server_bin: &Path) -> Report {
    const NAME: &str = "serve_mix";
    let mut report = Report::default();
    let hot = hot_set(seed);
    let prepared = sweeps::resolve_all(&hot).and_then(|specs| {
        let refs = sweeps::references(&specs)?;
        Ok((specs, refs))
    });
    let (specs, refs) = match prepared {
        Ok(p) => p,
        Err(e) => {
            report.check(false, || format!("{NAME}: hot reference: {e}"));
            return report;
        }
    };
    let hot_want: Vec<Expected> = specs
        .iter()
        .zip(&refs)
        .map(|(r, f)| Expected::new(r, f))
        .collect();
    let hot_payloads: Vec<String> = hot.iter().map(SweepReq::payload).collect();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut warm = None;
    for rep in 0..SETUP_REPS {
        match start_warm(NAME, server_bin, &hot_payloads, &hot_want, &mut report) {
            Ok(w) => {
                setups.push(w.setup_s);
                if rep + 1 < SETUP_REPS {
                    if let Err(e) = w.server.stop() {
                        report.check(false, || format!("{NAME}: stop: {e}"));
                    }
                } else {
                    warm = Some(w);
                }
            }
            Err(e) => {
                report.check(false, || format!("{NAME}: start: {e}"));
                return report;
            }
        }
    }
    let Some(warm) = warm else {
        return report;
    };
    report.push(
        "setup_s",
        median(&setups),
        "s",
        format!(
            "median over {SETUP_REPS} start-ups: spawn -> ping -> {} hot specs computed",
            hot.len()
        ),
    );

    let mut state = seed ^ 0xC01D;
    let mix = Mix {
        hot_payloads: &hot_payloads,
        cold_share: COLD_SHARE,
        cold_base: (splitmix(&mut state) >> 24) & !0xFF,
    };
    let logs = drive_all(&warm.server, &mix, seed, CONNECTIONS, seconds);
    let window = logs.iter().map(|l| l.last_end).fold(0.0, f64::max);
    let counters = warm.server.counters();
    let server_rss = peak_rss_mb(&warm.server.child.id().to_string());
    if let Err(e) = warm.server.stop() {
        report.check(false, || format!("{NAME}: stop: {e}"));
    }

    // Checks and latencies, outside the timed window.
    let (hit_ms, miss_ms, compute_s) = check_logs(NAME, &logs, &hot_want, &mut report);
    check_counters(
        NAME,
        counters,
        hit_ms.len(),
        hot.len() + miss_ms.len(),
        &mut report,
    );
    let hit_p50 = median(&hit_ms);
    report.push(
        "op_p50_ms",
        hit_p50,
        "ms",
        format!(
            "cache-hit request, first byte written -> last byte read, n={}",
            hit_ms.len()
        ),
    );
    report.push(
        "ops_per_s",
        (hit_ms.len() + miss_ms.len()) as f64 / window,
        "1/s",
        format!("requests completed per second, closed loop, {CONNECTIONS} connections"),
    );
    match server_rss {
        Some(mb) => report.push("peak_rss_mb", mb, "MB", "VmHWM of the sweep-server process"),
        None => report.check(false, || "cannot read the server's VmHWM".to_string()),
    }
    for (label, xs) in [("hit", &hit_ms), ("miss", &miss_ms)] {
        if xs.len() < 100 {
            report.flags.push(format!(
                "{NAME}: {} {label} samples leave fewer than 10 beyond p90",
                xs.len()
            ));
        }
    }
    push_latencies(&hit_ms, &miss_ms, &mut report);
    report.push(
        "server.compute_ms",
        median(&compute_s) * 1e3,
        "ms",
        "in-process to_spec + try_run of the cold specs (median)",
    );

    if traced {
        stage_costs(NAME, &hot_payloads, &specs, &refs, hit_p50, &mut report);
        // Where the server's compute goes for this mix: the hot set
        // through the same traced legs as the sweep workloads.
        sweeps::trace_compute(NAME, &specs, &refs, seconds, &mut report);
    }
    report
}

/// The server leg of a sweep workload's traced run: `specs` computed
/// once each through a fresh server (misses), then repeated over one
/// connection for [`PROBE_S`] (hits), and the in-process hit stages.
pub fn probe(name: &str, bin: &Path, specs: &[Resolved], refs: &[Reference], report: &mut Report) {
    let want: Vec<Expected> = specs
        .iter()
        .zip(refs)
        .map(|(r, f)| Expected::new(r, f))
        .collect();
    let payloads: Vec<String> = specs.iter().map(|r| r.req.payload()).collect();
    let warm = match start_warm(name, bin, &payloads, &want, report) {
        Ok(w) => w,
        Err(e) => {
            report.check(false, || format!("{name}: server probe: {e}"));
            return;
        }
    };
    let mix = Mix {
        hot_payloads: &payloads,
        cold_share: 0.0,
        cold_base: 0,
    };
    let logs = drive_all(&warm.server, &mix, 0, 1, PROBE_S);
    let counters = warm.server.counters();
    if let Err(e) = warm.server.stop() {
        report.check(false, || format!("{name}: stop: {e}"));
    }
    let (hit_ms, _, _) = check_logs(name, &logs, &want, report);
    let miss_ms: Vec<f64> = warm.miss_s.iter().map(|s| s * 1e3).collect();
    check_counters(name, counters, hit_ms.len(), miss_ms.len(), report);
    push_latencies(&hit_ms, &miss_ms, report);
    stage_costs(name, &payloads, specs, refs, median(&hit_ms), report);
}

/// The hit path timed in-process on the given payloads: parse,
/// canonicalize, key, cache lookup, serialize. Each stage's figure is
/// the mean over the payloads (the load draws them uniformly) of its
/// per-payload median.
fn stage_costs(
    name: &str,
    payloads: &[String],
    specs: &[Resolved],
    refs: &[Reference],
    hit_p50_ms: f64,
    report: &mut Report,
) {
    let mut sums = [0.0f64; 5];
    let mut bytes = 0.0;
    for ((payload, r), reference) in payloads.iter().zip(specs).zip(refs) {
        let Ok(Request::Sweep(parsed)) = parse_request(payload.as_bytes()) else {
            report.check(false, || {
                format!("{name}: parse_request rejected {payload}")
            });
            return;
        };
        let Ok(canon) = parsed.to_canonical() else {
            report.check(false, || format!("{name}: to_canonical rejected {payload}"));
            return;
        };
        report.check(canon.key() == r.canonical.key(), || {
            format!("{name}: server canonical key differs for {payload}")
        });
        let stats = reference.stats.clone();
        let cache = ResultCache::new();
        let key = canon.key();
        let _ = cache.get_or_compute::<String>(key, || Ok(stats.clone()));
        let key_hex = canon.key_hex();
        let mut frame = Vec::new();
        let stages = [
            1e6 * time_per_op(STAGE_BATCH_S, || {
                std::hint::black_box(parse_request(payload.as_bytes()).is_ok());
            }),
            1e6 * time_per_op(STAGE_BATCH_S, || {
                std::hint::black_box(parsed.to_canonical().is_ok());
            }),
            1e6 * time_per_op(STAGE_BATCH_S, || {
                std::hint::black_box((canon.key(), canon.key_hex()));
            }),
            1e6 * time_per_op(STAGE_BATCH_S, || {
                let hit = cache.get_or_compute::<String>(key, || Err("miss".to_string()));
                std::hint::black_box(hit.map(|(s, h)| (Arc::strong_count(&s), h)).is_ok());
            }),
            1e6 * time_per_op(STAGE_BATCH_S, || {
                frame.clear();
                let resp = sweep_response(&key_hex, true, 0, &stats);
                std::hint::black_box(write_json_frame(&mut frame, &resp).is_ok());
            }),
        ];
        for (sum, s) in sums.iter_mut().zip(stages) {
            *sum += s;
        }
        bytes += frame.len() as f64;
    }
    let n = payloads.len() as f64;
    let names = [
        ("server.parse_us", "parse_request"),
        ("server.canonicalize_us", "SweepRequest::to_canonical"),
        ("server.key_us", "CanonicalSpec::key + key_hex"),
        ("server.cache_us", "ResultCache::get_or_compute hit"),
        (
            "server.serialize_us",
            "sweep_response + write_json_frame into a Vec",
        ),
    ];
    for ((metric, what), sum) in names.iter().zip(sums) {
        report.push(
            metric,
            sum / n,
            "us",
            format!("{what}, mean of per-payload medians"),
        );
    }
    report.push(
        "server.response_bytes",
        bytes / n,
        "bytes",
        "hit response frame, mean over payloads",
    );
    let stages_ms: f64 = sums.iter().sum::<f64>() / n / 1e3;
    report.push(
        "server.transport_wait_ms",
        hit_p50_ms - stages_ms,
        "ms",
        format!("hit p50 {hit_p50_ms:.3} ms - in-process stages {stages_ms:.4} ms"),
    );
}
