//! The sweep workloads, `fig3_grid` and `city_sparse`, and the compute
//! legs of every traced run.
//!
//! A sweep workload covers a fixed set of grids: sweep requests that
//! differ only in their seed lists, all drawn from the workload seed.
//! The untraced run times `SweepSpec::try_run` at two threads, cycling
//! through the grids. Its set-up metric and its reference statistics
//! come from a preparation pass that walks the same seed jobs serially
//! through the public medium and core calls a sweep job makes.
//!
//! The traced compute legs repeat that walk with spans around every
//! call and a phase observer on every run, then add an executor pass,
//! an untraced serial sweep, the kernels and the codec leg. `serve_mix`
//! runs the same legs over its hot set.

use crate::kernels;
use crate::report::{digest, median, quantile, since, stats_bytes, Report};
use crate::serve;
use crate::spec::{derived_seeds, Reference, Resolved, SweepReq};
use crate::trace::{PhaseObserver, PhaseTotals, Timeline};
use nplus::executor::run_indexed;
use nplus::observer::{NullObserver, RunIdentity};
use nplus::sim::{SeedResults, SimEngine, SweepJob, SweepStats};
use nplus_codec::{replay_sweep, Recording, RecordingContext, RecordingObserver};
use nplus_medium::ChannelCache;
use nplus_phy::params::occupied_subcarrier_indices;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Golden statistics digests at [`crate::DEFAULT_SEED`], one line per
/// workload: `<workload> <seed> <digest>`.
const GOLDEN: &str = include_str!("../golden.txt");

/// Threads of the end-to-end sweep, the reference pass and the
/// executor pass.
const THREADS: usize = 2;

/// One sweep workload: its grids and how often set-up is repeated.
pub struct SweepWorkload {
    pub name: &'static str,
    grids: Vec<SweepReq>,
    /// Preparation passes whose set-up times give `setup_s`'s median.
    setup_reps: usize,
}

fn grids(
    scenario: &str,
    environment: &'static str,
    policies: &[&'static str],
    rounds: usize,
    seed_lists: impl Iterator<Item = Vec<u64>>,
) -> Vec<SweepReq> {
    seed_lists
        .map(|seeds| SweepReq {
            scenario: scenario.to_string(),
            environment,
            policies: policies.to_vec(),
            seeds,
            rounds,
        })
        .collect()
}

impl SweepWorkload {
    /// The paper's Fig. 3: `three_pairs` in `sigcomm11`, the default
    /// trio, full SINR grid, 40 seeds x 40 rounds. A grid's cost varies
    /// by tens of percent with its topologies (a few draw many joins),
    /// so a run cycles through 24 grids to keep that out of the spread
    /// between runs.
    pub fn fig3_grid(seed: u64) -> Self {
        SweepWorkload {
            name: "fig3_grid",
            grids: grids(
                "three_pairs",
                "sigcomm11",
                &["dot11n", "beamforming", "nplus"],
                40,
                (0..24).map(|g| derived_seeds(seed, 0xF163 + g, 40)),
            ),
            setup_reps: 5,
        }
    }

    /// A sparse 1024-node city under Poisson load, n+ against 802.11n,
    /// 2 seeds x 16 rounds: channel-cache build and teardown dominate.
    /// With two seeds on two threads a sweep lasts as long as its slower
    /// job, so a run cycles through 3 grids.
    pub fn city_sparse(seed: u64) -> Self {
        SweepWorkload {
            name: "city_sparse",
            grids: grids(
                "load:poisson:0.5/city:1024",
                "multi_cell",
                &["nplus", "dot11n"],
                16,
                (0..3).map(|g| derived_seeds(seed, 0xC17E + g, 2)),
            ),
            setup_reps: 3,
        }
    }
}

/// Resolves every request; the first failure is the error.
pub fn resolve_all(reqs: &[SweepReq]) -> Result<Vec<Resolved>, String> {
    reqs.iter().map(Resolved::new).collect()
}

/// Serial reference statistics of every spec, two specs at a time.
pub fn references(specs: &[Resolved]) -> Result<Vec<Reference>, String> {
    run_indexed(specs.len(), THREADS, |i| specs[i].serial_stats())
        .into_iter()
        .map(|r| r.map(Reference::new))
        .collect()
}

/// Runs one sweep workload and returns its report.
pub fn run(w: &SweepWorkload, seed: u64, seconds: f64, traced: bool, server_bin: &Path) -> Report {
    let mut report = Report::default();
    let prepared = resolve_all(&w.grids).and_then(|specs| {
        let setup = setup_time(&specs, w.setup_reps)?;
        let refs = references(&specs)?;
        Ok((specs, setup, refs))
    });
    let (specs, setup, refs) = match prepared {
        Ok(p) => p,
        Err(e) => {
            report.check(false, || format!("{}: preparation failed: {e}", w.name));
            return report;
        }
    };
    let n_seeds: usize = w.grids.iter().map(|g| g.seeds.len()).sum();
    report.push(
        "setup_s",
        setup,
        "s",
        format!(
            "median over {} passes of summed topology draw + SimEngine::new over {n_seeds} seeds",
            w.setup_reps
        ),
    );
    if seed == crate::DEFAULT_SEED {
        let want = golden(w.name, seed);
        let all: Vec<u8> = refs.iter().flat_map(|r| r.bytes.iter().copied()).collect();
        let got = digest(&all);
        report.check(want.as_deref() == Some(got.as_str()), || {
            format!("{}: serial stats digest {got} != golden {want:?}", w.name)
        });
    }

    if traced {
        let serial_s = trace_compute(w.name, &specs, &refs, seconds, &mut report);
        report.push(
            "server.compute_ms",
            median(&serial_s) * 1e3,
            "ms",
            "untraced serial try_run of one grid (median over grids)",
        );
        // The first grid through the real server: one miss, then hits.
        serve::probe(w.name, server_bin, &specs[..1], &refs[..1], &mut report);
    } else {
        end_to_end(w.name, &specs, &refs, seconds, &mut report);
    }
    push_rss(&mut report);
    report
}

/// The stored golden digest of `workload` at `seed`, if any.
fn golden(workload: &str, seed: u64) -> Option<String> {
    GOLDEN.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(seed.to_string().as_str()))
            .then(|| f.next().map(str::to_string))
            .flatten()
    })
}

/// `reps` serial walks over every seed of every spec, timing topology
/// draw plus engine construction; the median of their sums.
pub fn setup_time(specs: &[Resolved], reps: usize) -> Result<f64, String> {
    let mut sums = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut sum = 0.0;
        for r in specs {
            for &seed in &r.req.seeds {
                let t = Instant::now();
                let topo = r.topology(seed)?;
                let engine = SimEngine::new(&topo, &r.scenario, &r.cfg);
                sum += since(t);
                black_box(&engine);
            }
        }
        sums.push(sum);
    }
    Ok(median(&sums))
}

/// Times `SweepSpec::try_run` at two threads for `seconds`, cycling
/// through the specs, and checks every result against its reference.
fn end_to_end(
    name: &str,
    specs: &[Resolved],
    refs: &[Reference],
    seconds: f64,
    report: &mut Report,
) {
    let sweeps = match specs
        .iter()
        .map(|r| r.spec(THREADS))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || format!("{name}: spec: {e}"));
            return;
        }
    };
    let check = |report: &mut Report, g: usize, out: Result<Vec<SweepStats>, String>| match out {
        Ok(stats) => report.check(stats_bytes(&stats) == refs[g].bytes, || {
            format!("{name}: grid {g}: 2-thread stats differ from the serial reference")
        }),
        Err(e) => report.check(false, || format!("{name}: grid {g}: try_run: {e}")),
    };
    // One untimed sweep first, so page faults and lazy allocation of
    // the first call do not land in the sample.
    check(report, 0, sweeps[0].try_run().map_err(|e| e.to_string()));
    let mut times = Vec::new();
    let start = Instant::now();
    while times.is_empty() || since(start) < seconds {
        let g = times.len() % sweeps.len();
        let t = Instant::now();
        let out = sweeps[g].try_run().map_err(|e| e.to_string());
        times.push(since(t));
        check(report, g, out);
    }
    let total: f64 = times.iter().sum();
    report.push(
        "op_p50_ms",
        median(&times) * 1e3,
        "ms",
        format!(
            "median SweepSpec::try_run at threads(2) over {} grids, n={}, p10 {:.1} p90 {:.1}",
            sweeps.len(),
            times.len(),
            quantile(&times, 0.1) * 1e3,
            quantile(&times, 0.9) * 1e3
        ),
    );
    report.push(
        "ops_per_s",
        times.len() as f64 / total,
        "1/s",
        "sweeps completed per second",
    );
}

fn push_rss(report: &mut Report) {
    match crate::report::peak_rss_mb("self") {
        Some(mb) => report.push("peak_rss_mb", mb, "MB", "VmHWM of the benchmark process"),
        None => report.check(false, || "cannot read VmHWM".to_string()),
    }
}

/// Totals of the traced serial passes.
#[derive(Default)]
struct TracedTotals {
    phases: PhaseTotals,
    /// Run time per policy name.
    run_s: BTreeMap<&'static str, f64>,
    links: f64,
    tables: f64,
    cache_bytes: f64,
    chancache_build_s: f64,
}

/// The compute legs of a traced run over `specs`: serial traced passes
/// for `seconds`, the executor pass, one untraced serial sweep of every
/// spec (returned, in seconds, for the overhead and `server.compute_ms`),
/// the kernels and the codec leg on the first spec.
pub fn trace_compute(
    name: &str,
    specs: &[Resolved],
    refs: &[Reference],
    seconds: f64,
    report: &mut Report,
) -> Vec<f64> {
    let occ = occupied_subcarrier_indices();
    let mut tl = Timeline::new();
    let mut tot = TracedTotals::default();
    let mut passes = 0usize;
    let start = Instant::now();
    while passes == 0 || since(start) < seconds {
        passes += 1;
        for (g, r) in specs.iter().enumerate() {
            let mut results = Vec::with_capacity(r.req.seeds.len());
            for &seed in &r.req.seeds {
                let topo = match tl.span("medium.topology", || r.topology(seed)) {
                    Ok(t) => t,
                    Err(e) => {
                        report.check(false, || format!("{name}: topology: {e}"));
                        return Vec::new();
                    }
                };
                let engine = tl.span("core.engine_new", || {
                    SimEngine::new(&topo, &r.scenario, &r.cfg)
                });
                // The engine builds its channel cache inside `new`; a
                // probe builds the same cache once more to time it alone.
                let (cache, build_s) =
                    tl.probe(|| ChannelCache::build(&topo, &occ, r.cfg.ofdm.fft_len));
                tot.chancache_build_s += build_s;
                tot.links += topo.medium.n_links() as f64;
                tot.tables += cache.n_links() as f64;
                tot.cache_bytes += cache_bytes(&cache) as f64;
                tl.probe(|| drop(cache));
                let mut per_policy = Vec::with_capacity(r.policies.len());
                for &p in &r.policies {
                    let t = Instant::now();
                    let res = tl.span(p.name(), || {
                        let mut obs = PhaseObserver::new(&mut tot.phases);
                        r.run(&engine, p, seed, &mut obs, None)
                    });
                    *tot.run_s.entry(p.name()).or_default() += since(t);
                    per_policy.push(res);
                }
                results.push(SeedResults { seed, per_policy });
                // The engine borrows the topology, so both drops are
                // timed by hand rather than moved into one span closure.
                let start = tl.now();
                drop(engine);
                drop(topo);
                tl.close("medium.teardown", start);
            }
            report.check(stats_bytes(&r.aggregate(&results)) == refs[g].bytes, || {
                format!("{name}: grid {g}: traced serial stats differ from the reference")
            });
        }
    }
    let traced_wall = tl.now() / passes as f64;
    let per = |x: f64| x / passes as f64;
    report.push(
        "trace.passes",
        passes as f64,
        "count",
        "traced serial passes",
    );
    report.push(
        "medium.topology_s",
        per(tl.total("medium.topology")),
        "s",
        "build_environment_topology, summed over specs and seeds, per traced pass",
    );
    report.push(
        "medium.links",
        per(tot.links),
        "count",
        "installed directed links",
    );
    report.push(
        "medium.chancache_build_s",
        per(tot.chancache_build_s),
        "s",
        "ChannelCache::build (probe, cut out of the traced wall)",
    );
    report.push(
        "medium.chancache_tables",
        per(tot.tables),
        "count",
        "cached link tables",
    );
    report.push(
        "medium.chancache_bytes",
        per(tot.cache_bytes),
        "bytes",
        "computed from table shapes (re+im f64 per entry)",
    );
    report.push(
        "medium.teardown_s",
        per(tl.total("medium.teardown")),
        "s",
        "drop of engine (with its cache) and topology",
    );
    report.push(
        "core.engine_new_s",
        per(tl.total("core.engine_new")),
        "s",
        "SimEngine::new, including its own cache build",
    );
    let ph = &tot.phases;
    let runs_total: f64 = tot.run_s.values().sum();
    report.push(
        "core.contend_s",
        per(ph.contend_s),
        "s",
        "round start -> primary contention",
    );
    report.push(
        "core.primary_s",
        per(ph.primary_s),
        "s",
        "primary contention -> next event",
    );
    report.push(
        "core.join_s",
        per(ph.join_s),
        "s",
        "first join contention -> last join",
    );
    report.push(
        "core.settle_s",
        per(ph.settle_s),
        "s",
        "last join -> round end",
    );
    report.push(
        "core.run_overhead_s",
        per(runs_total - ph.phases_s()),
        "s",
        "run calls outside all phases",
    );
    for (policy, s) in &tot.run_s {
        report.push(
            &format!("core.run_s.{policy}"),
            per(*s),
            "s",
            "run_identified",
        );
    }
    report.push(
        "core.rounds",
        per(ph.rounds as f64),
        "count",
        "rounds per pass",
    );
    report.push(
        "core.join_attempts",
        per(ph.join_attempts as f64),
        "count",
        "join attempts",
    );
    report.push(
        "core.joins_accepted",
        per(ph.joins_accepted as f64),
        "count",
        "accepted joins",
    );
    report.push(
        "core.join_accept_ratio",
        ph.joins_accepted as f64 / ph.join_attempts.max(1) as f64,
        "ratio",
        "accepted / attempted joins",
    );
    report.push(
        "core.mean_streams",
        ph.streams as f64 / ph.rounds.max(1) as f64,
        "count",
        "streams in a round's final ledger",
    );

    let coverage = tl.covered() / tl.now();
    report.push(
        "trace.coverage",
        coverage,
        "ratio",
        "named spans / (1 thread x traced wall)",
    );
    if coverage < 0.9 {
        report.flags.push(format!(
            "{name}: trace.coverage {coverage:.3} < 0.9; largest missing interval: {:?}",
            tl.largest_gap()
        ));
    }

    executor_pass(name, specs, refs, report);

    // The untraced serial sweeps the traced wall is compared against.
    let mut serial_s = Vec::with_capacity(specs.len());
    for (g, r) in specs.iter().enumerate() {
        let t = Instant::now();
        let out = r
            .spec(1)
            .and_then(|s| s.try_run().map_err(|e| e.to_string()));
        serial_s.push(since(t));
        report.check(
            matches!(&out, Ok(s) if stats_bytes(s) == refs[g].bytes),
            || format!("{name}: grid {g}: serial try_run differs from the reference"),
        );
    }
    let untraced: f64 = serial_s.iter().sum();
    report.push(
        "trace.overhead_pct",
        100.0 * (traced_wall - untraced) / untraced,
        "%",
        format!("traced pass {traced_wall:.4} s vs untraced serial try_run {untraced:.4} s"),
    );

    kernels::measure(report);
    codec_leg(name, &specs[0], &refs[0].bytes, report);
    serial_s
}

/// Bytes of the cached matrices, from their shapes: one re and one im
/// f64 per entry.
fn cache_bytes(cache: &ChannelCache) -> usize {
    cache
        .links()
        .filter_map(|(f, t)| cache.table(f, t))
        .flat_map(|table| table.matrices())
        .map(|m| m.rows() * m.cols() * 2 * std::mem::size_of::<f64>())
        .sum()
}

/// The seed jobs of every spec on the executor at two threads, each job
/// timed from inside: busy share of the summed walls, and the mean gap
/// between a spec's last two job finishes.
fn executor_pass(name: &str, specs: &[Resolved], refs: &[Reference], report: &mut Report) {
    let (mut busy, mut wall, mut tail) = (0.0, 0.0, 0.0);
    for (g, r) in specs.iter().enumerate() {
        let seeds = &r.req.seeds;
        let origin = Instant::now();
        let jobs = run_indexed(seeds.len(), THREADS, |i| {
            let t0 = since(origin);
            let res = SweepJob::in_environment(
                r.env,
                &r.testbed,
                &r.scenario,
                &r.cfg,
                &r.policies,
                seeds[i],
            )
            .run();
            (res, t0, since(origin))
        });
        wall += since(origin);
        busy += jobs.iter().map(|(_, a, b)| b - a).sum::<f64>();
        let mut finishes: Vec<f64> = jobs.iter().map(|j| j.2).collect();
        finishes.sort_by(f64::total_cmp);
        if let [.., a, b] = finishes.as_slice() {
            tail += b - a;
        }
        let results: Vec<SeedResults> = jobs.into_iter().map(|j| j.0).collect();
        report.check(stats_bytes(&r.aggregate(&results)) == refs[g].bytes, || {
            format!("{name}: grid {g}: executor-pass stats differ from the reference")
        });
    }
    report.push(
        "executor.efficiency",
        busy / (THREADS as f64 * wall),
        "ratio",
        format!("job busy time / (2 threads x {wall:.4} s wall)"),
    );
    report.push(
        "executor.tail_s",
        tail / specs.len() as f64,
        "s",
        "last job finish - second-to-last, mean over specs",
    );
}

/// Records every run of one spec into memory, decodes and replays the
/// sweep, and checks the live and replayed statistics against `want`.
fn codec_leg(name: &str, r: &Resolved, want: &[u8], report: &mut Report) {
    let key = Some(r.canonical.key());
    let seeds = &r.req.seeds;
    let (n_seeds, n_policies) = (seeds.len(), r.policies.len());
    let mut plain_s = 0.0;
    let mut recorded_s = 0.0;
    let mut blobs = Vec::with_capacity(n_seeds * n_policies);
    let mut live = Vec::with_capacity(n_seeds);
    for (seed_index, &seed) in seeds.iter().enumerate() {
        let topo = match r.topology(seed) {
            Ok(t) => t,
            Err(e) => {
                report.check(false, || format!("{name}: codec topology: {e}"));
                return;
            }
        };
        let engine = SimEngine::new(&topo, &r.scenario, &r.cfg);
        let mut per_policy = Vec::with_capacity(n_policies);
        for (policy_index, &p) in r.policies.iter().enumerate() {
            let t = Instant::now();
            black_box(r.run(&engine, p, seed, &mut NullObserver, None));
            plain_s += since(t);
            let context = RecordingContext {
                scenario: r.req.scenario.clone(),
                traffic: r.cfg.traffic.spec_string(),
                mobility: r.cfg.mobility.spec_string(),
                seed_index,
                n_seeds,
                policy_index,
                n_policies,
            };
            let identity = RunIdentity {
                seed,
                environment: r.env.name().to_string(),
                canonical_key: key,
            };
            let t = Instant::now();
            let mut rec = RecordingObserver::new(Vec::new(), context);
            let res = r.run(&engine, p, seed, &mut rec, Some(identity));
            let bytes = rec.finish();
            recorded_s += since(t);
            match bytes {
                Ok(b) => blobs.push(b),
                Err(e) => {
                    report.check(false, || format!("{name}: recording failed: {e}"));
                    return;
                }
            }
            per_policy.push(res);
        }
        live.push(SeedResults { seed, per_policy });
    }
    report.check(stats_bytes(&r.aggregate(&live)) == want, || {
        format!("{name}: recorded live stats differ from the reference")
    });
    let t = Instant::now();
    let replayed = blobs
        .iter()
        .map(|b| Recording::decode(b).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()
        .and_then(|recs| replay_sweep(&recs).map_err(|e| format!("{e:?}")));
    let replay_s = since(t);
    match replayed {
        Ok(sweep) => report.check(stats_bytes(&sweep.stats) == want, || {
            format!("{name}: replayed stats differ from the live stats")
        }),
        Err(e) => report.check(false, || format!("{name}: replay failed: {e}")),
    }
    let total_bytes: usize = blobs.iter().map(Vec::len).sum();
    let rounds = (n_seeds * n_policies * r.req.rounds) as f64;
    report.push(
        "codec.record_overhead_pct",
        100.0 * (recorded_s - plain_s) / plain_s,
        "%",
        format!("recorded runs {recorded_s:.4} s vs plain runs {plain_s:.4} s"),
    );
    report.push(
        "codec.bytes_per_round",
        total_bytes as f64 / rounds,
        "bytes",
        "recording bytes per simulated round",
    );
    report.push(
        "codec.replay_s",
        replay_s,
        "s",
        "Recording::decode of every run + replay_sweep",
    );
}
