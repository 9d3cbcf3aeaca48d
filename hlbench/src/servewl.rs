//! The `serve-mixed` workload: a fresh in-process `hoploc-serve` on a
//! loopback ephemeral port, one worker, two closed-loop client connections,
//! at test scale.
//!
//! The job list is 104 distinct cycle jobs (13 apps × 4 kinds × private or
//! shared L2) plus 52 `fidelity=est` jobs, each submitted `REPEAT` times in
//! an order shuffled by the seed. Every reply is compared byte for byte
//! with a direct harness run of the same spec, computed once per run.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use hoploc_est::{est_record_json, estimate_app, EstConfig, KINDS};
use hoploc_harness::{kind_name, RunSpec, Suite};
use hoploc_layout::{Granularity, L2Mode};
use hoploc_obs::{parse_json, JsonValue};
use hoploc_serve::{
    Client, Ctr, DrainSummary, EngineCaps, Fidelity, JobSpec, ServeConfig, Server, SuiteEngine,
};
use hoploc_sim::{PrefetchMode, RunStats};
use hoploc_workloads::{all_apps, App, RunKind, Scale};

use crate::cell::{self, Machine};
use crate::layers::Layers;
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, quantile, ratio, Fnv, HostSpeed, Rng};

/// Submissions of each distinct job per episode: 156 × 7 = 1092 jobs, so
/// p99 has at least ten samples beyond it.
const REPEAT: usize = 7;
const CLIENTS: usize = 2;
const WORKERS: usize = 1;
/// Fresh servers started to time set-up (bind until the first `ping`).
const SETUP_REPS: usize = 200;
const MAX_RETRIES: u64 = 1000;
/// Host-speed probes taken before the reference and after each episode.
const PROBES: usize = 6;
const L2_MODES: [L2Mode; 2] = [L2Mode::Private, L2Mode::Shared];

pub fn config_echo() -> String {
    let apps: Vec<String> = all_apps(Scale::Test)
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let kinds: Vec<&str> = KINDS.iter().map(|&k| kind_name(k)).collect();
    format!(
        "{{\"workload\": \"serve-mixed\", \"scale\": \"test\", \"workers\": {WORKERS}, \
         \"clients\": {CLIENTS}, \"repeat\": {REPEAT}, \"granularity\": \"cacheline\", \
         \"l2\": [\"private\", \"shared\"], \"mapping\": \"m1\", \"prefetch\": \"off\", \
         \"fidelity\": [\"cycle\", \"est (private L2)\"], \"apps\": [\"{}\"], \"kinds\": [\"{}\"]}}",
        apps.join("\", \""),
        kinds.join("\", \""),
    )
}

/// The distinct jobs: cycle jobs for every (app, kind, L2 mode), then est
/// jobs for every (app, kind) on the private-L2 machine.
fn distinct_specs(apps: &[App]) -> Vec<JobSpec> {
    let base = |app: &App, kind: RunKind| JobSpec {
        app: app.name().to_string(),
        kind,
        scale: Scale::Test,
        ..JobSpec::default()
    };
    let mut specs = Vec::new();
    for l2_mode in L2_MODES {
        for app in apps {
            for &kind in &KINDS {
                specs.push(JobSpec {
                    l2_mode,
                    ..base(app, kind)
                });
            }
        }
    }
    for app in apps {
        for &kind in &KINDS {
            specs.push(JobSpec {
                fidelity: Fidelity::Est,
                ..base(app, kind)
            });
        }
    }
    specs
}

fn machine_for(spec: &JobSpec) -> Machine {
    debug_assert!(!spec.m2 && spec.granularity == Granularity::CacheLine);
    Machine::new(spec.granularity, spec.l2_mode, PrefetchMode::Off)
}

/// The direct results every served reply must equal, by canonical job key.
struct Reference {
    records: HashMap<String, String>,
    /// Cycle-job statistics in `distinct_specs` order.
    stats: Vec<RunStats>,
    trace_hits: u64,
    trace_lookups: u64,
}

/// Computes the reference. Untraced, each cycle job runs through the
/// harness (`Suite::run_one`, the record the server must reproduce);
/// traced, `Layers::cell` runs it through the harness and the direct path
/// and checks they agree. Disagreements land in `problems`.
fn reference(
    apps: &[App],
    mut layers: Option<&mut Layers>,
    problems: &mut Vec<String>,
) -> Reference {
    let specs = distinct_specs(apps);
    let mut r = Reference {
        records: HashMap::new(),
        stats: Vec::new(),
        trace_hits: 0,
        trace_lookups: 0,
    };
    for l2_mode in L2_MODES {
        let m = machine_for(&JobSpec {
            l2_mode,
            ..JobSpec::default()
        });
        let suite = Suite::new(apps.to_vec(), m.mapping.clone(), m.sim.clone());
        for spec in specs.iter().filter(|s| s.l2_mode == l2_mode) {
            let a = apps
                .iter()
                .position(|app| app.name() == spec.app)
                .expect("specs name suite apps");
            let what = format!("reference {}", spec.canon());
            let record = if spec.fidelity == Fidelity::Est {
                let plan = suite.layout_plan(a, spec.kind);
                let cfg = EstConfig::from_sim(suite.sim()).with_threads_per_core(1);
                let t = Instant::now();
                let est = estimate_app(&apps[a], &plan, suite.mapping(), spec.kind, &cfg);
                if let Some(l) = layers.as_deref_mut() {
                    l.add_est(t.elapsed().as_secs_f64());
                }
                est_record_json(&est)
            } else {
                let stats = match layers.as_deref_mut() {
                    Some(l) => {
                        let (stats, bad) = l.cell(&apps[a], a, spec.kind, &m, &suite);
                        problems.extend(bad.into_iter().map(|b| format!("{what}: {b}")));
                        stats
                    }
                    None => suite.run_one(RunSpec {
                        app: a,
                        kind: spec.kind,
                    }),
                };
                let record = cell::record(&spec.app, spec.kind, &stats);
                r.stats.push(stats);
                record
            };
            r.records.insert(spec.canon(), record);
        }
        let c = suite.cache_counters();
        r.trace_hits += c.trace_hits;
        r.trace_lookups += c.trace_hits + c.trace_misses;
    }
    r
}

/// Simulates every cycle job once more through the timed direct path,
/// checking each result against the reference. Returns each cell's
/// `Simulator::run` host seconds (in `Reference::stats` order) and the
/// trace accesses simulated.
fn direct_pass(apps: &[App], r: &Reference, problems: &mut Vec<String>) -> (Vec<f64>, u64) {
    let cycle = distinct_specs(apps)
        .into_iter()
        .filter(|s| s.fidelity == Fidelity::Cycle);
    let mut run_s = Vec::new();
    let mut accesses = 0;
    for (i, spec) in cycle.enumerate() {
        let app = apps
            .iter()
            .find(|a| a.name() == spec.app)
            .expect("specs name suite apps");
        let p = cell::prepare(app, spec.kind, &machine_for(&spec), false);
        let n = p.trace.total_accesses();
        let t = Instant::now();
        let stats = p.sim.run(&p.trace);
        run_s.push(t.elapsed().as_secs_f64());
        accesses += n;
        let mut bad = cell::check_stats(&stats, n);
        if stats != r.stats[i] {
            bad.push("direct run differs from Suite::run_one".into());
        }
        problems.extend(
            bad.into_iter()
                .map(|b| format!("direct {}: {b}", spec.canon())),
        );
    }
    (run_s, accesses)
}

/// FNV-1a over the reference records in `distinct_specs` order.
fn digest(apps: &[App], r: &Reference) -> String {
    let mut h = Fnv::new();
    for spec in distinct_specs(apps) {
        h.update(r.records[&spec.canon()].as_bytes());
        h.update(b"\n");
    }
    h.hex()
}

/// Simulated end-to-end values of the reference: cycle geomean and the
/// mean optimized-vs-baseline saving over (app, L2 mode) pairs.
fn simulated(apps: &[App], r: &Reference) -> (f64, f64) {
    let cycle: Vec<JobSpec> = distinct_specs(apps)
        .into_iter()
        .filter(|s| s.fidelity == Fidelity::Cycle)
        .collect();
    let find = |s: &JobSpec, kind: RunKind| {
        cycle
            .iter()
            .position(|c| c.app == s.app && c.l2_mode == s.l2_mode && c.kind == kind)
            .map(|i| &r.stats[i])
    };
    let pairs: Vec<(&RunStats, &RunStats)> = cycle
        .iter()
        .filter(|s| s.kind == RunKind::Baseline)
        .filter_map(|s| Some((find(s, RunKind::Baseline)?, find(s, RunKind::Optimized)?)))
        .collect();
    (
        cell::cycles_geomean(r.stats.iter()),
        cell::exec_saving_pct(pairs.into_iter()),
    )
}

fn start_server() -> std::io::Result<(SocketAddr, JoinHandle<DrainSummary>)> {
    let engine = Arc::new(SuiteEngine::new(EngineCaps::default()));
    let cfg = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", engine, cfg)?;
    let addr = server.local_addr()?;
    Ok((addr, std::thread::spawn(move || server.run())))
}

/// Drains the server through `client` and waits for it to exit.
fn stop_server(mut client: Client, handle: JoinHandle<DrainSummary>) -> Result<u64, String> {
    let (_, executed, _) = client.drain()?;
    drop(client);
    handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    Ok(executed)
}

/// Bind until the first `ping` reply, in seconds, over fresh servers.
fn setup_times() -> Result<Vec<f64>, String> {
    (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            let (addr, handle) = start_server().map_err(|e| format!("bind: {e}"))?;
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            client.ping()?;
            let secs = t.elapsed().as_secs_f64();
            stop_server(client, handle)?;
            Ok(secs)
        })
        .collect()
}

/// Client-side timings of one job.
struct Sample {
    submit_us: f64,
    wait_us: f64,
    total_us: f64,
    retries: u64,
}

#[derive(Default)]
struct Episode {
    samples: Vec<Sample>,
    failures: Vec<(String, String)>,
    wall_s: f64,
    executed: u64,
    /// The server's `stats` snapshot after the last job.
    stats: Option<JsonValue>,
}

/// One fresh server, the whole job list over `CLIENTS` closed-loop
/// connections, then `stats` and `drain`.
fn episode(jobs: &[JobSpec], reference: &Reference) -> Result<Episode, String> {
    let (addr, handle) = start_server().map_err(|e| format!("bind: {e}"))?;
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_client: Vec<Result<Episode, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut ep = Episode::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = jobs.get(i) else { break };
                        let t0 = Instant::now();
                        let submitted = client.submit_until_accepted(spec, MAX_RETRIES);
                        let t1 = Instant::now();
                        let outcome = submitted
                            .and_then(|(id, _, retries)| client.result(id).map(|r| (r, retries)));
                        let t2 = Instant::now();
                        let canon = spec.canon();
                        match outcome {
                            Ok((result, retries)) => {
                                if result != reference.records[&canon] {
                                    ep.failures.push((
                                        canon,
                                        format!(
                                            "served bytes differ from the direct run: {result}"
                                        ),
                                    ));
                                } else {
                                    ep.samples.push(Sample {
                                        submit_us: (t1 - t0).as_secs_f64() * 1e6,
                                        wait_us: (t2 - t1).as_secs_f64() * 1e6,
                                        total_us: (t2 - t0).as_secs_f64() * 1e6,
                                        retries,
                                    });
                                }
                            }
                            Err(e) => ep.failures.push((canon, e)),
                        }
                    }
                    Ok(ep)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let stats = client.stats().and_then(|s| parse_json(&s))?;
    let executed = stop_server(client, handle)?;
    let mut ep = Episode {
        wall_s,
        executed,
        stats: Some(stats),
        ..Episode::default()
    };
    for c in per_client {
        let c = c?;
        ep.samples.extend(c.samples);
        ep.failures.extend(c.failures);
    }
    Ok(ep)
}

/// The submission list of one episode: every distinct job `REPEAT` times,
/// shuffled by `rng`. Each episode of a run draws a fresh order from the
/// seed, so a run's latencies average over several orders.
fn job_list(apps: &[App], rng: &mut Rng) -> Vec<JobSpec> {
    let distinct = distinct_specs(apps);
    let mut jobs: Vec<JobSpec> = (0..REPEAT).flat_map(|_| distinct.iter().cloned()).collect();
    rng.shuffle(&mut jobs);
    jobs
}

fn record_failures(out: &mut Outcome, ep: &Episode) {
    out.attempted += (ep.samples.len() + ep.failures.len()) as u64;
    for (what, why) in &ep.failures {
        out.fail(what, why);
    }
}

fn print_reference(apps: &[App], r: &Reference) {
    println!(
        "reference: {} distinct jobs, {} cycle cells, digest: {}",
        r.records.len(),
        r.stats.len(),
        digest(apps, r)
    );
    let (_, saving) = simulated(apps, r);
    println!(
        "exec_saving_pct: {saving:.2}% mean over {} (app, L2) pairs at test scale | paper: \
         20.5% (Fig. 16, private L2) and 24.3% (Fig. 22, shared L2), whole-suite GEM5 \
         averages, not an error bound for this subset; the model has no hardware reference",
        r.stats.len() / KINDS.len()
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let apps = all_apps(Scale::Test);
    let mut out = Outcome::default();
    let mut host = HostSpeed::default();
    let r = reference(&apps, None, &mut out.problems);
    print_reference(&apps, &r);
    let setup = match setup_times() {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(format!("server set-up: {e}"));
            Vec::new()
        }
    };
    let mut rng = Rng::new(seed);
    let mut latencies_ms = Vec::new();
    let mut rates = Vec::new();
    let mut run_s = vec![Vec::new(); r.stats.len()];
    let mut accesses = 0;
    let mut peak_rss = 0.0;
    loop {
        for _ in 0..PROBES {
            host.sample();
        }
        let ep = match episode(&job_list(&apps, &mut rng), &r) {
            Ok(ep) => ep,
            Err(e) => {
                out.problems.push(format!("episode: {e}"));
                break;
            }
        };
        record_failures(&mut out, &ep);
        let ms: Vec<f64> = ep.samples.iter().map(|s| s.total_us / 1e3).collect();
        rates.push(ep.samples.len() as f64 / ep.wall_s);
        println!(
            "episode {}: {} jobs in {:.3} s, {} executed, p50 {:.3} ms, p99 {:.3} ms (host time)",
            rates.len(),
            ep.samples.len() + ep.failures.len(),
            ep.wall_s,
            ep.executed,
            quantile(&ms, 0.5),
            quantile(&ms, 0.99),
        );
        latencies_ms.extend(ms);
        // Later episodes repeat the same work; they only grow the
        // allocator's per-thread arenas, which the dead server threads leave
        // behind, so the high-water mark is read after the first.
        if rates.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        for _ in 0..PROBES {
            host.sample();
        }
        let (pass_s, n) = direct_pass(&apps, &r, &mut out.problems);
        for (cell, secs) in run_s.iter_mut().zip(pass_s) {
            cell.push(secs);
        }
        accesses = n;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / rates.len() as f64 > seconds {
            break;
        }
    }
    // Several threads share the two cores here, so single probes around one
    // episode track its speed poorly; the whole run's probe median scales
    // every host time instead.
    println!("{}", host.describe());
    let k = host.run_factor();
    let (geomean, saving) = simulated(&apps, &r);
    let run_total: f64 = run_s.iter().map(|s| median(s)).sum();
    out.metric(
        "maccess_per_s",
        accesses as f64 / (run_total * k) / 1e6,
        "Maccess/s",
    );
    out.metric("setup_s", median(&setup) * k, "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("sim_cycles_geomean", geomean, "cycles");
    out.metric("exec_saving_pct", saving, "%");
    out.metric("job_p50_ms", quantile(&latencies_ms, 0.5) * k, "ms");
    out.metric("job_p99_ms", quantile(&latencies_ms, 0.99) * k, "ms");
    out.metric("jobs_per_s", median(&rates) / k, "jobs/s");
    out
}

fn serve_counter(stats: &JsonValue, c: Ctr) -> f64 {
    stats
        .get("counters")
        .and_then(|v| v.get("serve.jobs"))
        .and_then(|v| v.index(c as usize))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

fn serve_quantile(stats: &JsonValue, hist: &str, q: &str) -> f64 {
    stats
        .get("histograms")
        .and_then(|v| v.get(hist))
        .and_then(|v| v.get(q))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// The traced run: the layer pass over the reference cells, then one
/// episode for the serve-side metrics.
pub fn run_traced(seed: u64) -> Outcome {
    let apps = all_apps(Scale::Test);
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let r = reference(&apps, Some(&mut layers), &mut out.problems);
    layers.print();
    print_reference(&apps, &r);
    layers.metrics(&mut out, ratio(r.trace_hits as f64, r.trace_lookups as f64));
    let ep = match episode(&job_list(&apps, &mut Rng::new(seed)), &r) {
        Ok(ep) => ep,
        Err(e) => {
            out.problems.push(format!("episode: {e}"));
            Episode::default()
        }
    };
    record_failures(&mut out, &ep);
    let stats = ep.stats.unwrap_or(JsonValue::Null);
    let k = layers.host_scale();
    let submit: Vec<f64> = ep.samples.iter().map(|s| s.submit_us * k).collect();
    let wait_ms: Vec<f64> = ep.samples.iter().map(|s| s.wait_us * k / 1e3).collect();
    let reused = serve_counter(&stats, Ctr::Coalesced) + serve_counter(&stats, Ctr::CacheHits);
    let admitted = reused + serve_counter(&stats, Ctr::Accepted);
    println!(
        "server: accepted {}, coalesced {}, cached {}, executed {}",
        serve_counter(&stats, Ctr::Accepted),
        serve_counter(&stats, Ctr::Coalesced),
        serve_counter(&stats, Ctr::CacheHits),
        ep.executed
    );
    out.metric("serve.submit_us_p50", quantile(&submit, 0.5), "us");
    out.metric("serve.result_wait_ms_p99", quantile(&wait_ms, 0.99), "ms");
    out.metric(
        "serve.queue_wait_ms_p99",
        serve_quantile(&stats, "serve.queue_wait_ms", "p99") * k,
        "ms",
    );
    out.metric(
        "serve.job_wall_ms_p50",
        serve_quantile(&stats, "serve.job_wall_ms", "p50") * k,
        "ms",
    );
    out.metric("serve.reuse_ratio", ratio(reused, admitted), "ratio");
    out.metric(
        "serve.retries",
        ep.samples.iter().map(|s| s.retries as f64).sum(),
        "count",
    );
    out
}
