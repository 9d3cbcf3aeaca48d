//! The three simulator workloads: `offchip`, `resident` and `shared-page`.
//!
//! An untraced run repeats whole passes over the workload's cells, in an
//! order drawn from the seed, until the time budget is spent. Every cell of
//! every pass is prepared from scratch (layout, address map, trace
//! generation, `Simulator::new`) and simulated on this one thread; set-up
//! and simulation are timed apart. A traced run makes one pass through the
//! layer spans and the staged replay instead (see `layers`).

use std::time::Instant;

use hoploc_harness::kind_name;
use hoploc_layout::{Granularity, L2Mode};
use hoploc_serve::job::{granularity_name, l2_name};
use hoploc_sim::{PrefetchMode, RunStats};
use hoploc_workloads::{all_apps, App, RunKind, Scale};

use crate::cell::{self, Machine};
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, quantile, Fnv, HostSpeed, Rng};

/// A simulator workload: one machine configuration and the cells run on it.
pub struct SimWorkload {
    pub name: &'static str,
    pub apps: &'static [&'static str],
    pub kinds: &'static [RunKind],
    pub granularity: Granularity,
    pub l2_mode: L2Mode,
    pub prefetch: PrefetchMode,
    /// The paper's whole-suite execution-time saving for this machine, and
    /// where it is reported.
    pub paper_saving: (f64, &'static str),
}

const BASE_OPT: &[RunKind] = &[RunKind::Baseline, RunKind::Optimized];

pub const OFFCHIP: SimWorkload = SimWorkload {
    name: "offchip",
    apps: &["fma3d", "applu", "apsi", "minighost", "mgrid"],
    kinds: BASE_OPT,
    granularity: Granularity::CacheLine,
    l2_mode: L2Mode::Private,
    prefetch: PrefetchMode::Off,
    paper_saving: (20.5, "Fig. 16, private L2 with cache-line interleaving"),
};

pub const RESIDENT: SimWorkload = SimWorkload {
    name: "resident",
    apps: &["art", "hpccg", "wupwise", "swim"],
    kinds: BASE_OPT,
    granularity: Granularity::CacheLine,
    l2_mode: L2Mode::Private,
    prefetch: PrefetchMode::Off,
    paper_saving: (20.5, "Fig. 16, private L2 with cache-line interleaving"),
};

pub const SHARED_PAGE: SimWorkload = SimWorkload {
    name: "shared-page",
    apps: &["galgel", "gafort", "minimd", "ammp"],
    kinds: &[RunKind::Baseline, RunKind::FirstTouch, RunKind::Optimized],
    granularity: Granularity::Page,
    l2_mode: L2Mode::Shared,
    prefetch: PrefetchMode::Gated,
    paper_saving: (24.3, "Fig. 22, shared L2"),
};

impl SimWorkload {
    pub fn machine(&self) -> Machine {
        Machine::new(self.granularity, self.l2_mode, self.prefetch)
    }

    /// The workload's applications at bench scale, in workload order.
    pub fn apps(&self) -> Vec<App> {
        let all = all_apps(Scale::Bench);
        self.apps
            .iter()
            .map(|name| {
                all.iter()
                    .find(|a| a.name() == *name)
                    .cloned()
                    .unwrap_or_else(|| panic!("no application named {name}"))
            })
            .collect()
    }

    /// Cells in canonical order (apps outer, kinds inner). Digests and
    /// tables use this order whatever order the seed runs them in.
    pub fn cells(&self) -> Vec<(usize, RunKind)> {
        (0..self.apps.len())
            .flat_map(|a| self.kinds.iter().map(move |&k| (a, k)))
            .collect()
    }

    /// Cell indices in the order this seed runs them.
    pub fn order(&self, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.apps.len() * self.kinds.len()).collect();
        Rng::new(seed).shuffle(&mut order);
        order
    }

    pub fn config_echo(&self) -> String {
        let kinds: Vec<&str> = self.kinds.iter().map(|&k| kind_name(k)).collect();
        format!(
            "{{\"workload\": \"{}\", \"scale\": \"bench\", \"workers\": 1, \
             \"granularity\": \"{}\", \"l2\": \"{}\", \"mapping\": \"m1\", \
             \"prefetch\": \"{}\", \"apps\": [\"{}\"], \"kinds\": [\"{}\"]}}",
            self.name,
            granularity_name(self.granularity),
            l2_name(self.l2_mode),
            self.prefetch.name(),
            self.apps.join("\", \""),
            kinds.join("\", \""),
        )
    }
}

/// Samples of one cell across passes, in host seconds.
#[derive(Default)]
struct CellSamples {
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    /// Index of the host probe taken just before each sample; the probe
    /// after it closes the bracket.
    probe: Vec<usize>,
    stats: Option<RunStats>,
    accesses: u64,
}

/// The untraced run: end-to-end metrics.
pub fn run(w: &SimWorkload, seed: u64, seconds: f64) -> Outcome {
    let apps = w.apps();
    let machine = w.machine();
    let cells = w.cells();
    let order = w.order(seed);
    let mut samples: Vec<CellSamples> = cells.iter().map(|_| CellSamples::default()).collect();
    let mut out = Outcome::default();
    let mut host = HostSpeed::default();
    let started = Instant::now();
    // Per pass: each cell's set-up plus simulation host seconds, with the
    // index of the probe taken just before it.
    let mut pass_jobs: Vec<Vec<(f64, usize)>> = Vec::new();
    loop {
        let (mut pass_setup, mut pass_run) = (0.0, 0.0);
        let mut jobs = Vec::new();
        for &i in &order {
            let (a, kind) = cells[i];
            let app = &apps[a];
            let probe = host.taken();
            host.sample();
            let p = cell::prepare(app, kind, &machine, false);
            let accesses = p.trace.total_accesses();
            let t = Instant::now();
            let stats = p.sim.run(&p.trace);
            let run_s = t.elapsed().as_secs_f64();
            drop(p.trace);
            out.attempted += 1;
            pass_setup += p.times.total();
            pass_run += run_s;
            jobs.push((p.times.total() + run_s, probe));
            let s = &mut samples[i];
            let mut bad = cell::check_stats(&stats, accesses);
            if s.stats.as_ref().is_some_and(|first| *first != stats) {
                bad.push("statistics differ from this cell's first pass".into());
            }
            if bad.is_empty() {
                s.setup_s.push(p.times.total());
                s.run_s.push(run_s);
                s.probe.push(probe);
            } else {
                out.fail(&cell::label(app.name(), kind), &bad.join("; "));
            }
            s.accesses = accesses;
            s.stats.get_or_insert(stats);
        }
        pass_jobs.push(jobs);
        let passes = pass_jobs.len();
        println!("pass {passes}: set-up {pass_setup:.3} s, simulate {pass_run:.3} s (host time)");
        // Only whole passes count, so every cell has as many samples as every
        // other; stop once another pass would overrun the budget by more
        // than half a pass.
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + 0.5 * elapsed / passes as f64 > seconds {
            break;
        }
    }
    host.sample();
    println!("{}", host.describe());
    println!(
        "{:<22} {:>12} {:>10} {:>9} {:>10} {:>10} {:>9}",
        "cell", "exec cycles", "accesses", "off-chip", "setup ms", "run ms", "Macc/s"
    );
    let mut setup_total = 0.0;
    let mut run_total = 0.0;
    let mut accesses_total = 0u64;
    for (&(a, kind), s) in cells.iter().zip(&samples) {
        let Some(stats) = &s.stats else { continue };
        if s.run_s.is_empty() {
            continue;
        }
        // Medians over passes, in reference seconds.
        let k: Vec<f64> = s.probe.iter().map(|&i| host.factor(i, i + 2)).collect();
        let scaled = |v: &[f64]| median(&v.iter().zip(&k).map(|(x, k)| x * k).collect::<Vec<_>>());
        let setup = scaled(&s.setup_s);
        let run = scaled(&s.run_s);
        setup_total += setup;
        run_total += run;
        accesses_total += s.accesses;
        println!(
            "{:<22} {:>12} {:>10} {:>9.4} {:>10.2} {:>10.2} {:>9.3}",
            cell::label(apps[a].name(), kind),
            stats.exec_cycles,
            s.accesses,
            stats.offchip_fraction(),
            setup * 1e3,
            run * 1e3,
            s.accesses as f64 / run / 1e6,
        );
    }
    // For a simulator workload a job is one pass over its cells: the whole
    // workload matrix, set up and simulated, as `hoploc bench` runs it.
    let job_ms: Vec<f64> = pass_jobs
        .iter()
        .map(|jobs| {
            1e3 * jobs
                .iter()
                .map(|&(secs, i)| secs * host.factor(i, i + 2))
                .sum::<f64>()
        })
        .collect();
    println!(
        "passes: {}, cells simulated: {}, pass latency {:?} ms (reference time)",
        job_ms.len(),
        out.attempted,
        job_ms.iter().map(|ms| ms.round()).collect::<Vec<_>>()
    );

    let stats: Vec<Option<RunStats>> = samples.iter().map(|s| s.stats.clone()).collect();
    println!("digest: {}", digest(w, &apps, &stats));
    let saving = saving(w, &stats);
    print_paper_saving(w, saving);

    out.metric(
        "maccess_per_s",
        accesses_total as f64 / run_total / 1e6,
        "Maccess/s",
    );
    out.metric("setup_s", setup_total, "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out.metric(
        "sim_cycles_geomean",
        cell::cycles_geomean(stats.iter().flatten()),
        "cycles",
    );
    out.metric("exec_saving_pct", saving, "%");
    // With a handful of passes per run, p99 is the slowest pass.
    out.metric("job_p50_ms", quantile(&job_ms, 0.5), "ms");
    out.metric("job_p99_ms", quantile(&job_ms, 0.99), "ms");
    out.metric(
        "jobs_per_s",
        1e3 * job_ms.len() as f64 / job_ms.iter().sum::<f64>(),
        "jobs/s",
    );
    out
}

/// FNV-1a over each cell's `record_json` line, in canonical cell order.
pub fn digest(w: &SimWorkload, apps: &[App], stats: &[Option<RunStats>]) -> String {
    let mut h = Fnv::new();
    for (&(a, kind), s) in w.cells().iter().zip(stats) {
        if let Some(s) = s {
            h.update(cell::record(apps[a].name(), kind, s).as_bytes());
            h.update(b"\n");
        }
    }
    h.hex()
}

/// Mean optimized-vs-baseline execution-time saving over the apps.
pub fn saving(w: &SimWorkload, stats: &[Option<RunStats>]) -> f64 {
    let find = |a: usize, k: RunKind| {
        w.cells()
            .iter()
            .position(|&c| c == (a, k))
            .and_then(|i| stats[i].as_ref())
    };
    let pairs: Vec<(&RunStats, &RunStats)> = (0..w.apps.len())
        .filter_map(|a| Some((find(a, RunKind::Baseline)?, find(a, RunKind::Optimized)?)))
        .collect();
    cell::exec_saving_pct(pairs.into_iter())
}

pub fn print_paper_saving(w: &SimWorkload, saving: f64) {
    let (paper, source) = w.paper_saving;
    println!(
        "exec_saving_pct: {saving:.2}% mean over {} apps | paper: {paper}% ({source}), a \
         whole-suite GEM5 average, not an error bound for this subset; the model has no \
         hardware reference",
        w.apps.len()
    );
}
