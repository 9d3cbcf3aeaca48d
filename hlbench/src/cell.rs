//! One simulated cell (application × run kind) driven from outside through
//! the layers' public entry points: the same steps `hoploc_harness::Suite`
//! takes to prepare a run, each one timed on its own so set-up can be split
//! from simulation.

use hoploc_harness::{kind_name, record_json, RunRecord};
use hoploc_layout::{Granularity, L2Mode, ProgramLayout};
use hoploc_noc::L2ToMcMapping;
use hoploc_sim::{
    AddressSpace, Improvement, PagePolicy, PrefetchConfig, PrefetchMode, RunStats, SimConfig,
    Simulator, TraceWorkload,
};
use hoploc_workloads::{generate_traces, layout_for, App, RunKind, TraceGen};

use crate::stats::timed;

/// The simulated machine of one workload: the capacity-scaled Table 1
/// configuration with the M1 (nearest-cluster) L2-to-MC mapping, exactly
/// as `hoploc` and the job server build it.
#[derive(Clone)]
pub struct Machine {
    pub sim: SimConfig,
    pub mapping: L2ToMcMapping,
}

impl Machine {
    pub fn new(granularity: Granularity, l2_mode: L2Mode, prefetch: PrefetchMode) -> Self {
        let sim = SimConfig {
            granularity,
            l2_mode,
            prefetch: PrefetchConfig::with_mode(prefetch),
            ..SimConfig::scaled()
        };
        let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
        Machine { sim, mapping }
    }

    /// The per-cell configuration the harness simulates under.
    pub fn cell_config(&self, app: &App, kind: RunKind) -> SimConfig {
        let mut cfg = self.sim.clone();
        cfg.optimal = kind == RunKind::Optimal;
        cfg.mlp = app.mlp;
        cfg
    }
}

/// Host seconds of each set-up step of one cell.
#[derive(Clone, Copy, Default, Debug)]
pub struct SetupTimes {
    /// `layout_for`: the localization pass (or the original layout).
    pub layout: f64,
    /// `AddressSpace::build` plus the compiler-desired page map.
    pub addr_map: f64,
    /// `generate_traces`.
    pub tracegen: f64,
    /// `Simulator::new`.
    pub sim_new: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.layout + self.addr_map + self.tracegen + self.sim_new
    }
}

/// A cell ready to simulate.
pub struct Prepared {
    pub layout: ProgramLayout,
    pub trace: TraceWorkload,
    pub cfg: SimConfig,
    pub sim: Simulator,
    /// A copy of the page policy, kept only when asked for (the layer
    /// replay and the traced re-run need one; untraced runs do not pay
    /// for the clone).
    pub policy: Option<PagePolicy>,
    pub times: SetupTimes,
}

/// Prepares one cell the way `Suite::run_one` does, timing each step.
pub fn prepare(app: &App, kind: RunKind, m: &Machine, keep_policy: bool) -> Prepared {
    let (layout, t_layout) = timed(|| layout_for(app, &m.mapping, &m.sim, kind));
    let ((space, policy), t_addr) = timed(|| {
        let space = AddressSpace::build(&app.program, &layout, 0);
        let policy = match kind {
            RunKind::Optimized => {
                let desired = space.desired_page_mcs(&app.program, &layout, m.sim.page_bytes);
                if desired.is_empty() {
                    PagePolicy::Interleaved
                } else {
                    PagePolicy::Desired(desired)
                }
            }
            RunKind::FirstTouch => PagePolicy::FirstTouch,
            RunKind::Baseline | RunKind::Optimal => PagePolicy::Interleaved,
        };
        (space, policy)
    });
    let gen = TraceGen {
        threads_per_core: 1,
        ..app.gen
    };
    let (trace, t_gen) = timed(|| generate_traces(&app.program, &layout, &space, &gen));
    let cfg = m.cell_config(app, kind);
    let kept = keep_policy.then(|| policy.clone());
    let (sim, t_new) = timed(|| Simulator::new(cfg.clone(), m.mapping.clone(), policy));
    Prepared {
        layout,
        trace,
        cfg,
        sim,
        policy: kept,
        times: SetupTimes {
            layout: t_layout,
            addr_map: t_addr,
            tracegen: t_gen,
            sim_new: t_new,
        },
    }
}

/// The output checks of one simulated cell. Returns the failures found.
///
/// Every access ends in exactly one place: an L1 hit, an L2 hit, a
/// cache-to-cache transfer, an off-chip fetch, or — with prefetching on —
/// a demand miss that joined a prefetch still in flight, which `RunStats`
/// counts only as `prefetch.late`. With prefetching off that term is zero.
pub fn check_stats(s: &RunStats, trace_accesses: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let served = s.l1_hits + s.l2_hits + s.cache_to_cache + s.offchip_accesses + s.prefetch.late;
    if served != s.total_accesses || s.total_accesses != trace_accesses {
        bad.push(format!(
            "access conservation: l1 {} + l2 {} + c2c {} + offchip {} + late prefetch joins {} \
             = {served}, total {}, trace {trace_accesses}",
            s.l1_hits,
            s.l2_hits,
            s.cache_to_cache,
            s.offchip_accesses,
            s.prefetch.late,
            s.total_accesses
        ));
    }
    if s.backstop_flushes != 0 {
        bad.push(format!(
            "{} liveness-backstop flush(es)",
            s.backstop_flushes
        ));
    }
    if s.dropped_requests != 0 {
        bad.push(format!("{} dropped request(s)", s.dropped_requests));
    }
    bad
}

/// The canonical per-cell record (`hoploc_harness::record_json`).
pub fn record(app: &str, kind: RunKind, stats: &RunStats) -> String {
    record_json(&RunRecord {
        app: app.to_string(),
        kind,
        stats: stats.clone(),
    })
}

/// Geometric mean of execution cycles.
pub fn cycles_geomean<'a>(stats: impl Iterator<Item = &'a RunStats>) -> f64 {
    let (sum, n) = stats.fold((0.0, 0usize), |(s, n), st| {
        (s + (st.exec_cycles.max(1) as f64).ln(), n + 1)
    });
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Mean execution-time reduction of optimized over baseline, in percent,
/// over the given (baseline, optimized) pairs — the paper's headline.
pub fn exec_saving_pct<'a>(pairs: impl Iterator<Item = (&'a RunStats, &'a RunStats)>) -> f64 {
    let (sum, n) = pairs.fold((0.0, 0usize), |(s, n), (base, opt)| {
        (s + Improvement::between(base, opt).exec_time, n + 1)
    });
    if n == 0 {
        0.0
    } else {
        100.0 * sum / n as f64
    }
}

/// `app/kind`, for tables and error messages.
pub fn label(app: &str, kind: RunKind) -> String {
    format!("{app}/{}", kind_name(kind))
}
