//! Golden digests: the simulator's observable behaviour pinned to
//! committed bytes.
//!
//! Every row of `tests/golden/digests.tsv` is an FNV-1a digest of one
//! cell's canonical record (`harness::record_json`), or of one traced
//! cell's Chrome-trace / metrics bytes. The table has two digest columns:
//!
//! * **test** — test scale, checked by [`test_scale_cells_match_the_golden_table`]
//!   on every `cargo test`: 13 apps × 4 run kinds on four machines
//!   (private L2 + cache-line and shared L2 + page interleaving, each with
//!   prefetching off and gated), Baseline cells on two writeback machines, seeded severe fault
//!   plans on Baseline/Optimized, and one traced faulted cell per machine.
//! * **bench** — bench scale, for the 30 cells of the `hlbench` simulator
//!   workloads plus each workload's digest as `hlbench` prints it. Slow, so
//!   `#[ignore]`d; CI runs it with `--include-ignored` in release.
//!
//! A `-` marks a row the column does not cover. Unlike a differential test
//! that compares the engine with itself, these rows fail on any change to
//! simulated timing or counts. On a mismatch the test prints the first
//! differing cell with its current record, then the whole table with its
//! column regenerated. Regenerating means pasting that table over the file
//! and saying why in the change log; there is no write switch.

use hoploc::fault::{FaultPlan, FaultRates};
use hoploc::harness::{
    default_jobs, fault_topo, kind_name, parallel_map, record_json, RunRecord, RunSpec, Suite,
};
use hoploc::layout::{Granularity, L2Mode};
use hoploc::noc::L2ToMcMapping;
use hoploc::obs::ObsConfig;
use hoploc::serve::job::fnv1a;
use hoploc::sim::{PrefetchConfig, PrefetchMode, RunStats, SimConfig};
use hoploc::workloads::{all_apps, App, RunKind, Scale};

const GOLDEN: &str = include_str!("golden/digests.tsv");

const KINDS: [RunKind; 4] = [
    RunKind::Baseline,
    RunKind::Optimized,
    RunKind::FirstTouch,
    RunKind::Optimal,
];

/// First fault-plan seed; each app adds its suite index.
const FAULT_SEED: u64 = 100;

/// One simulated machine: the capacity-scaled Table 1 configuration with
/// the M1 (nearest-cluster) mapping, varied along the golden axes.
#[derive(Clone, Copy)]
struct Machine {
    name: &'static str,
    granularity: Granularity,
    l2_mode: L2Mode,
    prefetch: PrefetchMode,
    writebacks: bool,
}

impl Machine {
    const fn new(name: &'static str, l2_mode: L2Mode, prefetch: PrefetchMode) -> Self {
        let granularity = match l2_mode {
            L2Mode::Private => Granularity::CacheLine,
            L2Mode::Shared => Granularity::Page,
        };
        Machine {
            name,
            granularity,
            l2_mode,
            prefetch,
            writebacks: false,
        }
    }

    const fn with_writebacks(self, name: &'static str) -> Self {
        Machine {
            name,
            writebacks: true,
            ..self
        }
    }

    fn suite(&self, apps: Vec<App>) -> Suite {
        let sim = SimConfig {
            granularity: self.granularity,
            l2_mode: self.l2_mode,
            prefetch: PrefetchConfig::with_mode(self.prefetch),
            writebacks: self.writebacks,
            ..SimConfig::scaled()
        };
        let mapping = L2ToMcMapping::nearest_cluster(sim.mesh, &sim.placement);
        Suite::new(apps, mapping, sim)
    }
}

const PRIVATE_OFF: Machine = Machine::new("private-line-off", L2Mode::Private, PrefetchMode::Off);
const PRIVATE_GATED: Machine =
    Machine::new("private-line-gated", L2Mode::Private, PrefetchMode::Gated);
const SHARED_OFF: Machine = Machine::new("shared-page-off", L2Mode::Shared, PrefetchMode::Off);
const SHARED_GATED: Machine =
    Machine::new("shared-page-gated", L2Mode::Shared, PrefetchMode::Gated);

/// The machines every test-scale cell, fault plan and trace runs on.
const MACHINES: [Machine; 4] = [PRIVATE_OFF, PRIVATE_GATED, SHARED_OFF, SHARED_GATED];

/// Dirty-line writebacks are off in every machine above; these two turn
/// them on (Baseline cells only) so the writeback step is pinned too.
const WRITEBACK_MACHINES: [Machine; 2] = [
    PRIVATE_OFF.with_writebacks("private-line-wb"),
    SHARED_OFF.with_writebacks("shared-page-wb"),
];

/// `hlbench`'s simulator workloads: name, machine, apps, kinds, and the
/// workload digest it prints.
type Workload = (
    &'static str,
    Machine,
    &'static [&'static str],
    &'static [RunKind],
);

const BENCH_WORKLOADS: [Workload; 3] = [
    (
        "offchip",
        PRIVATE_OFF,
        &["fma3d", "applu", "apsi", "minighost", "mgrid"],
        &[RunKind::Baseline, RunKind::Optimized],
    ),
    (
        "resident",
        PRIVATE_OFF,
        &["art", "hpccg", "wupwise", "swim"],
        &[RunKind::Baseline, RunKind::Optimized],
    ),
    (
        "shared-page",
        SHARED_GATED,
        &["galgel", "gafort", "minimd", "ammp"],
        &[RunKind::Baseline, RunKind::FirstTouch, RunKind::Optimized],
    ),
];

/// One computed row: its label, digest, and the record a mismatch shows.
struct Row {
    label: String,
    digest: u64,
    record: String,
}

fn row(label: String, record: String) -> Row {
    Row {
        label,
        digest: fnv1a(record.as_bytes()),
        record,
    }
}

fn record(app: &App, kind: RunKind, stats: &RunStats) -> String {
    record_json(&RunRecord {
        app: app.name().to_string(),
        kind,
        stats: stats.clone(),
    })
}

fn label(machine: &Machine, app: &App, kind: RunKind) -> String {
    format!("{}/{}/{}", machine.name, app.name(), kind_name(kind))
}

/// Access conservation: every access ends in exactly one of L1, L2, a
/// cache-to-cache forward, an off-chip request, or a late join on an
/// in-flight prefetch.
fn assert_conserves_accesses(label: &str, s: &RunStats) {
    assert_eq!(
        s.l1_hits + s.l2_hits + s.cache_to_cache + s.offchip_accesses + s.prefetch.late,
        s.total_accesses,
        "{label}: accesses not conserved"
    );
    assert_eq!(s.backstop_flushes, 0, "{label}: HL0900 backstop fired");
}

/// Every test-scale row, in table order. Also asserts the per-cell and
/// aggregate invariants the rows are meant to exercise.
fn test_rows() -> Vec<Row> {
    let jobs = default_jobs();
    let mut rows = Vec::new();
    let (mut dropped, mut rehomed, mut late, mut writebacks) = (0, 0, 0, 0);
    for machine in MACHINES.iter().chain(&WRITEBACK_MACHINES) {
        let faulted = !machine.writebacks;
        let suite = machine.suite(all_apps(Scale::Test));
        let apps = suite.apps();
        let specs = if faulted {
            suite.full_matrix(&KINDS)
        } else {
            suite.full_matrix(&[RunKind::Baseline])
        };
        let clean = suite.run_matrix(&specs, jobs);
        for (spec, r) in specs.iter().zip(&clean) {
            let l = label(machine, &apps[spec.app], spec.kind);
            assert_conserves_accesses(&l, &r.stats);
            writebacks += r.stats.writebacks;
            rows.push(row(l, record_json(r)));
        }
        if !faulted {
            continue;
        }
        // Severe plans with windows placed inside the clean run, so drops,
        // re-homes and retries all land while requests are in flight.
        let topo = fault_topo(suite.sim());
        let cells: Vec<(RunSpec, FaultPlan)> = specs
            .iter()
            .zip(&clean)
            .filter(|(spec, _)| matches!(spec.kind, RunKind::Baseline | RunKind::Optimized))
            .map(|(&spec, r)| {
                let rates = FaultRates::severe().with_horizon(r.stats.exec_cycles.max(1));
                let seed = FAULT_SEED + spec.app as u64;
                (spec, FaultPlan::from_seed(seed, &topo, &rates))
            })
            .collect();
        let fault_label = |spec: &RunSpec| {
            let seed = FAULT_SEED + spec.app as u64;
            format!("{}/fault{seed}", label(machine, &apps[spec.app], spec.kind))
        };
        let stats = parallel_map(&cells, jobs, |(spec, plan)| {
            suite.run_one_faulted(*spec, plan)
        });
        for ((spec, _), s) in cells.iter().zip(&stats) {
            let app = &apps[spec.app];
            let l = fault_label(spec);
            assert_conserves_accesses(&l, s);
            dropped += s.dropped_requests;
            rehomed += s.rehomed_requests;
            late += s.prefetch.late;
            rows.push(row(l, record(app, spec.kind, s)));
        }
        // One traced faulted cell: its Chrome-trace and metrics bytes.
        let (spec, plan) = &cells[0];
        let obs = ObsConfig {
            prefetch: suite.sim().prefetch.enabled(),
            ..ObsConfig::default()
        };
        let (s, report) = suite.run_one_faulted_traced(*spec, plan, obs);
        assert_eq!(s, stats[0], "tracing perturbed a faulted run");
        let base = fault_label(spec);
        let rec = record(&apps[spec.app], spec.kind, &s);
        for (what, bytes) in [
            ("chrome", report.chrome_trace_json()),
            ("metrics", report.metrics_json()),
        ] {
            rows.push(Row {
                label: format!("{base}/{what}"),
                digest: fnv1a(bytes.as_bytes()),
                record: rec.clone(),
            });
        }
    }
    assert!(dropped > 0, "no faulted cell dropped a request");
    assert!(rehomed > 0, "no faulted cell re-homed a request");
    assert!(late > 0, "no faulted cell joined an in-flight prefetch");
    assert!(writebacks > 0, "no writeback cell wrote a dirty line back");
    rows
}

/// Every bench-scale row: the 30 `hlbench` cells, then one digest per
/// workload computed exactly as `hlbench` prints it (FNV-1a over each
/// record line plus a newline, apps outer, kinds inner).
fn bench_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, machine, names, kinds) in BENCH_WORKLOADS {
        let all = all_apps(Scale::Bench);
        let apps: Vec<App> = names
            .iter()
            .map(|n| all.iter().find(|a| a.name() == *n).unwrap().clone())
            .collect();
        let suite = machine.suite(apps);
        let specs: Vec<RunSpec> = (0..names.len())
            .flat_map(|app| kinds.iter().map(move |&kind| RunSpec { app, kind }))
            .collect();
        let mut lines = String::new();
        for (spec, r) in specs.iter().zip(suite.run_matrix(&specs, default_jobs())) {
            let l = label(&machine, &suite.apps()[spec.app], spec.kind);
            assert_conserves_accesses(&l, &r.stats);
            let rec = record_json(&r);
            lines.push_str(&rec);
            lines.push('\n');
            rows.push(row(l, rec));
        }
        rows.push(Row {
            label: format!("hlbench/{name}"),
            digest: fnv1a(lines.as_bytes()),
            record: format!("workload digest over {} cells", specs.len()),
        });
    }
    rows
}

/// One line of the committed table.
struct Golden {
    label: String,
    columns: [String; 2],
}

fn golden() -> Vec<Golden> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 3, "malformed golden row: {l:?}");
            Golden {
                label: f[0].to_string(),
                columns: [f[1].to_string(), f[2].to_string()],
            }
        })
        .collect()
}

/// Compares `rows` with column `col` of the committed table, by label. On a
/// mismatch prints the first differing cell, then the table with that
/// column regenerated (other columns kept), and fails.
fn check_column(col: usize, rows: &[Row]) {
    let table = golden();
    let hex = |d: u64| format!("{d:016x}");
    let committed = |label: &str| {
        table
            .iter()
            .find(|g| g.label == label)
            .map(|g| g.columns[col].as_str())
            .unwrap_or("-")
    };
    let changed = rows.iter().find(|r| committed(&r.label) != hex(r.digest));
    let vanished = table
        .iter()
        .find(|g| g.columns[col] != "-" && !rows.iter().any(|r| r.label == g.label));
    let first = match (changed, vanished) {
        (None, None) => return,
        (Some(r), _) => format!(
            "{}: committed {}, current {}\ncurrent record: {}",
            r.label,
            committed(&r.label),
            hex(r.digest),
            r.record
        ),
        (None, Some(g)) => format!("{}: committed but no longer produced", g.label),
    };

    // Regenerate: committed rows in order with this column replaced, then
    // rows only the current engine produces.
    let mut out: String = GOLDEN
        .lines()
        .take_while(|l| l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    let mut push = |label: &str, columns: &[String; 2]| {
        if columns.iter().any(|c| c != "-") {
            out.push_str(&format!("{label}\t{}\t{}\n", columns[0], columns[1]));
        }
    };
    for g in &table {
        let mut columns = g.columns.clone();
        columns[col] = rows
            .iter()
            .find(|r| r.label == g.label)
            .map_or_else(|| "-".to_string(), |r| hex(r.digest));
        push(&g.label, &columns);
    }
    for r in rows
        .iter()
        .filter(|r| !table.iter().any(|g| g.label == r.label))
    {
        let mut columns = ["-".to_string(), "-".to_string()];
        columns[col] = hex(r.digest);
        push(&r.label, &columns);
    }
    eprintln!("first differing row: {first}\n\nregenerated table:\n{out}");
    panic!("golden digests differ; see the first differing row and regenerated table above");
}

#[test]
fn test_scale_cells_match_the_golden_table() {
    check_column(0, &test_rows());
}

#[test]
#[ignore = "bench scale: minutes in debug; CI runs it in release"]
fn bench_scale_cells_match_the_golden_table() {
    check_column(1, &bench_rows());
}
