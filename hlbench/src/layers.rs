//! The traced run: per-layer metrics, measured from outside.
//!
//! Three kinds of evidence, all gathered in one pass over the cells:
//!
//! * **Spans around public calls** — `layout_for`, the address map,
//!   `generate_traces`, `Simulator::new`, `Simulator::run`,
//!   `est::estimate_app`, and the harness's `Suite::run_one_traced`.
//! * **Staged layer replay** — each cell's own trace is fed through the
//!   layer APIs one stage at a time (OS translation, L1, L2, directory,
//!   NoC sends, memory controllers, slice prefetchers), each stage's loop
//!   one span. The replay measures host cost per call only: it is not a
//!   second simulator, and its call counts are printed beside the
//!   simulator's own counts so readers can see how closely it tracks.
//! * **Simulated values** — `RunStats` plus the counters of a
//!   counters-only `Suite::run_one_traced`.

use std::time::Instant;

use hoploc_cache::{Directory, SetAssocCache};
use hoploc_est::{estimate_app, EstConfig};
use hoploc_harness::{RunSpec, Suite};
use hoploc_layout::L2Mode;
use hoploc_mem::MemoryController;
use hoploc_noc::{L2ToMcMapping, McId, Network, NodeId, TrafficClass};
use hoploc_obs::{ObsConfig, ObsReport};
use hoploc_prefetch::{DemandOutcome, PrefetchSummary, SlicePrefetcher};
use hoploc_sim::{Access, Os, PagePolicy, RunStats, SimConfig, Simulator, TraceWorkload};
use hoploc_workloads::{App, RunKind};

use crate::cell::{self, Machine};
use crate::report::Outcome;
use crate::simwl::{self, SimWorkload};
use crate::stats::{ratio, HostSpeed};

/// Host time and call count of one span.
#[derive(Clone, Copy, Default)]
pub struct Span {
    pub secs: f64,
    pub calls: u64,
}

impl Span {
    fn add(&mut self, secs: f64, calls: u64) {
        self.secs += secs;
        self.calls += calls;
    }

    fn ns_per_call(&self) -> f64 {
        ratio(self.secs * 1e9, self.calls as f64)
    }

    fn ms_per_call(&self) -> f64 {
        ratio(self.secs * 1e3, self.calls as f64)
    }
}

/// Stage spans of the layer replay.
#[derive(Clone, Copy, Default)]
pub struct Replay {
    pub os: Span,
    pub l1: Span,
    pub l2: Span,
    pub dir: Span,
    pub noc: Span,
    pub mem: Span,
    pub pf: Span,
}

impl Replay {
    fn merge(&mut self, o: &Replay) {
        for (a, b) in self.spans_mut().into_iter().zip(o.spans()) {
            a.add(b.secs, b.calls);
        }
    }

    fn spans(&self) -> [Span; 7] {
        [
            self.os, self.l1, self.l2, self.dir, self.noc, self.mem, self.pf,
        ]
    }

    fn spans_mut(&mut self) -> [&mut Span; 7] {
        [
            &mut self.os,
            &mut self.l1,
            &mut self.l2,
            &mut self.dir,
            &mut self.noc,
            &mut self.mem,
            &mut self.pf,
        ]
    }
}

/// What an L2 demand access led to in the replay.
#[derive(Clone, Copy, PartialEq)]
enum Served {
    L2Hit,
    OnChip(u16),
    OffChip,
}

struct L2Access {
    /// Index into the replay order.
    at: usize,
    /// The L2 slice that served the lookup (requester or home bank).
    slice: u16,
    line: u64,
    evicted: Option<u64>,
    served: Served,
}

/// Feeds one cell's trace through the layer APIs, one stage at a time.
/// Returns the stage spans and the number of memory completions, which must
/// equal the requests enqueued.
fn replay(
    trace: &TraceWorkload,
    policy: PagePolicy,
    cfg: &SimConfig,
    mapping: &L2ToMcMapping,
    stats: &RunStats,
) -> (Replay, u64) {
    let mut r = Replay::default();
    let nodes = cfg.num_nodes();
    // Threads issue round-robin, one access per thread per round, which
    // approximates the simulator's concurrent issue.
    let mut order = Vec::with_capacity(trace.total_accesses() as usize);
    let longest = trace
        .threads
        .iter()
        .map(|t| t.accesses.len())
        .max()
        .unwrap_or(0);
    for i in 0..longest {
        for t in &trace.threads {
            if let Some(a) = t.accesses.get(i) {
                order.push((t.node, *a));
            }
        }
    }
    let n = order.len();
    // A synthetic clock at the simulated mean issue rate keeps the NoC and
    // the controllers near the load the simulation saw.
    let exec = stats.exec_cycles.max(1) as u128;
    let clock = |i: usize| (i as u128 * exec / n.max(1) as u128) as u64;

    let mut os = Os::new(cfg.page_bytes, cfg.memory_bytes, cfg.num_mcs(), policy);
    let mut paddr = Vec::with_capacity(n);
    let t = Instant::now();
    for &(node, a) in &order {
        paddr.push(os.translate(a.vaddr, node, mapping));
    }
    r.os.add(t.elapsed().as_secs_f64(), n as u64);

    let mut l1: Vec<SetAssocCache> = (0..nodes).map(|_| SetAssocCache::new(cfg.l1)).collect();
    let mut l1_miss = Vec::new();
    let t = Instant::now();
    for (i, &(node, a)) in order.iter().enumerate() {
        if !l1[node.0 as usize]
            .access_rw(paddr[i] / cfg.l1.line_bytes, a.write)
            .hit
        {
            l1_miss.push(i);
        }
    }
    r.l1.add(t.elapsed().as_secs_f64(), n as u64);
    drop(l1);

    let private = cfg.l2_mode == L2Mode::Private;
    let mut l2: Vec<SetAssocCache> = (0..nodes).map(|_| SetAssocCache::new(cfg.l2)).collect();
    let mut l2_acc = Vec::with_capacity(l1_miss.len());
    let t = Instant::now();
    for &i in &l1_miss {
        let (node, a) = order[i];
        let line = paddr[i] / cfg.l2.line_bytes;
        let slice = if private {
            node.0
        } else {
            (line % nodes as u64) as u16
        };
        let res = l2[slice as usize].access_rw(line, a.write);
        l2_acc.push(L2Access {
            at: i,
            slice,
            line,
            evicted: res.evicted,
            served: if res.hit {
                Served::L2Hit
            } else {
                Served::OffChip
            },
        });
    }
    r.l2.add(t.elapsed().as_secs_f64(), l1_miss.len() as u64);
    drop(l2);

    if private {
        let mut dir = Directory::new();
        let mut lookups = 0u64;
        let t = Instant::now();
        for acc in l2_acc.iter_mut().filter(|a| a.served != Served::L2Hit) {
            if let Some(ev) = acc.evicted {
                dir.remove_sharer(ev, acc.slice as usize);
            }
            if let Some(&owner) = dir.lookup(acc.line, acc.slice as usize).first() {
                acc.served = Served::OnChip(owner as u16);
            }
            dir.add_sharer(acc.line, acc.slice as usize);
            lookups += 1;
        }
        r.dir.add(t.elapsed().as_secs_f64(), lookups);
    }

    let n_mcs = cfg.num_mcs() as u64;
    let unit = cfg.interleave_bytes();
    let mc_of = |paddr: u64| ((paddr / unit) % n_mcs) as usize;
    let mc_node = |mc: usize| mapping.mc_node(McId(mc as u16));
    let (ctl, data) = (cfg.control_bytes, cfg.l2.line_bytes as u32);
    let mut net = Network::new(cfg.mesh, cfg.noc);
    let mut sends = 0u64;
    let t = Instant::now();
    for acc in &l2_acc {
        let now = clock(acc.at);
        let node = order[acc.at].0;
        let slice = NodeId(acc.slice);
        let mc = mc_node(mc_of(paddr[acc.at]));
        let mut send = |src: NodeId, dst: NodeId, bytes: u32, class: TrafficClass| {
            sends += 1;
            net.send(src, dst, bytes, class, now)
        };
        if private {
            if let Some(ev) = acc.evicted {
                send(
                    node,
                    mc_node(mc_of(ev * cfg.l2.line_bytes)),
                    ctl,
                    TrafficClass::OnChip,
                );
            }
            match acc.served {
                Served::L2Hit => {}
                Served::OnChip(owner) => {
                    send(node, mc, ctl, TrafficClass::OnChip);
                    send(mc, NodeId(owner), ctl, TrafficClass::OnChip);
                    send(NodeId(owner), node, data, TrafficClass::OnChip);
                }
                Served::OffChip => {
                    send(node, mc, ctl, TrafficClass::OffChip);
                    send(mc, node, data, TrafficClass::OffChip);
                }
            }
        } else {
            send(node, slice, ctl, TrafficClass::OnChip);
            if acc.served == Served::OffChip {
                send(slice, mc, ctl, TrafficClass::OffChip);
                send(mc, slice, data, TrafficClass::OffChip);
            }
            send(slice, node, data, TrafficClass::OnChip);
        }
    }
    r.noc.add(t.elapsed().as_secs_f64(), sends);

    let mut mc_cfg = cfg.mc;
    mc_cfg.ideal = cfg.optimal;
    let mut mcs: Vec<MemoryController> =
        (0..n_mcs).map(|_| MemoryController::new(mc_cfg)).collect();
    let (mut requests, mut completions) = (0u64, 0usize);
    let t = Instant::now();
    for acc in l2_acc.iter().filter(|a| a.served == Served::OffChip) {
        let now = clock(acc.at);
        let p = paddr[acc.at];
        // The controller sees its dense local address space.
        let local = (p / (unit * n_mcs)) * unit + p % unit;
        completions += mcs[mc_of(p)].enqueue(local, requests, now).len();
        requests += 1;
        if requests % 64 == 0 {
            for mc in &mut mcs {
                completions += mc.poll(now).len();
            }
        }
    }
    for mc in &mut mcs {
        completions += mc.flush().len();
    }
    r.mem.add(t.elapsed().as_secs_f64(), requests);

    if cfg.prefetch.enabled() {
        let mut slices: Vec<SlicePrefetcher> = (0..nodes)
            .map(|_| SlicePrefetcher::new(cfg.prefetch))
            .collect();
        let mut summary = PrefetchSummary::default();
        let mut scratch = Vec::new();
        let t = Instant::now();
        for acc in &l2_acc {
            let outcome = match acc.served {
                Served::L2Hit => DemandOutcome::L2Hit,
                Served::OnChip(_) => DemandOutcome::OnChip,
                Served::OffChip => DemandOutcome::OffChip,
            };
            scratch.clear();
            slices[acc.slice as usize].on_demand(
                order[acc.at].1.ref_id,
                acc.line,
                outcome,
                &mut summary,
                &mut scratch,
            );
        }
        r.pf.add(t.elapsed().as_secs_f64(), l2_acc.len() as u64);
    }
    (r, completions as u64)
}

/// Per-layer accumulation over the cells of one traced run.
#[derive(Default)]
pub struct Layers {
    host: HostSpeed,
    layout: Span,
    addr_map: Span,
    tracegen: Span,
    sim_new: Span,
    run: Span,
    run_traced: Span,
    harness: Span,
    est: Span,
    trace_mb_max: f64,
    replay: Replay,
    sums: SimSums,
    /// The simulator's own counts of the replayed stages, for the side by
    /// side table: accesses, L1 misses, directory lookups, messages, DRAM
    /// requests, prefetch trainings.
    sim_counts: [u64; 6],
}

/// Sums of simulated counts, for workload-level ratios.
#[derive(Default)]
struct SimSums {
    accesses: u64,
    l1_hits: u64,
    l2_hits: u64,
    c2c: u64,
    offchip: u64,
    offchip_msgs: u64,
    offchip_hops: u64,
    msgs: u64,
    link_wait: u64,
    mc_served: u64,
    mc_queue: u64,
    mc_service: u64,
    mc_row_hits: u64,
    bank_busy: u64,
    bank_cycles: u64,
    pf: PrefetchSummary,
}

impl Layers {
    fn add_sim(&mut self, s: &RunStats, report: &ObsReport, cfg: &SimConfig) {
        let m = &mut self.sums;
        m.accesses += s.total_accesses;
        m.l1_hits += s.l1_hits;
        m.l2_hits += s.l2_hits;
        m.c2c += s.cache_to_cache;
        m.offchip += s.offchip_accesses;
        m.offchip_msgs += s.net.off_chip.messages;
        m.offchip_hops += s.net.off_chip.total_hops;
        m.msgs += s.net.on_chip.messages + s.net.off_chip.messages;
        m.link_wait += report
            .counter_family("net.link.wait_cycles")
            .iter()
            .sum::<u64>();
        for mc in &s.mc {
            m.mc_served += mc.served;
            m.mc_queue += mc.total_queue_cycles;
            m.mc_service += mc.total_service_cycles;
            m.mc_row_hits += mc.row_hits;
        }
        m.bank_busy += report
            .counter_family("mc.bank.busy_cycles")
            .iter()
            .sum::<u64>();
        m.bank_cycles += (cfg.num_mcs() * cfg.mc.banks) as u64 * s.exec_cycles;
        let (p, q) = (&mut m.pf, &s.prefetch);
        p.issued += q.issued;
        p.useful += q.useful;
        p.late += q.late;
        p.pred_correct += q.pred_correct;
        p.pred_total += q.pred_total;
        let l1_misses = s.total_accesses - s.l1_hits;
        let lookups = if cfg.l2_mode == L2Mode::Private {
            l1_misses - s.l2_hits
        } else {
            0
        };
        let served: u64 = s.mc.iter().map(|mc| mc.served).sum();
        // Every L1 miss trains the prefetcher of the slice it reaches.
        let trainings = if cfg.prefetch.enabled() { l1_misses } else { 0 };
        for (c, v) in self.sim_counts.iter_mut().zip([
            s.total_accesses,
            l1_misses,
            lookups,
            s.net.on_chip.messages + s.net.off_chip.messages,
            served,
            trainings,
        ]) {
            *c += v;
        }
    }

    /// Traces one cell: spans, three simulations (untraced, traced, and
    /// through the harness) that must agree bit for bit, the estimator, and
    /// the staged replay. Returns the statistics and the failed checks.
    #[allow(clippy::too_many_arguments)]
    pub fn cell(
        &mut self,
        app: &App,
        app_index: usize,
        kind: RunKind,
        machine: &Machine,
        suite: &Suite,
    ) -> (RunStats, Vec<String>) {
        self.host.sample();
        let mut p = cell::prepare(app, kind, machine, true);
        let policy = p.policy.take().expect("prepare kept the policy");
        self.layout.add(p.times.layout, 1);
        self.addr_map.add(p.times.addr_map, 1);
        let accesses = p.trace.total_accesses();
        self.tracegen.add(p.times.tracegen, accesses);
        self.sim_new.add(p.times.sim_new, 1);
        let bytes: usize = p
            .trace
            .threads
            .iter()
            .map(|t| t.accesses.capacity() * std::mem::size_of::<Access>())
            .sum();
        self.trace_mb_max = self.trace_mb_max.max(bytes as f64 / 1e6);

        let t = Instant::now();
        let stats = p.sim.run(&p.trace);
        self.run.add(t.elapsed().as_secs_f64(), accesses);
        let mut bad = cell::check_stats(&stats, accesses);

        let obs = ObsConfig {
            record_spans: false,
            prefetch: p.cfg.prefetch.enabled(),
            ..ObsConfig::default()
        };
        let traced =
            Simulator::new(p.cfg.clone(), machine.mapping.clone(), policy.clone()).with_obs(obs);
        let t = Instant::now();
        let (traced_stats, _) = traced.run_traced(&p.trace);
        self.run_traced.add(t.elapsed().as_secs_f64(), accesses);
        if traced_stats != stats {
            bad.push("traced RunStats differ from the untraced run".into());
        }

        let t = Instant::now();
        let (harness_stats, report) = suite.run_one_traced(
            RunSpec {
                app: app_index,
                kind,
            },
            obs,
        );
        self.harness.add(t.elapsed().as_secs_f64(), 1);
        if harness_stats != stats {
            bad.push("Suite::run_one_traced RunStats differ from the direct run".into());
        }

        let est_cfg = EstConfig::from_sim(&machine.sim);
        let t = Instant::now();
        let est = estimate_app(app, &p.layout, &machine.mapping, kind, &est_cfg);
        self.est.add(t.elapsed().as_secs_f64(), 1);
        std::hint::black_box(est);

        let (r, completions) = replay(&p.trace, policy, &p.cfg, &machine.mapping, &stats);
        if completions != r.mem.calls {
            bad.push(format!(
                "replay: {completions} memory completions for {} requests",
                r.mem.calls
            ));
        }
        self.replay.merge(&r);
        self.add_sim(&stats, &report, &p.cfg);
        (stats, bad)
    }

    /// Factor from this run's host seconds to reference seconds.
    pub fn host_scale(&self) -> f64 {
        self.host.run_factor()
    }

    /// Adds an estimator call timed elsewhere (the serve workload's
    /// direct reference).
    pub fn add_est(&mut self, secs: f64) {
        self.est.add(secs, 1);
    }

    pub fn print(&self) {
        println!("{}", self.host.describe());
        let k = self.host.run_factor();
        let r = &self.replay;
        println!(
            "{:<30} {:>12} {:>12} {:>12} {:>14}",
            "span", "calls", "total ms", "ns/call", "simulator count"
        );
        let row = |name: &str, s: &Span, sim: Option<u64>| {
            println!(
                "{:<30} {:>12} {:>12.2} {:>12.1} {:>14}",
                name,
                s.calls,
                s.secs * k * 1e3,
                s.ns_per_call() * k,
                sim.map_or(String::new(), |v| v.to_string())
            );
        };
        let c = &self.sim_counts;
        row("layout_for", &self.layout, None);
        row("address space + desired map", &self.addr_map, None);
        row("generate_traces (per access)", &self.tracegen, None);
        row("Simulator::new", &self.sim_new, None);
        row("Simulator::run (per access)", &self.run, None);
        row("run_traced (per access)", &self.run_traced, None);
        row("Suite::run_one_traced", &self.harness, None);
        row("est::estimate_app", &self.est, None);
        row("replay os.translate", &r.os, Some(c[0]));
        row("replay L1 access_rw", &r.l1, Some(c[0]));
        row("replay L2 access_rw", &r.l2, Some(c[1]));
        row("replay directory lookup", &r.dir, Some(c[2]));
        row("replay Network::send", &r.noc, Some(c[3]));
        row("replay MC enqueue/poll/flush", &r.mem, Some(c[4]));
        row("replay SlicePrefetcher", &r.pf, Some(c[5]));
    }

    /// Per-layer metrics of the simulator layers. Host times are in
    /// reference seconds, like the end-to-end metrics.
    pub fn metrics(&self, out: &mut Outcome, trace_hit_ratio: f64) {
        let m = &self.sums;
        let r = &self.replay;
        let k = self.host.run_factor();
        out.metric("layout.compile_ms", self.layout.ms_per_call() * k, "ms");
        out.metric("sim.addr_map_ms", self.addr_map.ms_per_call() * k, "ms");
        out.metric(
            "workloads.tracegen_ns_per_access",
            self.tracegen.ns_per_call() * k,
            "ns/access",
        );
        out.metric("workloads.trace_mb", self.trace_mb_max, "MB");
        out.metric("sim.new_ms", self.sim_new.ms_per_call() * k, "ms");
        out.metric(
            "sim.run_ns_per_access",
            self.run.ns_per_call() * k,
            "ns/access",
        );
        out.metric("harness.trace_cache_hit_ratio", trace_hit_ratio, "ratio");
        out.metric("est.ms_per_cell", self.est.ms_per_call() * k, "ms");
        out.metric("cache.l1.ns_per_access", r.l1.ns_per_call() * k, "ns");
        out.metric("cache.l2.ns_per_access", r.l2.ns_per_call() * k, "ns");
        out.metric("cache.dir.ns_per_lookup", r.dir.ns_per_call() * k, "ns");
        out.metric("os.ns_per_translate", r.os.ns_per_call() * k, "ns");
        out.metric("noc.ns_per_send", r.noc.ns_per_call() * k, "ns");
        out.metric("mem.ns_per_request", r.mem.ns_per_call() * k, "ns");
        out.metric("prefetch.ns_per_demand", r.pf.ns_per_call() * k, "ns");
        let acc = m.accesses as f64;
        out.metric("cache.l1_hit_rate", ratio(m.l1_hits as f64, acc), "ratio");
        out.metric(
            "cache.l2_hit_rate",
            ratio(m.l2_hits as f64, (m.accesses - m.l1_hits) as f64),
            "ratio",
        );
        out.metric("cache.c2c_frac", ratio(m.c2c as f64, acc), "ratio");
        out.metric("sim.offchip_frac", ratio(m.offchip as f64, acc), "ratio");
        out.metric(
            "net.offchip_hops_avg",
            ratio(m.offchip_hops as f64, m.offchip_msgs as f64),
            "hops",
        );
        out.metric(
            "net.link_wait_cycles_per_msg",
            ratio(m.link_wait as f64, m.msgs as f64),
            "cycles",
        );
        let served = m.mc_served as f64;
        out.metric(
            "mc.queue_cycles_per_req",
            ratio(m.mc_queue as f64, served),
            "cycles",
        );
        out.metric(
            "mc.service_cycles_per_req",
            ratio(m.mc_service as f64, served),
            "cycles",
        );
        out.metric(
            "mc.row_hit_rate",
            ratio(m.mc_row_hits as f64, served),
            "ratio",
        );
        out.metric(
            "mc.bank_busy_frac",
            ratio(m.bank_busy as f64, m.bank_cycles as f64),
            "ratio",
        );
        let pf = &m.pf;
        out.metric("pf.accuracy", pf.accuracy(), "ratio");
        out.metric("pf.coverage", pf.coverage(m.offchip), "ratio");
        out.metric("pf.pred_accuracy", pf.pred_accuracy(), "ratio");
        out.metric(
            "pf.late_frac",
            ratio(pf.late as f64, (pf.useful + pf.late) as f64),
            "ratio",
        );
        out.metric(
            "trace.overhead_pct",
            100.0 * ratio(self.run_traced.secs - self.run.secs, self.run.secs),
            "%",
        );
    }
}

/// Serve metrics reported as zero on workloads without a server.
pub const SERVE_METRICS: [(&str, &str); 6] = [
    ("serve.submit_us_p50", "us"),
    ("serve.result_wait_ms_p99", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.job_wall_ms_p50", "ms"),
    ("serve.reuse_ratio", "ratio"),
    ("serve.retries", "count"),
];

/// The traced run of a simulator workload.
pub fn run(w: &SimWorkload, seed: u64) -> Outcome {
    let apps = w.apps();
    let machine = w.machine();
    let cells = w.cells();
    let suite = Suite::new(apps.clone(), machine.mapping.clone(), machine.sim.clone());
    let mut layers = Layers::default();
    let mut out = Outcome::default();
    let mut stats = vec![None; cells.len()];
    for i in w.order(seed) {
        let (a, kind) = cells[i];
        out.attempted += 1;
        let (s, bad) = layers.cell(&apps[a], a, kind, &machine, &suite);
        if !bad.is_empty() {
            out.fail(&cell::label(apps[a].name(), kind), &bad.join("; "));
        }
        stats[i] = Some(s);
    }
    layers.print();
    println!("digest: {}", simwl::digest(w, &apps, &stats));
    simwl::print_paper_saving(w, simwl::saving(w, &stats));
    let c = suite.cache_counters();
    let hit_ratio = ratio(c.trace_hits as f64, (c.trace_hits + c.trace_misses) as f64);
    layers.metrics(&mut out, hit_ratio);
    for (name, unit) in SERVE_METRICS {
        out.metric(name, 0.0, unit);
    }
    out
}
