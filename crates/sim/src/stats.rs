//! Run statistics: every metric the paper's figures are built from.

use hoploc_mem::McStats;
use hoploc_noc::NetStats;
use hoploc_prefetch::PrefetchSummary;

/// Statistics of one simulation run.
///
/// `PartialEq` compares every field bit-for-bit (including the `f64` link
/// utilizations): two runs compare equal only when they are observably
/// identical, which is what the harness's sequential-vs-parallel
/// determinism guarantee is stated in terms of.
#[derive(Clone, PartialEq, Debug)]
pub struct RunStats {
    /// Execution time: the cycle at which the last thread finished.
    pub exec_cycles: u64,
    /// Dynamic data accesses issued (loads + stores). Each ends in exactly
    /// one place, so `l1_hits + l2_hits + cache_to_cache +
    /// offchip_accesses + prefetch.late == total_accesses`: a demand miss
    /// that joins an in-flight prefetch is counted only in
    /// `prefetch.late`.
    pub total_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (local for private, home bank for shared).
    pub l2_hits: u64,
    /// Misses satisfied by another on-chip cache (private-L2 directory
    /// forwarding).
    pub cache_to_cache: u64,
    /// Off-chip (main-memory) accesses.
    pub offchip_accesses: u64,
    /// Dirty-line writebacks issued to memory (0 unless enabled).
    pub writebacks: u64,
    /// Network statistics, split on-chip / off-chip.
    pub net: NetStats,
    /// Per-controller memory statistics.
    pub mc: Vec<McStats>,
    /// `node_mc_requests[node][mc]`: off-chip requests issued from each
    /// node to each controller (Figure 13).
    pub node_mc_requests: Vec<Vec<u64>>,
    /// Finish cycle of each application in the workload (one entry for a
    /// single multithreaded app).
    pub app_finish: Vec<u64>,
    /// Pages the OS could not place on their preferred controller.
    pub os_fallbacks: u64,
    /// Per-directed-link utilization over the run (`node*4 + dir`).
    pub link_utilization: Vec<f64>,
    /// Off-chip requests (and writebacks) re-routed away from a dark
    /// controller to the nearest live one during an MC outage window.
    pub rehomed_requests: u64,
    /// Requests abandoned after exhausting the transient-error retry cap;
    /// the waiting thread resumes on an error reply.
    pub dropped_requests: u64,
    /// Times the event loop's liveness backstop force-flushed the
    /// controllers (0 in a healthy run — see diagnostic HL0900).
    pub backstop_flushes: u64,
    /// Prefetch-pipeline counters, summed over the L2 slices (all zero —
    /// `PrefetchSummary::default()` — when prefetching is off).
    pub prefetch: PrefetchSummary,
}

impl RunStats {
    /// Fraction of dynamic data accesses that went off-chip (Figure 3).
    pub fn offchip_fraction(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.offchip_accesses as f64 / self.total_accesses as f64
        }
    }

    /// Mean network latency of on-chip messages, in cycles.
    pub fn onchip_net_latency(&self) -> f64 {
        self.net.on_chip.avg_latency()
    }

    /// Mean network latency of off-chip messages, in cycles.
    pub fn offchip_net_latency(&self) -> f64 {
        self.net.off_chip.avg_latency()
    }

    /// Mean memory latency (queue + service) per off-chip request, in
    /// cycles ("memory latency includes the time spent in the queue").
    pub fn memory_latency(&self) -> f64 {
        let served: u64 = self.mc.iter().map(|m| m.served).sum();
        if served == 0 {
            return 0.0;
        }
        let total: u64 = self
            .mc
            .iter()
            .map(|m| m.total_queue_cycles + m.total_service_cycles)
            .sum();
        total as f64 / served as f64
    }

    /// Mean bank-queue occupancy across controllers (Figure 18).
    pub fn bank_queue_occupancy(&self) -> f64 {
        if self.mc.is_empty() || self.exec_cycles == 0 {
            return 0.0;
        }
        self.mc
            .iter()
            .map(|m| m.queue_occupancy(self.exec_cycles))
            .sum::<f64>()
            / self.mc.len() as f64
    }

    /// Overall L1 hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.total_accesses as f64
        }
    }

    /// Relative improvement of `self` over a baseline for a
    /// smaller-is-better metric, as a fraction (0.2 = 20% reduction).
    ///
    /// Total: a zero, NaN, or infinite input yields 0.0 rather than
    /// propagating a non-finite ratio into figure tables.
    pub fn reduction(metric_opt: f64, metric_base: f64) -> f64 {
        if metric_base == 0.0 || !metric_base.is_finite() || !metric_opt.is_finite() {
            return 0.0;
        }
        (metric_base - metric_opt) / metric_base
    }

    /// The most-utilized directed link, as `(node index, direction 0-3
    /// = E/W/N/S, utilization)` — the corner hotspot detector.
    pub fn hottest_link(&self) -> (usize, usize, f64) {
        self.link_utilization
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, &u)| (i / 4, i % 4, u))
            .unwrap_or((0, 0, 0.0))
    }

    /// The share of off-chip requests a given controller received from
    /// each node, normalized to that controller's total (Figure 13's
    /// vertical axis).
    pub fn mc_request_shares(&self, mc: usize) -> Vec<f64> {
        let total: u64 = self.node_mc_requests.iter().map(|row| row[mc]).sum();
        self.node_mc_requests
            .iter()
            .map(|row| {
                if total == 0 {
                    0.0
                } else {
                    row[mc] as f64 / total as f64
                }
            })
            .collect()
    }
}

/// The four headline reductions reported per application in Figures 4, 14,
/// 16, and 22: on-chip network latency, off-chip network latency, memory
/// latency, and execution time — each as optimized-vs-baseline fractions.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Improvement {
    /// Reduction in mean on-chip network latency.
    pub onchip_net: f64,
    /// Reduction in mean off-chip network latency.
    pub offchip_net: f64,
    /// Reduction in mean memory (queue + service) latency.
    pub memory: f64,
    /// Reduction in execution time.
    pub exec_time: f64,
}

impl Improvement {
    /// Compares an optimized run against a baseline run.
    pub fn between(baseline: &RunStats, optimized: &RunStats) -> Self {
        Self {
            onchip_net: RunStats::reduction(
                optimized.onchip_net_latency(),
                baseline.onchip_net_latency(),
            ),
            offchip_net: RunStats::reduction(
                optimized.offchip_net_latency(),
                baseline.offchip_net_latency(),
            ),
            memory: RunStats::reduction(optimized.memory_latency(), baseline.memory_latency()),
            exec_time: RunStats::reduction(
                optimized.exec_cycles as f64,
                baseline.exec_cycles as f64,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> RunStats {
        RunStats {
            exec_cycles: 0,
            total_accesses: 0,
            l1_hits: 0,
            l2_hits: 0,
            cache_to_cache: 0,
            offchip_accesses: 0,
            writebacks: 0,
            net: NetStats::default(),
            mc: Vec::new(),
            node_mc_requests: vec![vec![0; 4]; 4],
            app_finish: Vec::new(),
            os_fallbacks: 0,
            link_utilization: Vec::new(),
            rehomed_requests: 0,
            dropped_requests: 0,
            backstop_flushes: 0,
            prefetch: PrefetchSummary::default(),
        }
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = empty();
        assert_eq!(s.offchip_fraction(), 0.0);
        assert_eq!(s.memory_latency(), 0.0);
        assert_eq!(s.bank_queue_occupancy(), 0.0);
        assert_eq!(s.l1_hit_rate(), 0.0);
        assert_eq!(s.mc_request_shares(0), vec![0.0; 4]);
        assert_eq!(s.hottest_link(), (0, 0, 0.0));
    }

    #[test]
    fn ratio_methods_stay_in_range_on_degenerate_counts() {
        // Accesses recorded but no hits / no off-chip traffic: the ratios
        // must be exact 0.0, and with hits == accesses exactly 1.0.
        let mut s = empty();
        s.total_accesses = 10;
        assert_eq!(s.offchip_fraction(), 0.0);
        assert_eq!(s.l1_hit_rate(), 0.0);
        s.l1_hits = 10;
        s.offchip_accesses = 10;
        assert_eq!(s.offchip_fraction(), 1.0);
        assert_eq!(s.l1_hit_rate(), 1.0);
        // Controllers present but a zero-cycle run must not divide by the
        // elapsed time.
        s.mc = vec![McStats::default(); 2];
        s.exec_cycles = 0;
        assert_eq!(s.bank_queue_occupancy(), 0.0);
    }

    #[test]
    fn reduction_is_relative() {
        assert!((RunStats::reduction(80.0, 100.0) - 0.2).abs() < 1e-12);
        assert_eq!(RunStats::reduction(1.0, 0.0), 0.0);
    }

    #[test]
    fn reduction_is_total_over_non_finite_inputs() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(RunStats::reduction(1.0, bad), 0.0, "base {bad}");
            assert_eq!(RunStats::reduction(bad, 1.0), 0.0, "opt {bad}");
            assert_eq!(RunStats::reduction(bad, bad), 0.0);
        }
        // -0.0 is still a zero denominator.
        assert_eq!(RunStats::reduction(1.0, -0.0), 0.0);
    }

    #[test]
    fn improvement_between_empty_runs_is_all_finite_zeros() {
        let a = empty();
        let b = empty();
        let imp = Improvement::between(&a, &b);
        for (name, v) in [
            ("onchip_net", imp.onchip_net),
            ("offchip_net", imp.offchip_net),
            ("memory", imp.memory),
            ("exec_time", imp.exec_time),
        ] {
            assert!(v.is_finite(), "{name} not finite");
            assert_eq!(v, 0.0, "{name}");
        }
        assert_eq!(imp, Improvement::default());
    }

    #[test]
    fn mc_request_shares_normalize() {
        let mut s = empty();
        s.node_mc_requests = vec![vec![3, 0], vec![1, 0], vec![0, 0]];
        let shares = s.mc_request_shares(0);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((shares[0] - 0.75).abs() < 1e-12);
    }
}
