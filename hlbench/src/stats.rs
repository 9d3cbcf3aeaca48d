//! Small measurement helpers: seeded shuffling, order statistics, the
//! FNV-1a digest, and the process's peak resident set.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// splitmix64: a tiny deterministic generator, enough to order cells and
/// shuffle submissions from the `--seed` argument.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The `q` quantile (0..=1) by linear interpolation between closest ranks;
/// 0.0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0.0 when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a, updated incrementally.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0.0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` and returns its result with the elapsed host seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// The probe's host time on the machine the benchmark was defined on (a
/// 2-core Xeon container): host-time metrics are scaled to this speed.
pub const PROBE_REF_S: f64 = 0.020;

/// How fast the host ran during one benchmark run, measured with a fixed
/// probe (benchmark code that never calls hoploc) between operations. The host is shared, and its speed drifts by
/// tens of percent over seconds to minutes; scaling each operation's host
/// time by `PROBE_REF_S / probe time` around it cancels that drift, while a
/// change to hoploc itself, which the probe never executes, still shows in
/// full.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
    /// The kernels' data, built once so that repeated probes neither
    /// allocate nor move the process's peak resident set.
    table: Vec<u32>,
    map: HashMap<u64, u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    sets: Vec<[(u64, u64); 8]>,
}

impl HostSpeed {
    /// Times one probe and records the geometric mean of its two kernels: a
    /// dependent random walk over a 16 MiB table (memory latency), and a
    /// hash-map, binary-heap and set-scan loop shaped like a simulator's
    /// event handling (core-bound). Each kernel alone tracked the
    /// simulator's speed on some workloads only; their mean tracked it on
    /// all of them.
    pub fn sample(&mut self) {
        let walk = self.walk();
        let events = self.events();
        self.samples.push((walk * events).sqrt());
    }

    fn walk(&mut self) -> f64 {
        const SLOTS: usize = 4 << 20;
        let mut rng = Rng::new(0x5eed);
        if self.table.is_empty() {
            self.table = (0..SLOTS)
                .map(|_| (rng.next_u64() % SLOTS as u64) as u32)
                .collect();
        }
        let t = Instant::now();
        let mut at = 0usize;
        let mut acc = 0u64;
        for _ in 0..(3 << 19) {
            at = self.table[at] as usize;
            acc = acc.wrapping_add(at as u64).rotate_left(7) ^ rng.next_u64();
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }

    fn events(&mut self) -> f64 {
        const KEYS: u64 = 40_000;
        let mut rng = Rng::new(11);
        self.map.clear();
        self.map.reserve(KEYS as usize);
        self.heap.clear();
        self.sets.clear();
        self.sets.resize(512, [(0, 0); 8]);
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..120_000u64 {
            let k = rng.next_u64() % KEYS;
            *self.map.entry(k).or_insert(0) += i;
            acc ^= self.map.get(&(k ^ 1)).copied().unwrap_or(0);
            self.heap.push(Reverse((acc % 1000 + i, i)));
            if self.heap.len() > 64 {
                if let Some(Reverse((_, j))) = self.heap.pop() {
                    acc = acc.wrapping_add(j);
                }
            }
            let set = &mut self.sets[(k % 512) as usize];
            match set.iter_mut().find(|w| w.0 == k) {
                Some(w) => w.1 = i,
                None => {
                    if let Some(lru) = set.iter_mut().min_by_key(|w| w.1) {
                        *lru = (k, i);
                    }
                }
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// Probes taken so far; an operation bracketed by probes `a..b` is
    /// scaled with `factor(a, b)`.
    pub fn taken(&self) -> usize {
        self.samples.len()
    }

    /// Factor from host seconds to reference seconds for an operation run
    /// between probes `from` and `to` (exclusive): the reference time over
    /// the median of those probes.
    pub fn factor(&self, from: usize, to: usize) -> f64 {
        let window = &self.samples[from.min(self.samples.len())..to.min(self.samples.len())];
        if window.is_empty() {
            1.0
        } else {
            PROBE_REF_S / median(window)
        }
    }

    /// The factor for the whole run so far.
    pub fn run_factor(&self) -> f64 {
        self.factor(0, self.taken())
    }

    pub fn describe(&self) -> String {
        format!(
            "host probe: median {:.2} ms, range {:.2}-{:.2} ms over {} samples \
             (reference {:.0} ms; host times are scaled by the probes around them)",
            median(&self.samples) * 1e3,
            quantile(&self.samples, 0.0) * 1e3,
            quantile(&self.samples, 1.0) * 1e3,
            self.samples.len(),
            PROBE_REF_S * 1e3,
        )
    }
}
