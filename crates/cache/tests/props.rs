//! Property-based tests of the cache and directory invariants.

use hoploc_cache::{CacheConfig, Directory, SetAssocCache};
use hoploc_obs::Sink;
use hoploc_ptest::run_cases;
use std::collections::HashSet;

#[test]
fn accessed_line_becomes_resident() {
    run_cases("accessed_line_becomes_resident", 64, |rng| {
        let lines = rng.vec_u64(1..200, 0..4096);
        let mut c = SetAssocCache::new(CacheConfig::l1_default());
        for &l in &lines {
            c.access(l);
            assert!(c.contains(l), "line {l} not resident right after access");
        }
    });
}

#[test]
fn capacity_is_never_exceeded() {
    run_cases("capacity_is_never_exceeded", 64, |rng| {
        let lines = rng.vec_u64(1..400, 0..100_000);
        let cfg = CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            ways: 2,
        };
        let capacity = (cfg.size_bytes / cfg.line_bytes) as usize;
        let mut c = SetAssocCache::new(cfg);
        let mut resident: HashSet<u64> = HashSet::new();
        for &l in &lines {
            let r = c.access(l);
            if let Some(e) = r.evicted {
                resident.remove(&e);
            }
            resident.insert(l);
            assert!(resident.len() <= capacity);
        }
        // The model agrees with our shadow set.
        for &l in &resident {
            assert!(c.contains(l));
        }
    });
}

#[test]
fn hits_plus_misses_equals_accesses() {
    run_cases("hits_plus_misses_equals_accesses", 64, |rng| {
        let lines = rng.vec_u64(1..300, 0..512);
        let mut c = SetAssocCache::new(CacheConfig::l2_default());
        for &l in &lines {
            c.access(l);
        }
        let s = c.stats();
        assert_eq!(s.accesses, lines.len() as u64);
        assert_eq!(s.hits + s.misses(), s.accesses);
    });
}

#[test]
fn invalidate_removes() {
    run_cases("invalidate_removes", 64, |rng| {
        let line = rng.u64_in(0..10_000);
        let mut c = SetAssocCache::new(CacheConfig::l1_default());
        c.access(line);
        assert!(c.invalidate(line));
        assert!(!c.contains(line));
    });
}

#[test]
fn directory_tracks_sharers_exactly() {
    run_cases("directory_tracks_sharers_exactly", 64, |rng| {
        let n_ops = rng.usize_in(1..200);
        let ops: Vec<(u64, usize, bool)> = (0..n_ops)
            .map(|_| (rng.u64_in(0..64), rng.usize_in(0..32), rng.flip()))
            .collect();
        let mut dir = Directory::new();
        let mut shadow: std::collections::HashMap<u64, HashSet<usize>> = Default::default();
        for &(line, node, add) in &ops {
            if add {
                dir.add_sharer(line, node);
                shadow.entry(line).or_default().insert(node);
            } else {
                dir.remove_sharer(line, node);
                if let Some(s) = shadow.get_mut(&line) {
                    s.remove(&node);
                }
            }
        }
        for (line, sharers) in &shadow {
            let mut expect: Vec<usize> = sharers.iter().copied().collect();
            expect.sort_unstable();
            assert_eq!(dir.sharers(*line), expect);
            // The lookup mask is the same set minus the requester.
            let requester = rng.usize_in(0..32);
            let mask = dir.lookup_obs(*line, requester, 0, &Sink::disabled());
            let others: Vec<usize> = expect.into_iter().filter(|&n| n != requester).collect();
            assert_eq!(Directory::nodes(mask).collect::<Vec<_>>(), others);
            assert_eq!(dir.lookup(*line, requester), others);
        }
    });
}

/// The reference LRU model: each set a `Vec` of ways stamped with the
/// access clock, hits and fills found by linear scan, the victim the
/// first invalid way or else the least recently stamped one. This is the
/// cache as it was first written; [`SetAssocCache`] must match it access
/// for access.
mod oracle {
    use hoploc_cache::{AccessResult, CacheConfig, CacheStats};

    #[derive(Clone, Copy)]
    struct Way {
        tag: u64,
        valid: bool,
        dirty: bool,
        last_used: u64,
        prefetched: bool,
    }

    pub struct LruModel {
        sets: Vec<Vec<Way>>,
        clock: u64,
        pub stats: CacheStats,
    }

    impl LruModel {
        pub fn new(config: CacheConfig) -> Self {
            let way = Way {
                tag: 0,
                valid: false,
                dirty: false,
                last_used: 0,
                prefetched: false,
            };
            Self {
                sets: vec![vec![way; config.ways]; config.num_sets()],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn set_index(&self, line: u64) -> usize {
            let n = self.sets.len() as u64;
            ((line ^ (line >> 7) ^ (line >> 14)) % n) as usize
        }

        fn fill(&mut self, line: u64, dirty: bool, prefetched: bool) -> AccessResult {
            let idx = self.set_index(line);
            let set = &mut self.sets[idx];
            let victim = match set.iter().position(|w| !w.valid) {
                Some(i) => i,
                None => {
                    set.iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.last_used)
                        .expect("non-empty set")
                        .0
                }
            };
            let old = set[victim];
            set[victim] = Way {
                tag: line,
                valid: true,
                dirty,
                last_used: self.clock,
                prefetched,
            };
            AccessResult {
                hit: false,
                evicted: old.valid.then_some(old.tag),
                evicted_dirty: old.valid && old.dirty,
                prefetched_hit: false,
                evicted_prefetched: old.valid && old.prefetched,
            }
        }

        pub fn access_rw(&mut self, line: u64, write: bool) -> AccessResult {
            self.clock += 1;
            self.stats.accesses += 1;
            let idx = self.set_index(line);
            let clock = self.clock;
            if let Some(w) = self.sets[idx].iter_mut().find(|w| w.valid && w.tag == line) {
                w.last_used = clock;
                w.dirty |= write;
                let prefetched_hit = w.prefetched;
                w.prefetched = false;
                self.stats.hits += 1;
                return AccessResult {
                    hit: true,
                    evicted: None,
                    evicted_dirty: false,
                    prefetched_hit,
                    evicted_prefetched: false,
                };
            }
            self.fill(line, write, false)
        }

        pub fn install_prefetch(&mut self, line: u64) -> AccessResult {
            self.clock += 1;
            if self.contains(line) {
                return AccessResult {
                    hit: true,
                    evicted: None,
                    evicted_dirty: false,
                    prefetched_hit: false,
                    evicted_prefetched: false,
                };
            }
            self.fill(line, false, true)
        }

        pub fn contains(&self, line: u64) -> bool {
            self.sets[self.set_index(line)]
                .iter()
                .any(|w| w.valid && w.tag == line)
        }

        pub fn invalidate(&mut self, line: u64) -> bool {
            let idx = self.set_index(line);
            match self.sets[idx].iter_mut().find(|w| w.valid && w.tag == line) {
                Some(w) => {
                    w.valid = false;
                    true
                }
                None => false,
            }
        }
    }
}

/// Drives [`SetAssocCache`] and the reference model with one seeded
/// random stream of demand reads and writes, prefetch installs, residency
/// probes and invalidations over `universe` lines (plus the extreme line
/// addresses 0 and `u64::MAX`), asserting identical outcomes throughout.
fn matches_reference_model(name: &str, config: CacheConfig, universe: u64) {
    run_cases(name, 24, |rng| {
        let mut cache = SetAssocCache::new(config);
        let mut model = oracle::LruModel::new(config);
        let ops = rng.usize_in(1..4000);
        for step in 0..ops {
            let line = match rng.u64_below(64) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.u64_below(universe),
            };
            match rng.u64_below(20) {
                0..=7 => assert_eq!(
                    cache.access_rw(line, false),
                    model.access_rw(line, false),
                    "read of {line} at step {step}"
                ),
                8..=11 => assert_eq!(
                    cache.access_rw(line, true),
                    model.access_rw(line, true),
                    "write of {line} at step {step}"
                ),
                12..=14 => assert_eq!(
                    cache.install_prefetch(line),
                    model.install_prefetch(line),
                    "prefetch of {line} at step {step}"
                ),
                15..=17 => assert_eq!(
                    cache.contains(line),
                    model.contains(line),
                    "probe of {line} at step {step}"
                ),
                _ => assert_eq!(
                    cache.invalidate(line),
                    model.invalidate(line),
                    "invalidation of {line} at step {step}"
                ),
            }
        }
        assert_eq!(*cache.stats(), model.stats);
    });
}

#[test]
fn l1_scaled_matches_reference_model() {
    matches_reference_model(
        "l1_scaled_matches_reference_model",
        CacheConfig::l1_scaled(),
        256,
    );
}

#[test]
fn l2_scaled_matches_reference_model() {
    matches_reference_model(
        "l2_scaled_matches_reference_model",
        CacheConfig::l2_scaled(),
        320,
    );
}

#[test]
fn l2_default_matches_reference_model() {
    matches_reference_model(
        "l2_default_matches_reference_model",
        CacheConfig::l2_default(),
        2500,
    );
}
