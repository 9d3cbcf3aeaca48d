//! The centralized L2 tag directory used with private L2 caches.
//!
//! In the paper's private-L2 configuration (Figure 2a), each memory
//! controller caches a slice of a centralized directory recording which
//! private L2s hold each line. On an L2 miss, the request travels to the
//! directory slice at the MC owning the line's physical address; the
//! directory then either forwards to a sharer L2 (an *on-chip* access) or
//! issues an *off-chip* memory request.

use hoploc_obs::Sink;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for line-address keys: one folded 64×64→128 multiply. Every
/// input bit reaches both the low bits (bucket index) and the high bits
/// (control tag), so power-of-two line strides spread like any others.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let p = (n ^ self.0) as u128 * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sharer tracking for private L2 lines, keyed by line address.
///
/// Sharers are node indices (`< 128`), stored as a bitmask.
///
/// # Examples
///
/// ```
/// use hoploc_cache::Directory;
///
/// let mut dir = Directory::new();
/// dir.add_sharer(0x40, 3);
/// assert_eq!(dir.sharers(0x40), vec![3]);
/// dir.remove_sharer(0x40, 3);
/// assert!(dir.sharers(0x40).is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Directory {
    entries: HashMap<u64, u128, BuildHasherDefault<LineHasher>>,
    /// Lookups that found at least one sharer (on-chip fulfilment).
    pub on_chip_hits: u64,
    /// Lookups that found no sharer (off-chip fulfilment).
    pub off_chip_misses: u64,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `node` now holds `line`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= 128`.
    pub fn add_sharer(&mut self, line: u64, node: usize) {
        assert!(node < 128, "directory supports up to 128 nodes");
        *self.entries.entry(line).or_insert(0) |= 1u128 << node;
    }

    /// Records that `node` no longer holds `line` (eviction or
    /// invalidation). Empty entries are pruned.
    pub fn remove_sharer(&mut self, line: u64, node: usize) {
        assert!(node < 128, "directory supports up to 128 nodes");
        if let Some(mask) = self.entries.get_mut(&line) {
            *mask &= !(1u128 << node);
            if *mask == 0 {
                self.entries.remove(&line);
            }
        }
    }

    /// The nodes in a sharer bitmask, in ascending order.
    pub fn nodes(mask: u128) -> impl Iterator<Item = usize> {
        let mut rest = mask;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let n = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                n
            })
        })
    }

    /// The nodes currently holding `line`, in ascending order.
    pub fn sharers(&self, line: u64) -> Vec<usize> {
        Self::nodes(self.entries.get(&line).copied().unwrap_or(0)).collect()
    }

    /// Whether any node holds `line`.
    pub fn has_sharer(&self, line: u64) -> bool {
        self.entries.get(&line).copied().unwrap_or(0) != 0
    }

    /// Performs a lookup on behalf of `requester`: returns the sharers
    /// other than the requester in ascending order (the caller picks among
    /// them by distance), and updates the on-chip / off-chip lookup
    /// counters.
    pub fn lookup(&mut self, line: u64, requester: usize) -> Vec<usize> {
        Self::nodes(self.lookup_obs(line, requester, 0, &Sink::disabled())).collect()
    }

    /// Like [`lookup`](Self::lookup), but returns the sharers as a bitmask
    /// (bit `n` set when node `n` holds the line; the requester's bit is
    /// always clear) and additionally mirrors the forward/off-chip outcome
    /// into `sink`. `ts` is the lookup's sim-cycle time.
    pub fn lookup_obs(&mut self, line: u64, requester: usize, ts: u64, sink: &Sink) -> u128 {
        let own = if requester < 128 {
            1u128 << requester
        } else {
            0
        };
        let mask = self.entries.get(&line).copied().unwrap_or(0) & !own;
        if mask == 0 {
            self.off_chip_misses += 1;
        } else {
            self.on_chip_hits += 1;
        }
        sink.dir_lookup(ts, requester as u16, mask != 0);
        mask
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory tracks no lines.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for Directory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "directory: {} lines, {} on-chip, {} off-chip",
            self.entries.len(),
            self.on_chip_hits,
            self.off_chip_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharers_round_trip() {
        let mut d = Directory::new();
        d.add_sharer(1, 5);
        d.add_sharer(1, 63);
        assert_eq!(d.sharers(1), vec![5, 63]);
        d.remove_sharer(1, 5);
        assert_eq!(d.sharers(1), vec![63]);
    }

    #[test]
    fn empty_entries_pruned() {
        let mut d = Directory::new();
        d.add_sharer(7, 2);
        d.remove_sharer(7, 2);
        assert!(d.is_empty());
    }

    #[test]
    fn lookup_excludes_requester() {
        let mut d = Directory::new();
        d.add_sharer(9, 4);
        assert!(d.lookup(9, 4).is_empty());
        assert_eq!(d.off_chip_misses, 1);
        assert_eq!(d.lookup(9, 0), vec![4]);
        assert_eq!(d.on_chip_hits, 1);
    }

    #[test]
    fn remove_missing_is_noop() {
        let mut d = Directory::new();
        d.remove_sharer(1, 1);
        assert!(d.is_empty());
    }

    #[test]
    fn lookup_obs_mirrors_counters() {
        use hoploc_obs::{ObsConfig, Sink, Topology};
        let topo = Topology {
            mesh_width: 2,
            mesh_height: 2,
            mcs: 1,
            banks_per_mc: 1,
        };
        let sink = Sink::recording(topo, ObsConfig::default());
        let mut d = Directory::new();
        d.add_sharer(9, 2);
        d.lookup_obs(9, 0, 10, &sink); // forwarded to node 2
        d.lookup_obs(5, 0, 20, &sink); // nobody shares line 5
        let rep = sink.into_report(100).unwrap();
        assert_eq!(rep.counter("dir.forwards"), d.on_chip_hits);
        assert_eq!(rep.counter("dir.misses"), d.off_chip_misses);
    }

    #[test]
    fn high_node_indices_supported() {
        let mut d = Directory::new();
        d.add_sharer(1, 127);
        assert!(d.has_sharer(1));
        assert_eq!(d.sharers(1), vec![127]);
    }
}
