//! Set-associative cache model with LRU replacement and dirty tracking.
//!
//! A one-set cache (`Cache::new(64 * entries, entries)`) is a fully
//! associative structure: the simulator's TLBs are one-set caches accessed
//! with the 4-KiB page number (`vaddr >> 12`) in place of the line.

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// On a miss that displaced a valid line: `(line address, was dirty)`.
    ///
    /// A clean eviction is a *silent* eviction (no writeback traffic); a
    /// dirty eviction generates a writeback. The distinction feeds the
    /// `L2SilentEvictions` / `L2WritebackEvictions` telemetry events.
    pub eviction: Option<(u64, bool)>,
}

/// A set-associative cache over 64-byte lines with true-LRU replacement.
///
/// The model tracks tags and dirty bits only (no data), which is all the
/// timing and telemetry models need.
///
/// # Examples
///
/// ```
/// use psca_cpu::Cache;
///
/// let mut l1 = Cache::new(32 * 1024, 8);
/// let first = l1.access(0x1000 >> 6, false);
/// assert!(!first.hit);
/// let second = l1.access(0x1000 >> 6, false);
/// assert!(second.hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    /// `tags[set * ways + way]`; `u64::MAX` marks invalid.
    tags: Vec<u64>,
    dirty: Vec<bool>,
    /// LRU stamps; larger = more recently used.
    stamps: Vec<u64>,
    tick: u64,
    // MRU shortcut: slot holding `last_line`, so a repeat access to the
    // hottest line skips the way scan. Maintained on every hit and fill;
    // a slot can only change contents through a fill, which re-points the
    // shortcut, so the fast path is always a genuine hit.
    last_line: u64,
    last_slot: usize,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with the given associativity
    /// (64-byte lines).
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero ways, or capacity not a
    /// positive multiple of `64 * ways`).
    pub fn new(capacity_bytes: usize, ways: usize) -> Cache {
        assert!(ways > 0, "cache needs at least one way");
        let lines = capacity_bytes / 64;
        assert!(
            lines >= ways && lines.is_multiple_of(ways),
            "capacity {capacity_bytes} incompatible with {ways} ways"
        );
        let sets = lines / ways;
        Cache {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            dirty: vec![false; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
            last_line: u64::MAX,
            last_slot: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Accesses a 64-byte line (address already shifted: `addr >> 6`).
    ///
    /// `is_write` marks the line dirty on hit or fill.
    pub fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        self.tick += 1;
        if line == self.last_line {
            // MRU fast path: identical effects to the scan-hit below.
            self.stamps[self.last_slot] = self.tick;
            if is_write {
                self.dirty[self.last_slot] = true;
            }
            return AccessOutcome {
                hit: true,
                eviction: None,
            };
        }
        let set = (line as usize) % self.sets;
        let base = set * self.ways;
        // Hit?
        for w in 0..self.ways {
            if self.tags[base + w] == line {
                self.stamps[base + w] = self.tick;
                if is_write {
                    self.dirty[base + w] = true;
                }
                self.last_line = line;
                self.last_slot = base + w;
                return AccessOutcome {
                    hit: true,
                    eviction: None,
                };
            }
        }
        // Miss: fill LRU way.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        let evicted_tag = self.tags[base + victim];
        let eviction = if evicted_tag != u64::MAX {
            Some((evicted_tag, self.dirty[base + victim]))
        } else {
            None
        };
        self.tags[base + victim] = line;
        self.dirty[base + victim] = is_write;
        self.stamps[base + victim] = self.tick;
        self.last_line = line;
        self.last_slot = base + victim;
        AccessOutcome {
            hit: false,
            eviction,
        }
    }

    /// Invalidates all lines (used when resetting between traces).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.dirty.fill(false);
        self.stamps.fill(0);
        self.last_line = u64::MAX;
        self.last_slot = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(4096, 4);
        assert!(!c.access(1, false).hit);
        assert!(c.access(1, false).hit);
        // A one-set TLB over 4-KiB pages: two addresses in a page share it.
        let mut tlb = Cache::new(64 * 4, 4);
        assert!(!tlb.access(0x1000 >> 12, false).hit);
        assert!(tlb.access(0x1fff >> 12, false).hit);
        assert!(!tlb.access(0x2000 >> 12, false).hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct construction: 4 lines, 4 ways, 1 set (a TLB's geometry).
        let mut c = Cache::new(256, 4);
        assert_eq!(c.num_sets(), 1);
        for line in 0..4 {
            c.access(line, false);
        }
        // Touch 0 to refresh it, then insert a 5th line; victim must be 1.
        c.access(0, false);
        let out = c.access(100, false);
        assert!(!out.hit);
        assert_eq!(out.eviction, Some((1, false)));
        assert!(c.access(0, false).hit);
        assert!(!c.access(1, false).hit);
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = Cache::new(256, 4);
        c.access(7, true); // dirty fill
        for line in 0..4 {
            c.access(100 + line, false);
        }
        // line 7 was LRU and dirty
        // after filling 4 new lines into 4 ways, 7 must have been evicted
        let found_dirty_eviction = {
            let mut c2 = Cache::new(256, 4);
            c2.access(7, true);
            let mut dirty_evicted = false;
            for line in 0..4 {
                if let Some((tag, dirty)) = c2.access(100 + line, false).eviction {
                    if tag == 7 {
                        dirty_evicted = dirty;
                    }
                }
            }
            dirty_evicted
        };
        assert!(found_dirty_eviction);
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = Cache::new(32 * 1024, 8); // 512 lines
        for line in 0..256u64 {
            c.access(line, false);
        }
        for line in 0..256u64 {
            assert!(c.access(line, false).hit, "line {line}");
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = Cache::new(4096, 4); // 64 lines
        let mut misses = 0;
        for round in 0..4u64 {
            let _ = round;
            for line in 0..1024u64 {
                if !c.access(line, false).hit {
                    misses += 1;
                }
            }
        }
        assert!(misses as f64 / 4096.0 > 0.9);
    }

    #[test]
    fn flush_invalidates() {
        // A 16-set cache and a one-set (TLB) geometry.
        for (bytes, ways) in [(4096, 4), (64 * 4, 4)] {
            let mut c = Cache::new(bytes, ways);
            c.access(1, false);
            c.flush();
            assert!(!c.access(1, false).hit);
        }
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(100, 8);
    }

    /// Plain scan-only LRU cache without the MRU shortcut, used to prove
    /// the shortcut is a pure optimization.
    struct ReferenceCache {
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        dirty: Vec<bool>,
        stamps: Vec<u64>,
        tick: u64,
    }

    impl ReferenceCache {
        fn new(capacity_bytes: usize, ways: usize) -> ReferenceCache {
            let lines = capacity_bytes / 64;
            let sets = lines / ways;
            ReferenceCache {
                sets,
                ways,
                tags: vec![u64::MAX; sets * ways],
                dirty: vec![false; sets * ways],
                stamps: vec![0; sets * ways],
                tick: 0,
            }
        }

        fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
            self.tick += 1;
            let set = (line as usize) % self.sets;
            let base = set * self.ways;
            for w in 0..self.ways {
                if self.tags[base + w] == line {
                    self.stamps[base + w] = self.tick;
                    if is_write {
                        self.dirty[base + w] = true;
                    }
                    return AccessOutcome {
                        hit: true,
                        eviction: None,
                    };
                }
            }
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for w in 0..self.ways {
                if self.tags[base + w] == u64::MAX {
                    victim = w;
                    break;
                }
                if self.stamps[base + w] < oldest {
                    oldest = self.stamps[base + w];
                    victim = w;
                }
            }
            let evicted_tag = self.tags[base + victim];
            let eviction = if evicted_tag != u64::MAX {
                Some((evicted_tag, self.dirty[base + victim]))
            } else {
                None
            };
            self.tags[base + victim] = line;
            self.dirty[base + victim] = is_write;
            self.stamps[base + victim] = self.tick;
            AccessOutcome {
                hit: false,
                eviction,
            }
        }
    }

    #[test]
    fn mru_shortcut_matches_reference_on_random_stream() {
        // 64 lines in 16 sets, and one set of 8 ways (a TLB geometry).
        for (bytes, ways) in [(4096, 4), (64 * 8, 8)] {
            mru_shortcut_matches_reference(bytes, ways);
        }
    }

    fn mru_shortcut_matches_reference(bytes: usize, ways: usize) {
        let mut fast = Cache::new(bytes, ways);
        let mut reference = ReferenceCache::new(bytes, ways);
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut line = 0u64;
        for i in 0..100_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state.is_multiple_of(5) {
                line = (state >> 20) % 256; // jump in a 4x-capacity footprint
            } else if state % 5 == 1 {
                line = line.wrapping_add(1) % 256; // sequential
            }
            // else: repeat the same line (exercises the MRU path)
            let is_write = state.is_multiple_of(3);
            assert_eq!(
                fast.access(line, is_write),
                reference.access(line, is_write),
                "diverged at access {i} line {line}"
            );
            if i == 50_000 {
                fast.flush();
                reference.tags.fill(u64::MAX);
                reference.dirty.fill(false);
                reference.stamps.fill(0);
            }
        }
        assert_eq!(fast.tags, reference.tags);
        assert_eq!(fast.dirty, reference.dirty);
        assert_eq!(fast.stamps, reference.stamps);
    }
}
