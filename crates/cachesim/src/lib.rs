//! # staged-cachesim — software cache models
//!
//! The paper's experiments ran on a Pentium III and measured real cache
//! behaviour; that is neither portable nor reproducible in CI, so this crate
//! provides deterministic substitutes (see DESIGN.md §4, substitution 2):
//!
//! * [`CacheSim`] — a set-associative, LRU, line-granular cache simulator
//!   over a synthetic address space ([`AddressSpace`], [`Region`]). The SQL
//!   parser and the execution engine *touch* their working sets through a
//!   [`CacheProbe`], so cache hits and misses come from real control flow
//!   (real symbol-table lookups, real page accesses); only the cache itself
//!   is simulated. Used for the §3.1.3 parse-affinity experiment.
//! * [`ModuleCache`] — the paper's own coarse model from §4.2: the cache
//!   holds exactly one module's common working set; switching modules costs
//!   that module's load time `l_i`.
//! * [`tracker::RefTracker`] — classifies memory references into the
//!   private / shared / common × data / code taxonomy of **Table 1**.

#![deny(missing_docs)]

pub mod tracker;

use parking_lot::Mutex;

/// Configuration of a [`CacheSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A cache resembling the Pentium III's 16 KiB 4-way L1D.
    pub fn l1_like() -> Self {
        Self { capacity: 16 * 1024, line: 32, ways: 4 }
    }

    /// A cache resembling the Pentium III's 256 KiB 8-way L2.
    pub fn l2_like() -> Self {
        Self { capacity: 256 * 1024, line: 32, ways: 8 }
    }

    fn num_sets(&self) -> usize {
        (self.capacity / (self.line * self.ways)).max(1)
    }
}

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1]; 0 when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative LRU cache simulator.
///
/// Tags are kept per set in most-recently-used order; an access promotes the
/// line, a miss inserts it and evicts the LRU line if the set is full.
#[derive(Debug, Clone)]
pub struct CacheSim {
    cfg: CacheConfig,
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl CacheSim {
    /// Create an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.ways >= 1);
        let sets = vec![Vec::with_capacity(cfg.ways); cfg.num_sets()];
        Self { cfg, sets, stats: CacheStats::default() }
    }

    /// The configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Access one address; returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line_addr = addr / self.cfg.line as u64;
        let set_idx = (line_addr % self.sets.len() as u64) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line_addr) {
            // Promote to MRU (front).
            let t = set.remove(pos);
            set.insert(0, t);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.cfg.ways {
                set.pop();
            }
            set.insert(0, line_addr);
            self.stats.misses += 1;
            false
        }
    }

    /// Touch every line of `[base, base+len)`; returns `(hits, misses)`.
    pub fn touch_range(&mut self, base: u64, len: u64) -> (u64, u64) {
        if len == 0 {
            return (0, 0);
        }
        let line = self.cfg.line as u64;
        let first = base / line;
        let last = (base + len - 1) / line;
        let mut hits = 0;
        let mut misses = 0;
        for l in first..=last {
            if self.access(l * line) {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        (hits, misses)
    }

    /// Evict everything (keeps counters).
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset counters (keeps contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// A named range of the synthetic address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Region {
    /// An empty region (touching it is a no-op).
    pub const EMPTY: Region = Region { base: 0, len: 0 };
}

/// Bump allocator for synthetic address regions. Regions never overlap and
/// are page-aligned so distinct components never share cache lines.
#[derive(Debug, Default)]
pub struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    /// Create a fresh address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `len` bytes.
    pub fn alloc(&mut self, len: u64) -> Region {
        const ALIGN: u64 = 4096;
        let base = self.next;
        self.next += len.div_ceil(ALIGN) * ALIGN;
        Region { base, len }
    }
}

/// Hook through which instrumented components report the memory they touch.
///
/// Real code paths (the parser's symbol-table lookups, operator inner loops)
/// call this as they run; implementations either ignore the information
/// ([`NullProbe`]) or replay it against a [`CacheSim`] ([`SimProbe`]).
pub trait CacheProbe: Send + Sync {
    /// Touch `len` bytes starting `offset` bytes into `region`.
    fn touch(&self, region: Region, offset: u64, len: u64);
}

/// Probe that ignores all touches (zero-cost default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl CacheProbe for NullProbe {
    fn touch(&self, _region: Region, _offset: u64, _len: u64) {}
}

/// Probe that drives a [`CacheSim`] and accumulates a virtual access cost.
pub struct SimProbe {
    cache: Mutex<CacheSim>,
    /// Virtual cost of a hit, seconds.
    pub hit_cost: f64,
    /// Virtual cost of a miss, seconds.
    pub miss_cost: f64,
    cost: Mutex<f64>,
}

impl SimProbe {
    /// Wrap a cache with the given per-access costs.
    pub fn new(cache: CacheSim, hit_cost: f64, miss_cost: f64) -> Self {
        Self { cache: Mutex::new(cache), hit_cost, miss_cost, cost: Mutex::new(0.0) }
    }

    /// Accumulated virtual time.
    pub fn cost(&self) -> f64 {
        *self.cost.lock()
    }

    /// Reset the accumulated virtual time (cache contents persist).
    pub fn reset_cost(&self) {
        *self.cost.lock() = 0.0;
    }

    /// Evict the cache (e.g. to model unrelated intervening work).
    pub fn flush(&self) {
        self.cache.lock().flush();
    }

    /// Counters of the underlying cache.
    pub fn stats(&self) -> CacheStats {
        self.cache.lock().stats()
    }
}

impl CacheProbe for SimProbe {
    fn touch(&self, region: Region, offset: u64, len: u64) {
        if region.len == 0 || len == 0 {
            return;
        }
        let offset = offset % region.len; // wrap within the region
        let len = len.min(region.len - offset).max(1);
        let (h, m) = self.cache.lock().touch_range(region.base + offset, len);
        *self.cost.lock() += h as f64 * self.hit_cost + m as f64 * self.miss_cost;
    }
}

/// The paper's coarse cache model (§4.2): the cache holds exactly one
/// module's common working set; "a total eviction of that set takes place
/// when the CPU switches to a different module".
#[derive(Debug, Default, Clone)]
pub struct ModuleCache {
    current: Option<usize>,
}

impl ModuleCache {
    /// An empty (cold) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switch to `module`; returns the load time charged (`load_time` on a
    /// switch, `0.0` when the module is already resident).
    pub fn switch(&mut self, module: usize, load_time: f64) -> f64 {
        if self.current == Some(module) {
            0.0
        } else {
            self.current = Some(module);
            load_time
        }
    }

    /// The resident module, if any.
    pub fn resident(&self) -> Option<usize> {
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_access_hits() {
        let mut c = CacheSim::new(CacheConfig { capacity: 1024, line: 32, ways: 2 });
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(31)); // same line
        assert!(!c.access(32)); // next line
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn lru_evicts_oldest_within_set() {
        // 2-way, 1 set: capacity 64, line 32 → 1 set of 2 ways.
        let mut c = CacheSim::new(CacheConfig { capacity: 64, line: 32, ways: 2 });
        c.access(0);
        c.access(32);
        c.access(0); // promote line 0
        c.access(64); // evicts line 32 (LRU)
        assert!(c.access(0), "line 0 should still be resident");
        assert!(!c.access(32), "line 32 was evicted");
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let cfg = CacheConfig { capacity: 4096, line: 32, ways: 4 };
        let mut c = CacheSim::new(cfg);
        c.touch_range(0, 2048);
        c.reset_stats();
        let (h, m) = c.touch_range(0, 2048);
        assert_eq!(m, 0);
        assert_eq!(h, 2048 / 32);
    }

    #[test]
    fn cyclic_scan_larger_than_capacity_never_hits_with_lru() {
        let cfg = CacheConfig { capacity: 1024, line: 32, ways: 32 }; // fully assoc., 1 set
        let mut c = CacheSim::new(cfg);
        for _ in 0..3 {
            c.touch_range(0, 2048); // 2× capacity, round robin defeats LRU
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn flush_forces_misses() {
        let mut c = CacheSim::new(CacheConfig::l1_like());
        c.touch_range(0, 1024);
        c.flush();
        c.reset_stats();
        let (h, m) = c.touch_range(0, 1024);
        assert_eq!(h, 0);
        assert!(m > 0);
    }

    #[test]
    fn address_space_regions_do_not_overlap() {
        let mut a = AddressSpace::new();
        let r1 = a.alloc(100);
        let r2 = a.alloc(5000);
        let r3 = a.alloc(1);
        assert!(r1.base + r1.len <= r2.base);
        assert!(r2.base + r2.len <= r3.base);
    }

    #[test]
    fn sim_probe_accumulates_cost_and_benefits_from_warm_cache() {
        let mut space = AddressSpace::new();
        let region = space.alloc(4096);
        let probe = SimProbe::new(CacheSim::new(CacheConfig::l1_like()), 1e-9, 1e-7);
        probe.touch(region, 0, 4096);
        let cold = probe.cost();
        probe.reset_cost();
        probe.touch(region, 0, 4096);
        let warm = probe.cost();
        assert!(warm < cold / 10.0, "warm={warm} cold={cold}");
    }

    #[test]
    fn module_cache_charges_on_switch_only() {
        let mut mc = ModuleCache::new();
        assert_eq!(mc.switch(0, 1.5), 1.5);
        assert_eq!(mc.switch(0, 1.5), 0.0);
        assert_eq!(mc.switch(1, 2.0), 2.0);
        assert_eq!(mc.resident(), Some(1));
    }
}
