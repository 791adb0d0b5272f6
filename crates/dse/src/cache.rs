//! Hit/miss accounting for the Phase-2 evaluation caches.
//!
//! The memoizing caches themselves live next to what they memoize (the
//! core crate's candidate and pipeline caches); this module only
//! defines the snapshot type they report through.

/// Hit/miss counters for an evaluation cache, captured at a point in
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Evaluations answered from the cache.
    pub hits: usize,
    /// Evaluations that ran the inner evaluator.
    pub misses: usize,
    /// Distinct points currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let stats = CacheStats { hits: 1, misses: 3, entries: 3 };
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
    }
}
