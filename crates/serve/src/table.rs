//! The policy table compiler: any [`AllocationPolicy`] baked into a
//! dense O(1) lookup table.
//!
//! A policy in this workspace is a pure map `(i, j) → (π_I, π_E)`; online
//! serving calls it once per cluster event, so the decision path should be
//! one bounds check and one array read — not a virtual dispatch into
//! whatever arithmetic the family happens to use. [`CompiledTable`]
//! pre-evaluates the policy on the occupancy grid
//! `(i, j) ∈ [0, max_i] × [0, max_j]` into one contiguous row-major
//! allocation array.
//!
//! **The clamp region.** States beyond the grid are the *clamp region*.
//! Edge-clamping the indices (the [`TabularPolicy`] discipline) is exact
//! for threshold-like families but not for state-dependent fractional ones
//! — fair-share and water-filling keep changing their split for every
//! additional queued job, forever. Serving must never silently change a
//! decision, so the clamp region delegates to the retained source policy:
//! overflow lookups are bit-identical to a direct `allocate` call, just
//! slower. The engine counts them ([`ShardMetrics::overflow_lookups`]) so
//! operators can size grids to keep the hot path at ~100 % coverage.
//!
//! [`TabularPolicy`]: eirs_sim::policy::TabularPolicy
//! [`ShardMetrics::overflow_lookups`]: crate::metrics::ShardMetrics::overflow_lookups

use eirs_sim::policy::{AllocationPolicy, ClassAllocation};
use eirs_sim::record::mix64;

/// A policy compiled to a dense allocation table plus its source policy
/// for the clamp region. Implements [`AllocationPolicy`] itself, so a
/// compiled table drops into every substrate (DES, analysis, MDP grid)
/// unchanged — which is how the replay tests prove the server reproduces
/// the simulator's decision sequence.
pub struct CompiledTable {
    name: String,
    k: u32,
    max_i: usize,
    max_j: usize,
    stride: usize,
    table: Vec<ClassAllocation>,
    source: Box<dyn AllocationPolicy>,
}

impl CompiledTable {
    /// Evaluates `policy` on the full `(i, j) ∈ [0, max_i] × [0, max_j]`
    /// grid for a `k`-server cluster and packs the decisions row-major.
    /// The policy is retained for clamp-region (overflow) lookups.
    pub fn compile(policy: Box<dyn AllocationPolicy>, k: u32, max_i: usize, max_j: usize) -> Self {
        assert!(k >= 1, "need at least one server");
        let stride = max_j + 1;
        let mut table = Vec::with_capacity((max_i + 1) * stride);
        for i in 0..=max_i {
            for j in 0..=max_j {
                table.push(policy.allocate(i, j, k));
            }
        }
        Self {
            name: format!("Compiled[{}]", policy.name()),
            k,
            max_i,
            max_j,
            stride,
            table,
            source: policy,
        }
    }

    /// The allocation decision for occupancy `(i, j)`: one array read on
    /// the grid, a delegated policy call in the clamp region.
    #[inline]
    pub fn lookup(&self, i: usize, j: usize) -> ClassAllocation {
        if i <= self.max_i && j <= self.max_j {
            self.table[i * self.stride + j]
        } else {
            self.source.allocate(i, j, self.k)
        }
    }

    /// The allocation decision when only `available ≤ k` servers are up
    /// (degraded mode). The dense grid is compiled for full capacity, so
    /// any genuinely degraded lookup falls back to the retained source
    /// policy called with the available count — exact, just slower; the
    /// engine counts these in
    /// [`ShardMetrics::degraded_decisions`](crate::metrics::ShardMetrics::degraded_decisions).
    /// At `available >= k` this is exactly [`CompiledTable::lookup`].
    #[inline]
    pub fn lookup_capped(&self, i: usize, j: usize, available: u32) -> ClassAllocation {
        if available >= self.k {
            self.lookup(i, j)
        } else {
            self.source.allocate(i, j, available)
        }
    }

    /// `true` when `(i, j)` hits the precompiled grid (the O(1) hot path).
    #[inline]
    pub fn in_grid(&self, i: usize, j: usize) -> bool {
        i <= self.max_i && j <= self.max_j
    }

    /// Servers the table was compiled for.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Grid bound in `i` (inclusive).
    pub fn max_i(&self) -> usize {
        self.max_i
    }

    /// Grid bound in `j` (inclusive).
    pub fn max_j(&self) -> usize {
        self.max_j
    }

    /// Number of precompiled grid entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Bytes held by the dense table (the cache footprint of the hot path).
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<ClassAllocation>()
    }

    /// The retained source policy (serves the clamp region; also the
    /// reference the bit-identity property tests compare against).
    pub fn source(&self) -> &dyn AllocationPolicy {
        self.source.as_ref()
    }

    /// A decision-behavior fingerprint of the compiled policy: a hash
    /// over `k`, the source policy's name, and the allocation bits on a
    /// **fixed** `33 × 33` probe grid, independent of the grid this
    /// table was compiled with. Because grid and clamp-region lookups
    /// are both bit-identical to the source policy, recompiling the
    /// same policy at any `max_i`/`max_j` yields the same hash — which
    /// is what lets snapshots pin policy identity without pinning grid
    /// size. Used by the hot-swap journal records and
    /// [`EngineSnapshot`](crate::EngineSnapshot) identity checks.
    pub fn identity_hash(&self) -> u64 {
        let mut h = mix64(self.k as u64);
        for b in self.source.name().as_bytes() {
            h = mix64(h ^ *b as u64);
        }
        for i in 0..=32usize {
            for j in 0..=32usize {
                let a = self.lookup(i, j);
                h = mix64(h ^ (((i as u64) << 32) | j as u64));
                h = mix64(h ^ a.inelastic.to_bits());
                h = mix64(h ^ a.elastic.to_bits());
            }
        }
        h
    }
}

impl AllocationPolicy for CompiledTable {
    fn allocate(&self, i: usize, j: usize, k: u32) -> ClassAllocation {
        debug_assert_eq!(k, self.k, "table compiled for k={}, asked k={k}", self.k);
        self.lookup(i, j)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

impl std::fmt::Debug for CompiledTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledTable({}, k={}, grid {}x{})",
            self.name,
            self.k,
            self.max_i + 1,
            self.max_j + 1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_sim::policy::{FairShare, InelasticFirst, WeightedWaterFilling};

    fn bits(a: ClassAllocation) -> (u64, u64) {
        (a.inelastic.to_bits(), a.elastic.to_bits())
    }

    #[test]
    fn grid_lookups_are_bit_identical_to_the_policy() {
        let table = CompiledTable::compile(Box::new(FairShare), 4, 12, 12);
        for i in 0..=12 {
            for j in 0..=12 {
                assert!(table.in_grid(i, j));
                assert_eq!(bits(table.lookup(i, j)), bits(FairShare.allocate(i, j, 4)));
            }
        }
    }

    #[test]
    fn clamp_region_stays_exact_even_for_state_dependent_fractions() {
        // Water-filling keeps changing its split beyond any finite grid —
        // the clamp region must still be exact.
        let p = WeightedWaterFilling {
            elastic_weight: 2.0,
        };
        let table = CompiledTable::compile(Box::new(p), 4, 6, 6);
        for (i, j) in [(7, 3), (3, 7), (40, 40), (100, 2), (0, 99)] {
            assert!(!table.in_grid(i, j));
            assert_eq!(bits(table.lookup(i, j)), bits(p.allocate(i, j, 4)));
        }
    }

    #[test]
    fn compiled_table_reports_its_shape() {
        let table = CompiledTable::compile(Box::new(InelasticFirst), 2, 5, 3);
        assert_eq!(table.k(), 2);
        assert_eq!((table.max_i(), table.max_j()), (5, 3));
        assert_eq!(table.entries(), 6 * 4);
        assert_eq!(
            table.table_bytes(),
            24 * std::mem::size_of::<ClassAllocation>()
        );
        assert_eq!(table.name(), "Compiled[Inelastic-First]");
        assert_eq!(table.source().name(), "Inelastic-First");
    }

    #[test]
    fn identity_hash_is_grid_size_invariant_but_policy_sensitive() {
        let small = CompiledTable::compile(Box::new(FairShare), 4, 4, 4);
        let large = CompiledTable::compile(Box::new(FairShare), 4, 64, 64);
        assert_eq!(small.identity_hash(), large.identity_hash());
        let other = CompiledTable::compile(Box::new(InelasticFirst), 4, 4, 4);
        assert_ne!(small.identity_hash(), other.identity_hash());
        let other_k = CompiledTable::compile(Box::new(FairShare), 3, 4, 4);
        assert_ne!(small.identity_hash(), other_k.identity_hash());
    }

    #[test]
    fn compiled_table_is_itself_an_allocation_policy() {
        let table = CompiledTable::compile(Box::new(InelasticFirst), 4, 8, 8);
        let a = AllocationPolicy::allocate(&table, 2, 3, 4);
        assert_eq!(bits(a), bits(InelasticFirst.allocate(2, 3, 4)));
    }
}
