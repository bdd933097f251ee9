//! Allocation budgets for the instance store and the census.
//!
//! This test binary installs a counting global allocator, so it can assert
//! how many heap allocations one call makes. The counter is thread-local:
//! the test harness runs tests on parallel threads, and each test reads only
//! the allocations its own thread made.
//!
//! The budgets pin two properties that no timing would catch regressing:
//! `BitsetSample::from_states` allocates its word vector and nothing else,
//! and `ComponentCensus::compute` allocates a fixed set of dense tables
//! whose count depends on neither |V| nor the number of components (one
//! neighbor `Vec` per vertex would be more than 16 000 allocations on H₁₄,
//! and a hash map of sizes reallocates as components multiply).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use faultnet_percolation::components::ComponentCensus;
use faultnet_percolation::{BitsetSample, PercolationConfig};
use faultnet_topology::hypercube::Hypercube;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the number of allocations (fresh
/// blocks and reallocations) it made on this thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn bitset_sample_from_states_allocates_once() {
    for dimension in [10, 14] {
        let cube = Hypercube::new(dimension);
        for p in [0.05, 0.5] {
            let sampler = PercolationConfig::new(p, 3).sampler();
            let (sample, allocations) =
                allocations_during(|| BitsetSample::from_states(&cube, &sampler));
            assert_eq!(allocations, 1, "H_{dimension} at p = {p}");
            drop(sample);
        }
    }
}

/// The census's tables: the union-find's parent and size arrays, the
/// per-vertex labels and the per-label sizes.
const CENSUS_ALLOCATIONS: u64 = 4;

#[test]
fn census_allocations_do_not_grow_with_the_graph() {
    for dimension in [10, 14] {
        let cube = Hypercube::new(dimension);
        for p in [0.05, 0.5] {
            let states = BitsetSample::from_config(&cube, &PercolationConfig::new(p, 3));
            let (census, allocations) =
                allocations_during(|| ComponentCensus::compute(&cube, &states));
            assert_eq!(allocations, CENSUS_ALLOCATIONS, "H_{dimension} at p = {p}");
            drop(census);
        }
    }
}
