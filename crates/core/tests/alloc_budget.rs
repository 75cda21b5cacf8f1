//! Integration: an allocation budget for one ocean diagnosis.
//!
//! Wall-clock timings are noisy on shared hosts, but the number of heap
//! allocations a diagnosis makes is exact and deterministic. Ocean is
//! the decision-bound workload (about 1000 metric-focus pairs over few
//! engine events), so it is where per-focus copying shows first: a
//! regression that deep-copies names or foci again, or that puts a
//! postmortem pass back on every diagnosis, blows this budget long
//! before it shows in a benchmark.
//!
//! Run alone with `cargo test --release -p histpc --test alloc_budget`.

// A global allocator must be declared with `unsafe impl`.
#![allow(unsafe_code)]

use histpc::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (fresh or growing) and forwards to `System`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Upper bound on allocations for one ocean diagnosis under the paper
/// configuration. The search itself needs about 30 000; the margin
/// absorbs small changes, not a return to per-step string copies.
const BUDGET: u64 = 60_000;

#[test]
fn ocean_diagnosis_stays_within_its_allocation_budget() {
    let config = SearchConfig {
        window: SimDuration::from_secs(2),
        sample: SimDuration::from_millis(250),
        max_time: SimDuration::from_secs(900),
        ..SearchConfig::default()
    };
    let workload = OceanWorkload {
        seed: 1,
        ..OceanWorkload::new()
    };
    let session = Session::new();
    // Warm-up: one-time statics and lazily built tables are not the
    // diagnosis's cost.
    session
        .diagnose(&workload, &config, "warm")
        .expect("warm-up");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let d = session
        .diagnose(&workload, &config, "ocean")
        .expect("diagnosis");
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(d);

    assert!(
        made <= BUDGET,
        "one ocean diagnosis made {made} allocations, budget {BUDGET}"
    );
}
