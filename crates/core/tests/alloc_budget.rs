//! Integration: allocation budgets for one ocean diagnosis and for the
//! engine's steady state.
//!
//! Wall-clock timings are noisy on shared hosts, but the number of heap
//! allocations a diagnosis makes is exact and deterministic. Ocean is
//! the decision-bound workload (about 1000 metric-focus pairs over few
//! engine events), so it is where per-focus copying shows first: a
//! regression that deep-copies names or foci again, or that puts a
//! postmortem pass back on every diagnosis, blows this budget long
//! before it shows in a benchmark. The engine, once warm, allocates only
//! the two `Vec`s each drain hands over, however many events it runs.
//!
//! Run alone with `cargo test --release -p histpc --test alloc_budget`.

// A global allocator must be declared with `unsafe impl`.
#![allow(unsafe_code)]

use histpc::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts every allocation (fresh or growing) and forwards to `System`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's share of `ALLOCATIONS`.
    static MINE: Cell<u64> = const { Cell::new(0) };
}

/// Held by each test so one test's allocations never land in another's
/// global count.
static SERIAL: Mutex<()> = Mutex::new(());

fn count() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = MINE.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
    let _serial = SERIAL.lock().expect("no test panics holding the lock");
    let config = SearchConfig::default();
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

/// What one warm engine step (`run_until` plus `drain_deltas`) may
/// allocate: the drained deltas and the per-process counts.
const PER_STEP: u64 = 2;

/// The engine's own steady state allocates nothing per event: not when a
/// request completes (Poisson B's `Irecv`/`Isend`/`WaitAll`), not when a
/// process enters a collective (wavefront's `AllReduce`).
#[test]
fn warm_engine_steps_allocate_only_the_drained_vecs() {
    let _serial = SERIAL.lock().expect("no test panics holding the lock");
    let workloads: [Box<dyn Workload>; 2] = [
        Box::new(PoissonWorkload::new(PoissonVersion::B)),
        Box::new(WavefrontWorkload::new()),
    ];
    for wl in workloads {
        let mut engine = wl.build_engine();
        engine.set_raw_capture(false);
        let mut now = SimTime::ZERO;
        let mut step = |engine: &mut Engine| {
            now += SimDuration::from_millis(250);
            engine.run_until(now);
            engine.drain_deltas()
        };
        // Warm-up: queues, buffers and every totals key reach full size.
        for _ in 0..20 {
            step(&mut engine);
        }
        let steps = 60;
        let mut events = 0;
        let before = MINE.with(Cell::get);
        for _ in 0..steps {
            events += step(&mut engine).per_proc.iter().sum::<u64>();
        }
        let made = MINE.with(Cell::get) - before;
        let app = &engine.app().name;
        assert!(events > 10_000, "{app}: only {events} events");
        assert!(
            made <= PER_STEP * steps,
            "{app}: {steps} warm steps ({events} events) made {made} allocations, \
             budget {PER_STEP} per step"
        );
    }
}
