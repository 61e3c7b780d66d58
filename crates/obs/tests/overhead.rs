//! Pins the disabled-tracer fast path: opening and dropping spans while no
//! tracer is installed must allocate nothing. This is what makes it safe to
//! leave instrumentation compiled into release builds.
//!
//! Lives in its own integration-test binary so the `#[global_allocator]`
//! swap cannot perturb other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per thread, because `cargo test`
    /// runs this binary's tests on parallel threads and each test must count
    /// only its own allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread's locals are being destroyed.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_spans_do_not_allocate() {
    // Warm up thread-locals and lazy statics outside the measured window.
    {
        let mut s = rfc_obs::trace::span("warmup");
        s.counter("w", 1);
    }

    let before = allocations();
    for _ in 0..10_000 {
        let mut s = rfc_obs::trace::span("hot");
        s.counter("work", 1);
        s.counter("more", 2);
        drop(s);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "disabled span path allocated {} times across 10k spans",
        after - before
    );
    assert!(!rfc_obs::trace::enabled());
}

#[test]
fn disabled_metrics_handles_do_not_allocate_on_record() {
    // Registration allocates (once); recording through the handle must not.
    let counter = rfc_obs::metrics::global().counter("overhead_test_total");
    let histogram = rfc_obs::metrics::global().histogram("overhead_test_us");

    let before = allocations();
    for i in 0..10_000u64 {
        counter.inc();
        histogram.observe(i % 512);
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "metric recording allocated {} times across 10k updates",
        after - before
    );
}
