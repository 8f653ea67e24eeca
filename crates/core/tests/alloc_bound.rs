//! Allocation bounds of the device's whole-pair path.
//!
//! `SmxDevice::align` and `score` stream each sequence's codes through
//! `smx.pack` and hand the same codes to the block, the traceback and
//! the verify: no decoded text, no per-word lane vector, no packed copy.
//! With the block and traceback already fixed in their allocations (see
//! the coprocessor's own bound), a pair then allocates the same number
//! of times whatever its length. A counting global allocator with a
//! per-thread tally pins that, so the test harness's parallel threads
//! do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smx::align::{AlignmentConfig, Sequence};
use smx::orchestrator::SmxDevice;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to the system allocator; the
// thread-local tally is a const-initialized `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
    // `System.alloc` shares.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System.alloc` with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A `len`-symbol pair of `config` whose reference differs from the
/// query at about one position in eight.
fn pair(config: AlignmentConfig, len: usize) -> (Sequence, Sequence) {
    let mut rng = StdRng::seed_from_u64(0xA110C ^ len as u64);
    let card = config.alphabet().cardinality() as u8;
    let q: Vec<u8> = (0..len).map(|_| rng.gen_range(0..card)).collect();
    let r =
        q.iter().map(|&c| if rng.gen_range(0..8u32) == 0 { (c + 1) % card } else { c }).collect();
    let seq = |codes| Sequence::from_codes(config.alphabet(), codes).unwrap();
    (seq(q), seq(r))
}

/// Allocations of one `align` and one `score` of a `len`-symbol pair on
/// a device that has already aligned once on this thread, so one-time
/// setup (the cached kernel choice, the thread's spare border planes)
/// is not counted.
fn device_allocs(config: AlignmentConfig, len: usize) -> (usize, usize) {
    let mut device = SmxDevice::new(config, 2).unwrap();
    let (q, r) = pair(config, len);
    device.align(&q, &r).unwrap();
    let (aln, align) = counted(|| device.align(&q, &r).unwrap());
    let (score, scored) = counted(|| device.score(&q, &r).unwrap());
    assert_eq!(aln.score, score, "{config} len {len}");
    (align, scored)
}

#[test]
fn device_allocations_do_not_grow_with_the_pair() {
    // The serve workload's 150 bp DNA-edit pair, the batch workloads'
    // 2 kbp DNA-gap and ~370 aa protein pairs, each against a short pair
    // of the same configuration.
    for (config, short, long) in [
        (AlignmentConfig::DnaEdit, 150, 2000),
        (AlignmentConfig::DnaGap, 150, 2000),
        (AlignmentConfig::Protein, 40, 370),
    ] {
        let (s, l) = (device_allocs(config, short), device_allocs(config, long));
        assert_eq!(s, l, "{config}: (align, score) allocations at {short} vs {long} symbols");
    }
}

/// Serve's 150 bp DnaEdit pair keeps its Myers words in the thread's
/// recycled buffer, so walking them costs no allocation, and a fresh
/// block allocates its carried borders once: `align` makes at most four
/// allocations and `score` two.
#[test]
fn a_short_edit_pair_allocates_at_most_four_times_to_align() {
    let (align, score) = device_allocs(AlignmentConfig::DnaEdit, 150);
    assert!(align <= 4 && score <= 2, "(align, score) allocations ({align}, {score})");
}
