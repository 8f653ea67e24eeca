//! Allocation bounds of the border-only block path.
//!
//! The block sweep keeps its tile borders in two flat planes and its
//! strip scratch in one buffer, so a block allocates the same number of
//! times whatever its size, in either mode; the traceback recomputes
//! every tile into one fixed buffer and sizes its CIGAR once, so it too
//! allocates the same number of times whatever the tile count.
//! A counting global allocator with a per-thread tally pins both, so the
//! test harness's parallel threads do not disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smx_align_core::AlignmentConfig;
use smx_coproc::block::{compute_block, BlockMode};
use smx_coproc::traceback::traceback_block;
use smx_coproc::{FaultPlan, FaultSession, RecoveryPolicy, SmxEngine};

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

/// A DNA pair of length `len` whose reference differs from the query at
/// about one position in eight.
fn pair(rng: &mut StdRng, len: usize) -> (Vec<u8>, Vec<u8>) {
    let q: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
    let r = q.iter().map(|&c| if rng.gen_range(0..8u32) == 0 { (c + 1) % 4 } else { c }).collect();
    (q, r)
}

/// The DnaGap engine, after one warm-up tile so one-time process setup
/// (the cached `SMX_FORCE_SCALAR` read) is not counted.
fn engine() -> SmxEngine {
    let cfg = AlignmentConfig::DnaGap;
    let e = SmxEngine::new(cfg.element_width(), &cfg.scoring()).unwrap();
    e.compute_tile(&[0, 1], &[1, 0], &mut [0, 0], &mut [0, 0]).unwrap();
    e
}

fn session() -> FaultSession {
    FaultSession::new(FaultPlan::none(), RecoveryPolicy::default())
}

#[test]
fn block_allocations_do_not_grow_with_the_tile_count() {
    let e = engine();
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let (small_q, small_r) = pair(&mut rng, 64);
    let (large_q, large_r) = pair(&mut rng, 2000); // 125 × 125 = 15 625 tiles
    let block = |q: &[u8], r: &[u8], mode: BlockMode, s: Option<&mut FaultSession>| {
        counted(|| compute_block(&e, q, r, None, mode, s, None).unwrap()).1
    };
    for mode in [BlockMode::ScoreOnly, BlockMode::Traceback] {
        let small = block(&small_q, &small_r, mode, None);
        assert_eq!(block(&large_q, &large_r, mode, None), small, "{mode:?}, no session");
    }
    let (mut s_small, mut s_large) = (session(), session());
    let small_faulted = block(&small_q, &small_r, BlockMode::Traceback, Some(&mut s_small));
    let large_faulted = block(&large_q, &large_r, BlockMode::Traceback, Some(&mut s_large));
    assert_eq!(large_faulted, small_faulted, "fault session over FaultPlan::none()");
}

#[test]
fn traceback_allocations_do_not_grow_with_the_tile_count() {
    let e = engine();
    let mut rng = StdRng::seed_from_u64(0x7ACE);
    let (small_q, small_r) = pair(&mut rng, 64);
    let (large_q, large_r) = pair(&mut rng, 2000);
    let walk = |q: &[u8], r: &[u8], s: Option<&mut FaultSession>| {
        let out = compute_block(&e, q, r, None, BlockMode::Traceback, None, None).unwrap();
        let store = out.borders.as_ref().unwrap();
        let ((_, stats), allocs) = counted(|| traceback_block(&e, q, r, store, s, None).unwrap());
        (stats.tiles, allocs)
    };
    let (small_tiles, small) = walk(&small_q, &small_r, None);
    let (large_tiles, large) = walk(&large_q, &large_r, None);
    assert!(large_tiles >= 125, "the path crosses at least one tile per tile row");
    assert!(large_tiles > 10 * small_tiles, "{small_tiles} vs {large_tiles} tiles");
    assert_eq!(large, small, "no session");
    let (mut s_small, mut s_large) = (session(), session());
    let small_faulted = walk(&small_q, &small_r, Some(&mut s_small)).1;
    let large_faulted = walk(&large_q, &large_r, Some(&mut s_large)).1;
    assert_eq!(large_faulted, small_faulted, "fault session over FaultPlan::none()");
}

/// A traceback-mode block hands its two border planes back to a
/// one-slot per-thread spare when its store drops, so the next
/// traceback-mode block on the thread that fits allocates no planes:
/// two fewer allocations than the first block on a fresh thread, and
/// byte-identical borders. A larger block cannot reuse the smaller
/// spare and allocates fresh planes again.
#[test]
fn a_second_traceback_block_on_a_thread_reuses_the_planes() {
    let e = engine();
    let mut rng = StdRng::seed_from_u64(0x5BA2E);
    let (q, r) = pair(&mut rng, 600);
    let (big_q, big_r) = pair(&mut rng, 900);
    let run = |q: &[u8], r: &[u8]| {
        counted(|| compute_block(&e, q, r, None, BlockMode::Traceback, None, None).unwrap())
    };
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let (first, fresh) = run(&q, &r);
                let first_borders = first.borders.clone();
                drop(first);
                let (second, reused) = run(&q, &r);
                assert_eq!(reused + 2, fresh, "the second block allocates no planes");
                assert_eq!(second.borders, first_borders, "recycled planes hold the same borders");
                drop(second);
                let (_, bigger) = run(&big_q, &big_r);
                assert_eq!(bigger, fresh, "a spare too small is not reused");
            })
            .join()
            .unwrap();
    });
}
