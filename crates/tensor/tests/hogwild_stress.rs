//! Concurrency stress tests for the HOGWILD parameter store and the
//! threaded kernel row-split.
//!
//! [`HogwildArray`] deliberately allows benign data races (Recht et al.,
//! 2011): `add_to_row` is a racy read-modify-write that may *lose*
//! concurrent updates, but because every element is an `AtomicU32` it can
//! never *tear* — a reader always observes some value that was actually
//! written, never a byte-mashup of two writes. These tests pin that
//! boundary down under real contention:
//!
//! - all writers only ever store integer-valued floats, so any observed
//!   non-integer (or out-of-range) value would be a torn read;
//! - lost updates are bounded: the final cell value never exceeds the
//!   total number of increments, and `fetch_add` (a CAS loop) loses none;
//! - the scoped-thread kernel split stays bit-identical to the serial
//!   kernel for every thread count while other threads hammer the source
//!   buffers' sibling cache lines.
//!
//! Thread interleaving is scheduler-dependent, so the *lossiness* itself
//! is not asserted (on a single hardware thread updates may happen to
//! serialize); only the invariants that must hold on every interleaving
//! are.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use pbg_tensor::hogwild::HogwildArray;
use pbg_tensor::kernels::{matmul_nt_packed, matmul_nt_packed_threaded, PackedNt};
use pbg_tensor::rng::Xoshiro256;

const THREADS: usize = 8;
const INCREMENTS: usize = 2_000;

/// A float written by these tests is always a whole number; seeing
/// anything else means a torn read, which `AtomicU32` must prevent.
fn assert_untorn(v: f32, max: f32, what: &str) {
    assert!(
        v.fract() == 0.0 && (0.0..=max).contains(&v),
        "{what}: observed torn/corrupt value {v} (expected integer in [0, {max}])"
    );
}

#[test]
fn fetch_add_under_contention_loses_nothing() {
    let arr = HogwildArray::zeros(2, 4);
    thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..INCREMENTS {
                    arr.fetch_add((i / 4) % 2, i % 4, 1.0);
                }
            });
        }
    });
    // CAS-loop adds are exact: every increment lands.
    let total: f32 = arr.to_vec().iter().sum();
    assert_eq!(total, (THREADS * INCREMENTS) as f32);
    // Per-cell: i cycles through all 8 (row, col) cells, so each received
    // exactly THREADS * INCREMENTS / 8 increments.
    for row in 0..2 {
        for col in 0..4 {
            assert_eq!(arr.get(row, col), (THREADS * INCREMENTS / 8) as f32);
        }
    }
}

#[test]
fn add_to_row_never_tears_and_bounds_lost_updates() {
    let cols = 16;
    let arr = HogwildArray::zeros(1, cols);
    let max = (THREADS * INCREMENTS) as f32;
    let stop = AtomicBool::new(false);
    thread::scope(|outer| {
        // Reader: continuously snapshot the row mid-race until told to stop.
        outer.spawn(|| {
            let mut buf = vec![0.0f32; cols];
            while !stop.load(Ordering::Relaxed) {
                arr.read_row_into(0, &mut buf);
                for &v in &buf {
                    assert_untorn(v, max, "mid-race read_row_into");
                }
            }
        });
        // Writers: racy += 1.0 on every element of the row. Updates may
        // be lost, but no write can tear. The inner scope joins them, and
        // only then is the reader released.
        thread::scope(|inner| {
            for _ in 0..THREADS {
                inner.spawn(|| {
                    let ones = vec![1.0f32; cols];
                    for _ in 0..INCREMENTS {
                        arr.add_to_row(0, 1.0, &ones);
                    }
                });
            }
        });
        stop.store(true, Ordering::Relaxed);
    });
    for col in 0..cols {
        let v = arr.get(0, col);
        assert_untorn(v, max, "final value");
        // At least one thread's final increment survives; with any
        // interleaving the cell can't end below 1.
        assert!(v >= 1.0, "cell {col} lost every single update: {v}");
    }
}

#[test]
fn write_row_elements_are_never_torn() {
    // Each writer stores a row filled with its own tag value; elements of
    // a snapshot may mix tags (write_row is not atomic as a row) but each
    // element must be exactly one of the tags.
    let cols = 8;
    let arr = HogwildArray::from_vec(1, cols, vec![1.0; cols]);
    let tags: Vec<f32> = (1..=THREADS).map(|t| t as f32).collect();
    let arr = &arr;
    thread::scope(|scope| {
        for &tag in &tags {
            scope.spawn(move || {
                let row = vec![tag; cols];
                for _ in 0..INCREMENTS {
                    arr.write_row(0, &row);
                }
            });
        }
        scope.spawn(|| {
            let mut buf = vec![0.0f32; cols];
            for _ in 0..INCREMENTS {
                arr.read_row_into(0, &mut buf);
                for &v in &buf {
                    assert!(
                        v.fract() == 0.0 && v >= 1.0 && v <= THREADS as f32,
                        "observed value {v} was never written by any thread"
                    );
                }
            }
        });
    });
}

#[test]
fn threaded_kernel_split_is_bit_identical_under_memory_pressure() {
    // A shape big enough for a real multi-block split (m > MC).
    let (m, n, k) = (192, 64, 48);
    let mut rng = Xoshiro256::seed_from_u64(0x57e5);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_normal()).collect();
    let b: Vec<f32> = (0..n * k).map(|_| rng.gen_normal()).collect();
    let packed = PackedNt::pack(n, k, &b, k);

    let mut serial = vec![0.0f32; m * n];
    matmul_nt_packed(m, k, &a, k, &packed, &mut serial, n);

    // Hammer an adjacent HogwildArray from background threads while the
    // split kernel runs, so the kernel's reads/writes share the memory
    // system with racing atomics.
    let noise = HogwildArray::zeros(4, 64);
    let stop = AtomicBool::new(false);
    let (noise_ref, stop_ref) = (&noise, &stop);
    thread::scope(|scope| {
        for t in 0..2 {
            scope.spawn(move || {
                let delta = vec![1.0f32; 64];
                while !stop_ref.load(Ordering::Relaxed) {
                    noise_ref.add_to_row(t, 1.0, &delta);
                }
            });
        }
        for threads in [1, 2, 3, 4, 7] {
            let mut out = vec![f32::NAN; m * n];
            matmul_nt_packed_threaded(m, k, &a, k, &packed, &mut out, n, threads);
            for (i, (&got, &want)) in out.iter().zip(&serial).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "threads={threads}, element {i}: {got} != serial {want}"
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
}
