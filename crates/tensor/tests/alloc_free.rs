//! Proof that steady-state training is allocation-free.
//!
//! A counting global allocator tallies every `alloc`/`realloc` made by the
//! thread that trains. After one
//! warmup epoch (which grows the scratch arena, the ReLU/argmax caches, and
//! the GEMM pack buffers to their steady-state sizes), repeated
//! `zero_grads → train_step → optimizer step` sweeps must not touch the
//! allocator at all — for a conv net, whose backward stops at the stem
//! `Conv2d`, and for an MLP, whose backward stops at the first `Dense`.

use fedtrip_tensor::conv::ConvGeom;
use fedtrip_tensor::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use fedtrip_tensor::rng::Prng;
use fedtrip_tensor::{Optimizer, Sequential, SgdMomentum, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. The count is per thread because the
    /// test harness's main thread allocates once it starts waiting for the
    /// test's result, at a moment that races the measured loop; training
    /// itself runs on the test's own thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // const-initialised and without a destructor, so usable at any point of
    // a thread's life
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

/// A small conv net exercising every hot-path layer kind.
fn cnn(rng: &mut Prng) -> Sequential {
    let g = ConvGeom {
        in_c: 1,
        in_h: 12,
        in_w: 12,
        out_c: 4,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    };
    Sequential::new(&[1, 12, 12])
        .with(Conv2d::new(g, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(4, 12, 12, 2))
        .with(Flatten::new())
        .with(Dense::new(4 * 6 * 6, 10, rng))
}

/// An MLP over image input: `Flatten` below the first `Dense` gets no
/// backward call.
fn mlp(rng: &mut Prng) -> Sequential {
    Sequential::new(&[1, 12, 12])
        .with(Flatten::new())
        .with(Dense::new(144, 16, rng))
        .with(Relu::new())
        .with(Dense::new(16, 10, rng))
}

#[test]
fn steady_state_train_steps_do_not_allocate() {
    let mut rng = Prng::seed_from_u64(42);
    for (name, mut net) in [("cnn", cnn(&mut rng)), ("mlp", mlp(&mut rng))] {
        let mut opt = SgdMomentum::new(0.01, 0.9);

        let batch = 8usize;
        let x = Tensor::randn(&[batch, 1, 12, 12], 1.0, &mut rng);
        let targets: Vec<usize> = (0..batch).map(|i| i % 10).collect();

        // warmup: grows scratch pools, layer caches, thread-local pack
        // buffers, and the optimizer's velocity buffer
        for _ in 0..3 {
            net.zero_grads();
            net.train_step(&x, &targets);
            opt.step(&mut net);
        }

        let before = allocs();
        for _ in 0..10 {
            net.zero_grads();
            net.train_step(&x, &targets);
            opt.step(&mut net);
        }
        let delta = allocs() - before;
        assert_eq!(
            delta, 0,
            "{name}: steady-state training performed {delta} heap allocations"
        );
    }
}
