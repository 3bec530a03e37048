//! Host speed: a fixed reference kernel timed between repeats, so that
//! the end-to-end host times can be stated at a reference host speed.
//!
//! On a shared host the speed a process sees drifts by 20–50 % over tens
//! of seconds to minutes, while the program's share of the work does not.
//! The kernel is the benchmark's own: a small bytecode interpreter and a
//! search tree, with no code from the program under test, so a change to
//! the program moves the program's times and never the kernel's. A run's
//! host times are scaled by `REFERENCE_S / mean(kernel)`: the seconds the
//! same work would take on a host that runs the kernel in `REFERENCE_S`.
//! The mean, not the median, because the host's slow and fast phases make
//! both samples bimodal, and a median jumps between the modes.

use std::hint::black_box;
use std::time::Instant;

/// Kernel seconds on the reference host: about its mean on the 2-vCPU Xeon VM
/// the benchmark was built on, whose means ranged 0.085–0.13 s.
pub const REFERENCE_S: f64 = 0.1;

/// Interpreter steps per kernel call.
const STEPS: u64 = 10_000_000;
/// Keys inserted into the kernel's search tree per call.
const KEYS: usize = 200_000;

/// Run the reference kernel once and return its host seconds.
pub fn reference_kernel() -> f64 {
    let start = Instant::now();
    black_box(interpret());
    black_box(tree());
    start.elapsed().as_secs_f64()
}

/// Seven opcodes with a data-dependent branch and jump, dispatched through
/// a `match` the way a bytecode VM is.
fn interpret() -> (u64, u64) {
    let program: [u8; 16] = black_box([0, 1, 2, 3, 1, 4, 0, 2, 5, 3, 1, 0, 4, 2, 5, 6]);
    let (mut a, mut b, mut pc) = (1u64, 3u64, 0usize);
    for _ in 0..STEPS {
        match program[pc] {
            0 => a = a.wrapping_add(b),
            1 => b ^= a >> 3,
            2 => a = a.rotate_left(5),
            3 => {
                if a & 1 == 0 {
                    pc = (pc + 3) & 15
                }
            }
            4 => b = b.wrapping_mul(31),
            5 => a ^= b,
            _ => pc = (a as usize) & 7,
        }
        pc = (pc + 1) & 15;
    }
    (a, b)
}

/// Pseudo-random inserts into an unbalanced binary search tree held in one
/// vector: a dependent cache miss at every level, as in the program's
/// per-rank state.
fn tree() -> usize {
    const NONE: u32 = u32::MAX;
    // (key, left, right)
    let mut nodes: Vec<(u64, u32, u32)> = Vec::with_capacity(KEYS);
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    let mut depth = 0;
    for _ in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let new = nodes.len() as u32;
        nodes.push((x, NONE, NONE));
        if new == 0 {
            continue;
        }
        let mut at = 0usize;
        loop {
            depth += 1;
            let (key, left, right) = nodes[at];
            let child = if x < key { left } else { right };
            if child != NONE {
                at = child as usize;
                continue;
            }
            if x < key {
                nodes[at].1 = new;
            } else {
                nodes[at].2 = new;
            }
            break;
        }
    }
    depth
}

/// The factor that states a host time measured alongside the kernel's
/// `samples` at the reference speed.
pub fn to_reference(samples: &[f64]) -> f64 {
    REFERENCE_S / crate::mean(samples).max(1e-12)
}
