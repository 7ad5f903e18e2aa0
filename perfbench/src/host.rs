//! The host-speed probe the end-to-end times are scaled by.
//!
//! The benchmark runs on vCPUs that share physical cores and caches with
//! other machines' work, and the speed that leaves it drifts over tens of
//! seconds: on a 2-vCPU Sapphire Rapids KVM guest the ops of one
//! `neuro_touch` seed had a p50 of 108 ms in one run and 135 ms in a run a
//! minute later, and within one run from 0.67 to 1.15 times the run's
//! median over 15-second windows, with the thread's CPU time tracking its
//! wall time (so the cause is contention for the core, not
//! time the vCPU was descheduled). Right after each timed op or set-up the
//! benchmark therefore times a fixed probe, and reports the op's wall time
//! times [`REFERENCE_MS`] ÷ the probe's wall time: the op's time on a host
//! as fast as the reference host. Over sets of ten runs of each workload,
//! with a seed each, this cut the spread of the median op latency between
//! runs from 9-17% to 3-9%.
//!
//! The probe is this file's own code and data (a sort and a box-overlap scan
//! that stay in L2), so a change to the library under test does not move
//! it. It warms its data before it is timed, so whatever the op left in the
//! caches does not move it either.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The probe's wall time on the reference host (a quiet 2-vCPU Sapphire
/// Rapids KVM guest), in milliseconds.
pub const REFERENCE_MS: f64 = 1.9;

/// Keys the probe sorts.
const KEYS: usize = 32 * 1024;
/// Boxes the probe scans, and the stride between its query boxes.
const BOXES: usize = 8 * 1024;
const QUERY_STRIDE: usize = 256;

/// The probe's fixed inputs, made once.
struct Inputs {
    keys: Vec<u64>,
    boxes: Vec<[f64; 6]>,
}

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let keys = (0..KEYS).map(|_| next()).collect();
        let mut coord = || (next() >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
        let boxes = (0..BOXES)
            .map(|_| {
                let (x, y, z) = (coord(), coord(), coord());
                [x, y, z, x + 2.0, y + 2.0, z + 2.0]
            })
            .collect();
        Inputs { keys, boxes }
    })
}

/// The timed part of the probe: sorts a copy of the keys and counts the
/// overlapping pairs of a few query boxes with every box.
fn work(inputs: &Inputs, keys: &mut Vec<u64>) -> u64 {
    keys.clear();
    keys.extend_from_slice(&inputs.keys);
    keys.sort_unstable();
    let mut hits = 0;
    for q in inputs.boxes.iter().step_by(QUERY_STRIDE) {
        for b in &inputs.boxes {
            let overlap = q[0] <= b[3]
                && b[0] <= q[3]
                && q[1] <= b[4]
                && b[1] <= q[4]
                && q[2] <= b[5]
                && b[2] <= q[5];
            hits += u64::from(overlap);
        }
    }
    hits.wrapping_add(keys[KEYS / 2])
}

/// How much faster the host runs now than the reference host: the reference
/// time of the probe ÷ its wall time now. A wall time times this is the time
/// on the reference host.
pub fn scale() -> f64 {
    let inputs = inputs();
    let mut keys = Vec::with_capacity(KEYS);
    // Untimed pass: brings the inputs and the scratch into the caches.
    black_box(work(inputs, &mut keys));
    let start = Instant::now();
    black_box(work(black_box(inputs), &mut keys));
    REFERENCE_MS / (start.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_computes_the_same_every_time() {
        let mut keys = Vec::new();
        let first = work(inputs(), &mut keys);
        assert_eq!(work(inputs(), &mut keys), first);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn the_scale_is_positive_and_finite() {
        let scale = scale();
        assert!(scale.is_finite() && scale > 0.0);
    }
}
