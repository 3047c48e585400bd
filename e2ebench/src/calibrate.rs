//! The host-speed probe. On a shared host the speed a process gets drifts
//! by a third over minutes, which no amount of work inside one run can
//! average away. The probe is a fixed piece of benchmark-owned distance
//! arithmetic, timed before every set-up and every operation; the run's
//! times are reported at the probe's reference speed. It calls no library
//! code, so no change to the library can move it.

use std::hint::black_box;
use std::time::Instant;

use crate::report::median;

const POINTS: usize = 16_384;
const DIM: usize = 16;
const QUERIES: usize = 32;

/// The probe's time on the reference host (a 2-vCPU Intel Xeon VM at its
/// usual speed), in seconds. Times are reported as if the host ran at
/// this speed.
pub const REFERENCE_S: f64 = 0.005;

pub struct Probe {
    data: Vec<f64>,
    times: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let data = (0..POINTS * DIM)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        Self {
            data,
            times: Vec::new(),
        }
    }

    /// Times one pass: the distances from `QUERIES` rows to every row of a
    /// 2 MiB buffer.
    pub fn sample(&mut self) {
        let started = Instant::now();
        let mut acc = 0.0;
        for q in self.data.chunks_exact(DIM).take(QUERIES) {
            for p in black_box(&self.data).chunks_exact(DIM) {
                let mut s = 0.0;
                for d in 0..DIM {
                    let t = q[d] - p[d];
                    s += t * t;
                }
                acc += s.sqrt();
            }
        }
        black_box(acc);
        self.times.push(started.elapsed().as_secs_f64());
    }

    /// The median probe time of the run so far.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }

    /// A wall-clock time of this run, converted to the reference speed.
    pub fn at_reference(&self, wall_s: f64) -> f64 {
        wall_s * REFERENCE_S / self.median_s()
    }
}
