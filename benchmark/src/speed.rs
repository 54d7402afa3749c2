//! The host-speed reference.
//!
//! Host times on a shared machine drift. In ten-run suites every
//! workload slowed or sped up *together* by 20–30% over ten to fifteen
//! minutes, the same share for all six. That is the host changing, not
//! the simulator. A fixed kernel of random reads and writes over 4 MB,
//! timed just before each set-up and each operation, measures that
//! drift: in a ten-minute recording on a shared 2-vCPU VM, the 1 M-cycle
//! `paper-4cpu` operation ranged over 18% while its ratio to the kernel
//! stayed within ±1% once warm. `setup_s` and `op_ms` are therefore
//! reported at the reference speed: the raw median times
//! [`NOMINAL_NS`] over the median kernel time of the same run.
//!
//! The kernel belongs to the benchmark, not the simulator, so no change
//! to the simulator moves it.

use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations per sample.
const ITERS: u64 = 1 << 19;

/// The kernel's nominal duration, about its time on an idle 2-vCPU Xeon
/// VM: times are scaled to a host on which it takes this long.
pub const NOMINAL_NS: f64 = 8e6;

/// The reference kernel, its 4 MB buffer, and the samples taken.
#[derive(Debug)]
pub struct Speed {
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for Speed {
    fn default() -> Self {
        Speed { buf: vec![0; 1 << 19], samples: Vec::new() }
    }
}

impl Speed {
    /// Times the kernel once and keeps the sample.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(self.run());
        self.samples.push(t.elapsed().as_nanos() as f64);
    }

    /// Hands over the samples taken so far and starts afresh.
    pub fn take(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.samples)
    }

    /// A xorshift walk over the buffer: one dependent random read per
    /// iteration, a write on half of them.
    fn run(&mut self) -> u64 {
        let mask = self.buf.len() - 1;
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            let v = self.buf[i];
            acc = acc.wrapping_add(v ^ x);
            if v & 1 == 0 {
                self.buf[i] = v.wrapping_add(x);
            } else {
                acc = acc.rotate_left(5);
            }
        }
        acc
    }
}

/// Factor that rescales host times measured alongside kernel samples
/// `samples` to the reference speed.
///
/// # Panics
///
/// Panics on no samples.
pub fn scale(samples: &[f64]) -> f64 {
    NOMINAL_NS / crate::stats::median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_time_and_scale_is_relative_to_nominal() {
        let mut s = Speed::default();
        s.sample();
        s.sample();
        let samples = s.take();
        assert!(samples.len() == 2 && samples.iter().all(|&ns| ns > 0.0));
        assert!(s.take().is_empty());
        assert_eq!(scale(&[NOMINAL_NS, 2.0 * NOMINAL_NS, NOMINAL_NS]), 1.0);
        assert_eq!(scale(&[2.0 * NOMINAL_NS]), 0.5);
    }
}
