//! Host speed, measured next to every timed operation.
//!
//! On a shared host the same solve takes anywhere from 0.7x to 1.3x its
//! typical time, in phases of seconds to minutes, because other tenants
//! share the cores' execution units, caches and memory bus. No statistic
//! of one run's samples removes a phase that lasts the whole run. So each
//! timed operation runs between two runs of two fixed reference kernels
//! of the benchmark's own (they call no code of the repository, so no
//! change to the program moves them): a register- and L1-bound update
//! loop and a 5-point stencil with dot/axpy sweeps over 2 MiB. The
//! geometric mean of the kernels' slowdowns against their nominal times,
//! averaged over the two runs, is the host's slowdown for the operation,
//! and the operation's time divided by it is its *paced* time: seconds at
//! the nominal host speed. Gated end-to-end times are medians of paced
//! times; the raw medians are printed beside them.

use std::sync::Mutex;
use std::time::Instant;

/// Nominal times of the two kernels (a quiet 2-vCPU Xeon, AVX2), so a
/// paced time reads in seconds at that speed.
const COMPUTE_NOMINAL_S: f64 = 1.5e-3;
const MEMORY_NOMINAL_S: f64 = 4.0e-3;

const GRID: usize = 128;
const COLUMNS: usize = 16;
const SWEEPS: usize = 16;

/// One thread's reference kernels and their buffers.
struct Pace {
    regs: Vec<f64>,
    grid: Vec<f64>,
}

impl Pace {
    fn new() -> Pace {
        let mut p = Pace { regs: vec![1.0; 512], grid: vec![1.0; GRID * GRID * COLUMNS] };
        p.slowdown();
        p
    }

    /// A chain of dependent multiply-adds on 4 KiB.
    fn compute(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..20_000 {
            for x in self.regs.iter_mut() {
                *x = *x * 0.999_999 + 1e-9;
            }
            acc += self.regs[0];
        }
        acc
    }

    /// A 5-point stencil over a 128x128 grid and, against its first
    /// column, a dot and an axpy with each of 15 more columns (2 MiB).
    fn memory(&mut self) -> f64 {
        let (n, m) = (GRID, GRID * GRID);
        let v = &mut self.grid;
        let mut acc = 0.0;
        for rep in 0..SWEEPS {
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    let k = i * n + j;
                    acc += (4.0 * v[k] - v[k - 1] - v[k + 1] - v[k - n] - v[k + n]) * 1e-12;
                }
            }
            for c in 1..COLUMNS {
                let (head, tail) = v.split_at_mut(c * m);
                let (base, col) = (&head[..m], &mut tail[..m]);
                let d: f64 = base.iter().zip(col.iter()).map(|(x, y)| x * y).sum();
                for (y, x) in col.iter_mut().zip(base) {
                    *y -= d * 1e-20 * x;
                }
                acc += d * 1e-20 + rep as f64;
            }
        }
        acc
    }

    /// How much slower than nominal the host runs right now.
    fn slowdown(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.compute());
        let c = t.elapsed().as_secs_f64() / COMPUTE_NOMINAL_S;
        let t = Instant::now();
        std::hint::black_box(self.memory());
        let m = t.elapsed().as_secs_f64() / MEMORY_NOMINAL_S;
        (c * m).sqrt()
    }
}

/// Kernel buffers not in use. Threads that pace at once each take their
/// own; the buffers are made once and never freed, so pacing adds the
/// same few MiB to every run's peak resident set.
static IDLE: Mutex<Vec<Pace>> = Mutex::new(Vec::new());

/// The host's slowdown against nominal, measured on this thread now.
pub fn slowdown() -> f64 {
    let idle = || IDLE.lock().expect("no panics while holding the pace lock");
    let popped = idle().pop();
    let mut p = popped.unwrap_or_else(Pace::new);
    let s = p.slowdown();
    idle().push(p);
    s
}

/// A timed operation: its wall seconds and the host's slowdown around it.
#[derive(Clone, Copy, Debug)]
pub struct Paced {
    pub raw: f64,
    pub slowdown: f64,
}

impl Paced {
    /// Seconds at the nominal host speed.
    pub fn paced(&self) -> f64 {
        self.raw / self.slowdown
    }

    /// Another operation that ran inside this one (one of two concurrent
    /// solves, say), paced by the same slowdown.
    pub fn part(&self, raw: f64) -> Paced {
        Paced { raw, slowdown: self.slowdown }
    }
}

/// Runs `f` between two measurements of the host's slowdown on this
/// thread, and paces it by their mean. The measurements run while no
/// other thread of the benchmark works, so an operation on two threads
/// keeps the cost of its threads' contention for the core and caches.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Paced, T) {
    let before = slowdown();
    let t = Instant::now();
    let v = f();
    let raw = t.elapsed().as_secs_f64();
    (Paced { raw, slowdown: 0.5 * (before + slowdown()) }, v)
}

/// Paced and raw values of a set of timed operations.
pub fn paced(v: &[Paced]) -> Vec<f64> {
    v.iter().map(Paced::paced).collect()
}
pub fn raw(v: &[Paced]) -> Vec<f64> {
    v.iter().map(|p| p.raw).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_time_divides_out_the_slowdown() {
        let p = Paced { raw: 3.0, slowdown: 1.5 };
        assert!((p.paced() - 2.0).abs() < 1e-15);
        let (t, v) = timed(|| 7);
        assert_eq!(v, 7);
        assert!(t.raw >= 0.0 && t.slowdown > 0.0 && t.slowdown.is_finite());
        // Each thread measures with kernels of its own.
        let s = std::thread::spawn(slowdown).join().expect("lane thread");
        assert!(s > 0.0 && s.is_finite());
    }
}
