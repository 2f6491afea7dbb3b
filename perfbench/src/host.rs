//! The host a result was measured on, and its memory-bandwidth roofline.

use std::time::Instant;

/// What a result depends on besides the code: core count, the SIMD
/// kernels the solvers dispatched to, and the last-level cache.
pub struct Host {
    pub nproc: usize,
    pub isa: &'static str,
    pub llc_bytes: u64,
}

impl Host {
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            isa: sdc_dense::simd::active().as_str(),
            llc_bytes: llc_bytes(),
        }
    }

    pub fn llc_mib(&self) -> f64 {
        self.llc_bytes as f64 / (1u64 << 20) as f64
    }
}

/// Size of the highest-level data or unified cache, from CPUID leaf 4
/// (deterministic cache parameters). 0 when the CPU does not report it.
#[cfg(target_arch = "x86_64")]
fn llc_bytes() -> u64 {
    use std::arch::x86_64::__cpuid_count;
    let mut best = (0u32, 0u64);
    for sub in 0..16 {
        // SAFETY: CPUID is available on every x86_64 CPU, and leaf 4 with
        // any subleaf only reads processor identification registers.
        #[allow(unused_unsafe)]
        let r = unsafe { __cpuid_count(4, sub) };
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        if kind == 2 {
            continue; // instruction cache
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        if level >= best.0 {
            best = (level, ways * parts * line * sets);
        }
    }
    best.1
}

#[cfg(not(target_arch = "x86_64"))]
fn llc_bytes() -> u64 {
    0
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Single-thread STREAM triad `a = b + s·c` over three arrays whose
/// combined size is at least four times the last-level cache, so no pass
/// is served from cache. Returns (best GB/s over five passes, bytes per
/// array). Bytes moved are counted the STREAM way: 24 per element.
pub fn triad_gbps(llc_bytes: u64) -> (f64, usize) {
    let total = (4 * llc_bytes.max(32 << 20)) as usize;
    let n = total.div_ceil(3 * 8);
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = std::hint::black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(a.iter().step_by(4096).all(|&v| v == 7.0), "triad produced a wrong value");
    ((24 * n) as f64 / best / 1e9, n * 8)
}
