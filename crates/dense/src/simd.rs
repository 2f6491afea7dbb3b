//! Runtime SIMD dispatch and the AVX2 bodies of the dense kernels.
//!
//! The workspace's determinism contract says every floating-point result
//! is a pure function of the *logical* operation sequence — never of
//! thread count, storage format, or (now) instruction set. The kernels
//! here therefore vectorize **across independent scalar chains**, not
//! within one chain:
//!
//! * [`axpy4`]/[`scal4`] are element-wise maps — each lane computes one
//!   `a * x[i]` / `x[i] * a` with a separate multiply and add, exactly
//!   the scalar op per element, so the result is trivially bitwise
//!   identical (no FMA: fusing would change the rounding of `y + a*x`).
//! * [`dot_subtree`] evaluates a node of the pairwise dot-product tree
//!   whose leaves all sit two levels (4 leaves) or four levels (16
//!   leaves) below it. Each leaf's elements are loaded contiguously and
//!   multiplied, then a 4×4 transpose hands the products to the
//!   accumulator lanes, so lane `l` of a 4-leaf group performs
//!   precisely the additions the scalar tree performs in its `l`-th
//!   leaf, in the same order. A 16-leaf node runs its four 4-leaf
//!   subtrees interleaved in four accumulators, which hides the add
//!   latency. Leaves of non-power-of-two blocks differ in length by at
//!   most one: the lanes run in lockstep over the shortest leaf (rounded
//!   down to whole 4-element steps) and each leaf then finishes its
//!   chain with a scalar tail. The combine is `(s0+s1)+(s2+s3)` at every
//!   level, the tree's own shape — so the reduction is bitwise-pinned to
//!   the scalar [`det_map_sum`] result.
//!
//! Mode selection happens once per process: the first kernel that asks
//! reads `SDC_SIMD` (`auto` | `avx2` | `scalar`), resolves `auto` via
//! `is_x86_feature_detected!`, and caches the answer in an atomic. The
//! shared CLI's `--simd` flag overrides the cache before any kernel runs.
//!
//! [`det_map_sum`]: sdc_parallel::det_map_sum

use std::sync::atomic::{AtomicU8, Ordering};

/// The user-facing SIMD mode (`SDC_SIMD` env var / `--simd` flag).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimdMode {
    /// Use the widest ISA the CPU supports (the default).
    #[default]
    Auto,
    /// Require the AVX2+FMA kernels; an error if the CPU lacks them.
    Avx2,
    /// Force the scalar fallback kernels.
    Scalar,
}

impl SimdMode {
    /// The env/CLI string for this mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            SimdMode::Auto => "auto",
            SimdMode::Avx2 => "avx2",
            SimdMode::Scalar => "scalar",
        }
    }

    /// Parses an env/CLI string (`auto`, `avx2` or `scalar`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(SimdMode::Auto),
            "avx2" => Ok(SimdMode::Avx2),
            "scalar" => Ok(SimdMode::Scalar),
            other => Err(format!("unknown SIMD mode '{other}' (expected auto|avx2|scalar)")),
        }
    }
}

impl std::fmt::Display for SimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The instruction set the kernels actually run on after dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// AVX2 + FMA `f64x4` kernels (FMA used only by the fast-math tier).
    Avx2,
    /// Portable scalar kernels.
    Scalar,
}

impl Isa {
    /// Stable name for traces, metrics and bench dumps.
    pub fn as_str(&self) -> &'static str {
        match self {
            Isa::Avx2 => "avx2",
            Isa::Scalar => "scalar",
        }
    }

    /// Independent `f64` lanes per vector register (4 for AVX2).
    pub fn lanes(&self) -> usize {
        match self {
            Isa::Avx2 => 4,
            Isa::Scalar => 1,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The widest ISA this CPU supports. AVX2 kernels additionally require
/// FMA (the fast-math tier fuses; strict kernels do not, but the two
/// features ship together on every AVX2-era core, so one gate keeps the
/// dispatch binary).
pub fn detected() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2;
        }
    }
    Isa::Scalar
}

// 0 = undecided, 1 = Avx2, 2 = Scalar. Relaxed is enough: the value is
// write-once-ish config, not a synchronization edge.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode(isa: Isa) -> u8 {
    match isa {
        Isa::Avx2 => 1,
        Isa::Scalar => 2,
    }
}

/// The ISA the kernels dispatch to. First call resolves `SDC_SIMD`
/// (unset or unparseable ⇒ `auto`) against [`detected`] and caches the
/// answer; an env request for `avx2` on a CPU without it quietly falls
/// back to scalar (the CLI flag, by contrast, errors — see
/// [`set_mode`]).
pub fn active() -> Isa {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Isa::Avx2,
        2 => Isa::Scalar,
        _ => {
            let mode = std::env::var("SDC_SIMD")
                .ok()
                .and_then(|s| SimdMode::parse(&s).ok())
                .unwrap_or_default();
            let isa = match (mode, detected()) {
                (SimdMode::Scalar, _) | (SimdMode::Avx2, Isa::Scalar) => Isa::Scalar,
                (_, det) => det,
            };
            ACTIVE.store(encode(isa), Ordering::Relaxed);
            isa
        }
    }
}

/// Resolves and installs `mode`, returning the resulting ISA. `Avx2` on
/// a CPU without AVX2+FMA is an error (an explicit CLI request must not
/// silently degrade). Called by the shared CLI's `--simd` flag and by
/// tests pinning a specific kernel path.
pub fn set_mode(mode: SimdMode) -> Result<Isa, String> {
    let isa = match mode {
        SimdMode::Scalar => Isa::Scalar,
        SimdMode::Auto => detected(),
        SimdMode::Avx2 => match detected() {
            Isa::Avx2 => Isa::Avx2,
            Isa::Scalar => {
                return Err("--simd avx2 requested but this CPU lacks avx2+fma".to_string())
            }
        },
    };
    ACTIVE.store(encode(isa), Ordering::Relaxed);
    Ok(isa)
}

/// Serializes tests that flip the global mode, restoring `auto`
/// resolution on drop. Kernel *results* are mode-invariant by
/// construction, but tests asserting which path ran must not race.
pub fn test_mode_guard() -> ModeGuard {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    ModeGuard { _inner: LOCK.lock().unwrap_or_else(|e| e.into_inner()) }
}

/// Guard returned by [`test_mode_guard`].
pub struct ModeGuard {
    _inner: std::sync::MutexGuard<'static, ()>,
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        let _ = set_mode(SimdMode::Auto);
    }
}

/// `y ← a·x + y` over four lanes; `None` when the scalar path should
/// run. Each element still computes `y[i] + a * x[i]` with separate
/// multiply and add, so the result is bitwise-identical to scalar.
#[inline]
pub fn axpy4(a: f64, x: &[f64], y: &mut [f64]) -> Option<()> {
    #[cfg(target_arch = "x86_64")]
    {
        if active() == Isa::Avx2 && x.len() >= 8 {
            // SAFETY: AVX2 availability was verified by `active()`.
            unsafe { avx2::axpy(a, x, y) };
            return Some(());
        }
    }
    let _ = (a, x, y);
    None
}

/// `x ← a·x` over four lanes; `None` when the scalar path should run.
#[inline]
pub fn scal4(a: f64, x: &mut [f64]) -> Option<()> {
    #[cfg(target_arch = "x86_64")]
    {
        if active() == Isa::Avx2 && x.len() >= 8 {
            // SAFETY: AVX2 availability was verified by `active()`.
            unsafe { avx2::scal(a, x) };
            return Some(());
        }
    }
    let _ = (a, x);
    None
}

/// Lane-parallel body for one node of the pairwise dot-product tree
/// whose leaves all sit two or four levels down (130..=256 or
/// 520..=1024 elements); `None` when the scalar tree should run. The
/// result is bitwise the scalar tree's.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_subtree(x: &[f64], y: &[f64]) -> Option<f64> {
    #[cfg(target_arch = "x86_64")]
    {
        use avx2::{quarters, tree4, SUBTREE16, SUBTREE4};
        let n = x.len();
        let four = SUBTREE4.contains(&n);
        if active() == Isa::Avx2 && (four || SUBTREE16.contains(&n)) {
            assert_eq!(n, y.len(), "dot_subtree: length mismatch");
            let leaves = quarters(0, n);
            // SAFETY: AVX2 availability was verified by `active()`; the
            // leaves partition `0..n`, and `x` and `y` have length `n`.
            return Some(unsafe {
                if four {
                    let [s] = avx2::leaf_sums(x, y, [leaves]);
                    tree4(s)
                } else {
                    let groups = leaves.map(|(start, len)| quarters(start, len));
                    tree4(avx2::leaf_sums(x, y, groups).map(tree4))
                }
            });
        }
    }
    let _ = (x, y);
    None
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use std::arch::x86_64::*;

    /// A 4-leaf node of the pairwise tree: both children are split
    /// (`⌊n/2⌋ > B`) and all four grandchildren are leaves (`⌈n/4⌉ ≤ B`),
    /// with `B` = [`PAIRWISE_BASE`](sdc_parallel::PAIRWISE_BASE).
    pub(super) const SUBTREE4: std::ops::RangeInclusive<usize> =
        2 * sdc_parallel::PAIRWISE_BASE + 2..=4 * sdc_parallel::PAIRWISE_BASE;

    /// A 16-leaf node: all four grandchildren are [`SUBTREE4`] nodes.
    pub(super) const SUBTREE16: std::ops::RangeInclusive<usize> =
        8 * sdc_parallel::PAIRWISE_BASE + 8..=16 * sdc_parallel::PAIRWISE_BASE;

    /// `(start, len)` of one leaf.
    pub(super) type Leaf = (usize, usize);

    /// The four grandchildren of the tree node `start..start + len`, split
    /// at `len / 2` twice, exactly as the scalar tree splits.
    pub(super) fn quarters(start: usize, len: usize) -> [Leaf; 4] {
        let (a, b) = (len / 2, len - len / 2);
        [
            (start, a / 2),
            (start + a / 2, a - a / 2),
            (start + a, b / 2),
            (start + a + b / 2, b - b / 2),
        ]
    }

    /// The tree's combine of four sibling sums.
    pub(super) fn tree4(s: [f64; 4]) -> f64 {
        (s[0] + s[1]) + (s[2] + s[3])
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let av = _mm256_set1_pd(a);
        let mut i = 0;
        while i + 4 <= n {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let yv = _mm256_loadu_pd(y.as_mut_ptr().add(i));
            // mul then add, not FMA: bitwise-matches the scalar kernel.
            let r = _mm256_add_pd(yv, _mm256_mul_pd(av, xv));
            _mm256_storeu_pd(y.as_mut_ptr().add(i), r);
            i += 4;
        }
        while i < n {
            y[i] += a * x[i];
            i += 1;
        }
    }

    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scal(a: f64, x: &mut [f64]) {
        let n = x.len();
        let av = _mm256_set1_pd(a);
        let mut i = 0;
        while i + 4 <= n {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            _mm256_storeu_pd(x.as_mut_ptr().add(i), _mm256_mul_pd(xv, av));
            i += 4;
        }
        while i < n {
            x[i] *= a;
            i += 1;
        }
    }

    /// The sums of `G` groups of four leaves: lane `l` of accumulator
    /// `g` runs leaf `leaves[g][l]`'s chain `acc += x[i] * y[i]` (separate
    /// multiply and add, from `0.0`) in element order. Every leaf's first
    /// `m` elements — the shortest leaf's length, rounded down to a
    /// multiple of 4 — run in lockstep; each leaf then finishes with a
    /// scalar tail.
    ///
    /// # Safety
    /// Requires AVX2; every leaf `(start, len)` has `start + len <=
    /// x.len()` and `x.len() == y.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn leaf_sums<const G: usize>(
        x: &[f64],
        y: &[f64],
        leaves: [[Leaf; 4]; G],
    ) -> [[f64; 4]; G] {
        let m = leaves.iter().flatten().map(|&(_, len)| len).min().unwrap_or(0) & !3;
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        let mut acc = [_mm256_setzero_pd(); G];
        let mut i = 0;
        while i < m {
            for (a, group) in acc.iter_mut().zip(&leaves) {
                // Row l holds leaf l's products i..i+4; i + 4 <= m <= len.
                let prod = |l: usize| {
                    let at = group[l].0 + i;
                    _mm256_mul_pd(_mm256_loadu_pd(xp.add(at)), _mm256_loadu_pd(yp.add(at)))
                };
                let (p0, p1, p2, p3) = (prod(0), prod(1), prod(2), prod(3));
                // 4×4 transpose: column k = element i+k of leaves 0..4.
                let lo01 = _mm256_unpacklo_pd(p0, p1);
                let hi01 = _mm256_unpackhi_pd(p0, p1);
                let lo23 = _mm256_unpacklo_pd(p2, p3);
                let hi23 = _mm256_unpackhi_pd(p2, p3);
                *a = _mm256_add_pd(*a, _mm256_permute2f128_pd(lo01, lo23, 0x20));
                *a = _mm256_add_pd(*a, _mm256_permute2f128_pd(hi01, hi23, 0x20));
                *a = _mm256_add_pd(*a, _mm256_permute2f128_pd(lo01, lo23, 0x31));
                *a = _mm256_add_pd(*a, _mm256_permute2f128_pd(hi01, hi23, 0x31));
            }
            i += 4;
        }
        let mut out = [[0.0; 4]; G];
        for ((sums, a), group) in out.iter_mut().zip(acc).zip(&leaves) {
            _mm256_storeu_pd(sums.as_mut_ptr(), a);
            for (s, &(start, len)) in sums.iter_mut().zip(group) {
                for j in start + m..start + len {
                    *s += x[j] * y[j];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_strings_round_trip() {
        for m in [SimdMode::Auto, SimdMode::Avx2, SimdMode::Scalar] {
            assert_eq!(SimdMode::parse(m.as_str()).unwrap(), m);
            assert_eq!(format!("{m}"), m.as_str());
        }
        assert!(SimdMode::parse("sse9").is_err());
        assert_eq!(SimdMode::default(), SimdMode::Auto);
    }

    #[test]
    fn isa_lanes_and_names() {
        assert_eq!(Isa::Avx2.lanes(), 4);
        assert_eq!(Isa::Scalar.lanes(), 1);
        assert_eq!(Isa::Avx2.as_str(), "avx2");
        assert_eq!(format!("{}", Isa::Scalar), "scalar");
    }

    #[test]
    fn set_mode_respects_detection() {
        let _guard = test_mode_guard();
        assert_eq!(set_mode(SimdMode::Scalar).unwrap(), Isa::Scalar);
        assert_eq!(active(), Isa::Scalar);
        assert_eq!(set_mode(SimdMode::Auto).unwrap(), detected());
        match detected() {
            Isa::Avx2 => assert_eq!(set_mode(SimdMode::Avx2).unwrap(), Isa::Avx2),
            Isa::Scalar => assert!(set_mode(SimdMode::Avx2).is_err()),
        }
    }

    /// The canonical dot written out in scalar code: 8192-element
    /// blocks, each a pairwise tree split at `len / 2` down to leaves of
    /// at most 64 elements summed in order from `0.0`, and the block
    /// partials combined by the same tree.
    fn reference_dot(x: &[f64], y: &[f64]) -> f64 {
        fn tree(v: &[f64]) -> f64 {
            if v.len() <= 64 {
                let mut acc = 0.0;
                for &e in v {
                    acc += e;
                }
                acc
            } else {
                let mid = v.len() / 2;
                tree(&v[..mid]) + tree(&v[mid..])
            }
        }
        fn leaf_tree(x: &[f64], y: &[f64]) -> f64 {
            if x.len() <= 64 {
                let mut acc = 0.0;
                for (a, b) in x.iter().zip(y) {
                    acc += a * b;
                }
                acc
            } else {
                let mid = x.len() / 2;
                leaf_tree(&x[..mid], &y[..mid]) + leaf_tree(&x[mid..], &y[mid..])
            }
        }
        if x.len() <= 8192 {
            return leaf_tree(x, y);
        }
        let partials: Vec<f64> =
            x.chunks(8192).zip(y.chunks(8192)).map(|(a, b)| leaf_tree(a, b)).collect();
        tree(&partials)
    }

    #[test]
    fn avx2_dot_bitwise_matches_scalar_pairwise_reference() {
        let _guard = test_mode_guard();
        if set_mode(SimdMode::Avx2).is_err() {
            return; // no AVX2 on this host; nothing to compare.
        }
        // Magnitudes spread over 24 binades, so any change to the order
        // of the additions changes the rounded sum.
        let data = |n: usize, seed: f64| -> Vec<f64> {
            (0..n).map(|i| (i as f64 * seed).sin() * f64::powi(2.0, (i % 25) as i32 - 12)).collect()
        };
        let lens = (0..=2048).chain([7824, 8192, 10_000, 32_400, 32_768]);
        for n in lens {
            let (x, y) = (data(n, 0.731), data(n, 0.377));
            let (got, want) = (crate::vector::dot(&x, &y), reference_dot(&x, &y));
            assert_eq!(got.to_bits(), want.to_bits(), "n={n}: {got:e} != {want:e}");
        }
    }

    #[test]
    fn avx2_kernels_bitwise_match_scalar() {
        let _guard = test_mode_guard();
        if set_mode(SimdMode::Avx2).is_err() {
            return; // no AVX2 on this host; the proptests cover scalar.
        }
        let x: Vec<f64> = (0..301).map(|i| (i as f64 * 0.31).sin() * 1e3).collect();
        let y0: Vec<f64> = (0..301).map(|i| (i as f64 * 0.17).cos() - 0.4).collect();
        let a = 0.734_f64;

        let mut y_simd = y0.clone();
        assert!(axpy4(a, &x, &mut y_simd).is_some());
        set_mode(SimdMode::Scalar).unwrap();
        assert!(axpy4(a, &x, &mut y0.clone()).is_none());
        let mut y_scalar = y0.clone();
        for (yi, xi) in y_scalar.iter_mut().zip(x.iter()) {
            *yi += a * xi;
        }
        for (s, v) in y_scalar.iter().zip(y_simd.iter()) {
            assert_eq!(s.to_bits(), v.to_bits());
        }

        set_mode(SimdMode::Avx2).unwrap();
        let mut xs = x.clone();
        assert!(scal4(a, &mut xs).is_some());
        let mut xr = x.clone();
        for v in xr.iter_mut() {
            *v *= a;
        }
        for (s, v) in xr.iter().zip(xs.iter()) {
            assert_eq!(s.to_bits(), v.to_bits());
        }
    }
}
