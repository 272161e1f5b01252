//! Runtime-dispatched SIMD lane kernels for the hot tensor paths.
//!
//! This is the only library module in the workspace allowed to contain
//! `unsafe` code: the `core::arch` intrinsics below take raw pointers. The
//! workspace denies the `unsafe_code` lint, every other library crate
//! forbids it, and CI checks that this file is the one library opt-out.
//!
//! # The fixed-order reduction contract
//!
//! Every kernel here commits to a *semantic* definition of each output
//! element that is independent of vector width, strip size, or backend,
//! so the AVX2 kernels are bitwise identical to the scalar reference
//! functions ([`matmul_rows_ref`], [`dot_bt_ref`], [`scatter_at_ref`]):
//!
//! - **axpy family** ([`matmul_rows`], [`scatter_at`]): each output
//!   element is a chain of fused multiply-adds over the shared dimension
//!   in ascending order, `out = fma(a, b, out)`, with the term *skipped*
//!   when the broadcast scalar `a` is exactly `0.0` (embedding one-hots
//!   and ReLU-sparse activations make this skip profitable, and skipping
//!   is not a no-op under FMA semantics — `fma(0, ±inf, x)` is NaN — so
//!   all paths must skip identically). Vectorizing over the *output*
//!   index never reorders a per-element chain, which is what makes the
//!   register-tiled AVX2 strips bitwise-equal to the scalar loop; nor do
//!   one-lane-per-row vectors, or issuing only a row's nonzero terms in
//!   ascending order.
//! - **dot family** ([`dot_bt`]): each output element is reduced through
//!   8 fixed lane accumulators — lane `l` sums the terms with index
//!   `t ≡ l (mod 8)` in ascending order via fma — and the lanes are then
//!   folded sequentially `((l0+l1)+l2)…+l7`. An 8-wide vector
//!   accumulator implements exactly this, so the SIMD dot is bitwise
//!   identical to [`dot_lanes_ref`].
//!
//! There are two backends, and the portable one *is* the scalar
//! references: off x86_64, on CPUs without AVX2+FMA, or under
//! `AV_NN_SIMD=portable`, each kernel runs its `*_ref` function. The
//! references use `f32::mul_add`, which compiles to the hardware FMA
//! wherever one exists, so a given process produces the same bytes
//! whichever backend the dispatcher picks. The property tests pin the AVX2
//! kernels to the references on AVX2 hosts.

#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Which kernel implementation the process dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `core::arch::x86_64` AVX2 + FMA intrinsics (runtime-detected).
    Avx2Fma,
    /// The scalar references ([`matmul_rows_ref`], [`dot_bt_ref`],
    /// [`scatter_at_ref`]).
    Portable,
}

/// The backend every kernel in this module dispatches to, decided once
/// per process: AVX2+FMA when the CPU has it, unless `AV_NN_SIMD=portable`
/// pins the scalar references.
///
/// # Panics
/// Panics, naming the key and the value, if `AV_NN_SIMD` is set to
/// anything but `portable`.
pub fn backend() -> Backend {
    static CHOICE: OnceLock<Backend> = OnceLock::new();
    *CHOICE.get_or_init(|| {
        let raw = std::env::var_os("AV_NN_SIMD").map(|v| v.to_string_lossy().into_owned());
        if let Some(pinned) = backend_override(raw.as_deref()).unwrap_or_else(|e| panic!("{e}")) {
            return pinned;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Backend::Avx2Fma;
            }
        }
        Backend::Portable
    })
}

/// The backend an `AV_NN_SIMD` value pins: unset (`None`) leaves the
/// choice to CPU detection, `portable` pins [`Backend::Portable`], and any
/// other value is an error naming the key and the value, so a misspelling
/// never runs the AVX2 kernels unnoticed.
pub(crate) fn backend_override(raw: Option<&str>) -> Result<Option<Backend>, String> {
    match raw {
        None => Ok(None),
        Some("portable") => Ok(Some(Backend::Portable)),
        Some(other) => Err(format!(
            "AV_NN_SIMD={other:?} is not a backend (unset it to detect the CPU, or set \"portable\")"
        )),
    }
}

/// `out += A × B` over row-major slices (`A` is `m×k`, `B` is `k×n`,
/// `out` is `m×n` and must be pre-zeroed by the caller). Ascending-`k`
/// fma chain per output element with zero-skip — see the module docs.
pub fn matmul_rows(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => unsafe { avx2::matmul_rows(a, m, k, b, n, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => unreachable!("Avx2Fma backend selected off x86_64"),
        Backend::Portable => matmul_rows_ref(a, m, k, b, n, out),
    }
}

/// One row of the axpy family: `out_row += v × B` for a `1×k` vector over
/// a `k×n` matrix (`out_row` pre-zeroed). Bitwise identical to
/// [`matmul_rows`] with `m = 1`.
pub fn vecmat_row(v: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    matmul_rows(v, 1, v.len(), b, n, out_row);
}

/// `out = A × Bᵀ` over row-major slices (`A` is `m×k`, `B` is `p×k`,
/// `out` is `m×p`; fully overwritten). Each element is a lane-accumulator
/// dot of two rows — see [`dot_lanes_ref`] for the exact reduction order.
pub fn dot_bt(a: &[f32], m: usize, k: usize, b: &[f32], p: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), p * k);
    debug_assert_eq!(out.len(), m * p);
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => unsafe { avx2::dot_bt(a, m, k, b, p, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => unreachable!("Avx2Fma backend selected off x86_64"),
        Backend::Portable => dot_bt_ref(a, m, k, b, p, out),
    }
}

/// `out += Aᵀ × B` over row-major slices (`A` is `m×k`, `B` is `m×n`,
/// `out` is `k×n` and must be pre-zeroed). Ascending-row fma chain per
/// output element with zero-skip.
pub fn scatter_at(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(out.len(), k * n);
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => unsafe { avx2::scatter_at(a, m, k, b, n, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => unreachable!("Avx2Fma backend selected off x86_64"),
        Backend::Portable => scatter_at_ref(a, m, k, b, n, out),
    }
}

// ---------------------------------------------------------------------------
// Scalar references — the semantic ground truth the property tests pin the
// SIMD kernels against, and the portable backend itself. Deliberately the
// simplest possible expression of the fixed-order contract; no unsafe, no
// unrolling.
// ---------------------------------------------------------------------------

/// Scalar reference for the axpy family: `out += A × B` with per-element
/// ascending-`k` `f32::mul_add` chains and zero-skip.
pub fn matmul_rows_ref(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
}

/// Scalar reference for the dot family's per-element reduction: 8 fixed
/// lane accumulators by `t mod 8` (each advanced with `f32::mul_add` in
/// ascending `t`), folded sequentially lane 0 → 7.
pub fn dot_lanes_ref(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut lane = [0.0f32; 8];
    for (t, (&a, &b)) in x.iter().zip(y).enumerate() {
        lane[t % 8] = a.mul_add(b, lane[t % 8]);
    }
    let mut acc = lane[0];
    for &l in &lane[1..] {
        acc += l;
    }
    acc
}

/// Scalar reference for [`dot_bt`].
pub fn dot_bt_ref(a: &[f32], m: usize, k: usize, b: &[f32], p: usize, out: &mut [f32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..p {
            let brow = &b[j * k..(j + 1) * k];
            out[i * p + j] = dot_lanes_ref(arow, brow);
        }
    }
}

/// Scalar reference for [`scatter_at`]: `out += Aᵀ × B` with per-element
/// ascending-row `f32::mul_add` chains and zero-skip.
pub fn scatter_at_ref(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let brow = &b[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA backend. Register-tiled: each row kernel holds its output tile
// in ymm accumulators across the whole k panel, so a k step is broadcasts,
// shared B loads and fmadds with no output traffic.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::{
        __m256, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_fmadd_ps, _mm256_i32gather_ps,
        _mm256_loadu_ps, _mm256_movemask_ps, _mm256_set1_ps, _mm256_setr_epi32, _mm256_setzero_ps,
        _mm256_storeu_ps, _CMP_EQ_OQ,
    };

    /// Shared-dimension panel height: a 64-column strip of a `KC`-row B
    /// panel is 64 KiB, which stays L2-resident while every row group of A
    /// sweeps it. Panelling never reorders a per-element fma chain (each
    /// panel resumes the chain from the stored partial, and an f32
    /// store/reload round-trip is exact), so the contract holds for any
    /// `KC`.
    const KC: usize = 256;

    /// Row count from which a B tile is packed into a contiguous scratch
    /// buffer before the row sweep. Packing defeats the L1 set-aliasing
    /// that power-of-two row strides cause (a 1 KiB stride maps every tile
    /// row to the same handful of cache sets), and its cost — one copy of
    /// the tile — is amortized over `m` rows. Below the threshold the copy
    /// would rival the math, so tiles read B in place. Packing only moves
    /// bytes; it cannot change any fma chain.
    const PACK_MIN_M: usize = 8;

    /// Lane mask of `v == 0.0` (`-0.0` included, NaN excluded — exactly the
    /// scalar `av == 0.0` test of the reference).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn is_zero(v: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_EQ_OQ>(v, _mm256_setzero_ps())
    }

    /// The zero-skip as a select: `fma(a, b, c)` in the lanes where `zero`
    /// is clear, `c` unchanged where it is set (`zero` is the `a == 0.0`
    /// mask). Bitwise the same as not issuing the term — `fma(0, ±inf, c)`
    /// is computed and then discarded — without a data-dependent branch.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn fma_unless_zero(a: __m256, b: __m256, c: __m256, zero: __m256) -> __m256 {
        _mm256_blendv_ps(_mm256_fmadd_ps(a, b, c), c, zero)
    }

    /// Bit `t` set iff `ar[t]` is a term the contract issues (`!= 0.0`; NaN
    /// counts), for `ar.len() <= 64`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn term_bits(ar: &[f32]) -> u64 {
        debug_assert!(ar.len() <= 64);
        let chunks = ar.len() / 8 * 8;
        let mut bits = 0u64;
        let mut t = 0;
        while t < chunks {
            let zero = _mm256_movemask_ps(is_zero(_mm256_loadu_ps(ar.as_ptr().add(t))));
            bits |= u64::from(!zero as u8) << t;
            t += 8;
        }
        for (u, &v) in ar[chunks..].iter().enumerate() {
            bits |= u64::from(v != 0.0) << (chunks + u);
        }
        bits
    }

    /// Clear the lowest set bit of `bits` and return its index.
    #[inline]
    fn pop_lowest(bits: &mut u64) -> usize {
        let t = bits.trailing_zeros() as usize;
        *bits &= *bits - 1;
        t
    }

    /// Whether every term of `ar` is issued (no `a` is zero).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn all_terms(ar: &[f32]) -> bool {
        ar.chunks(64)
            .all(|part| term_bits(part) == u64::MAX >> (64 - part.len()))
    }

    /// A column strip of one k panel, swept by all `m` rows of A: its B
    /// tile starts at `bt` with k rows `bstride` floats apart, its output
    /// at `out` with rows `n` floats apart, and A's panel at `a` with rows
    /// `lda` floats apart.
    struct Strip {
        a: *const f32,
        lda: usize,
        m: usize,
        kc: usize,
        bt: *const f32,
        bstride: usize,
        out: *mut f32,
        n: usize,
    }

    /// # Safety
    /// Caller must have verified `avx2` and `fma` CPU support, and slice
    /// lengths must satisfy the shapes documented on [`super::matmul_rows`].
    ///
    /// Loop nest: k-panel → column strip of 64, 32, 16 or 8 columns (a
    /// packed B tile) → row group → k; the last `n mod 8` columns run with
    /// one lane per row (the Q-network's 16→1 output layer is this case).
    /// See [`strip`] for the row groups.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_rows(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        let mut pack: Vec<f32> = if m >= PACK_MIN_M && n >= 8 {
            vec![0.0; KC.min(k) * n.min(64)]
        } else {
            Vec::new()
        };
        let mut k0 = 0;
        while k0 < k {
            let kc = (k - k0).min(KC);
            let mut j = 0;
            while j + 8 <= n {
                let w = [64, 32, 16, 8]
                    .into_iter()
                    .find(|&w| j + w <= n)
                    .unwrap_or(8);
                // The B tile for columns `j..j + w` of this panel, packed
                // when `pack` is allocated.
                let (bt, bstride) = if pack.is_empty() {
                    (b.as_ptr().add(k0 * n + j), n)
                } else {
                    for kk in 0..kc {
                        let src = (k0 + kk) * n + j;
                        pack[kk * w..kk * w + w].copy_from_slice(&b[src..src + w]);
                    }
                    (pack.as_ptr(), w)
                };
                let s = Strip {
                    a: a.as_ptr().add(k0),
                    lda: k,
                    m,
                    kc,
                    bt,
                    bstride,
                    out: out.as_mut_ptr().add(j),
                    n,
                };
                match w {
                    64 => strip::<1, 8>(&s),
                    32 => strip::<2, 4>(&s),
                    16 => strip::<4, 2>(&s),
                    _ => strip::<8, 1>(&s),
                }
                j += w;
            }
            // Tail columns (n mod 8): one lane per row, 8 or 16 rows at a
            // time, then plain mul_add chains for the last m mod 8 rows.
            while j < n {
                let bcol = b.as_ptr().add(k0 * n + j);
                let mut i = 0;
                while i + 16 <= m {
                    col_rows::<2>(
                        a.as_ptr().add(i * k + k0),
                        k,
                        kc,
                        bcol,
                        n,
                        out.as_mut_ptr().add(i * n + j),
                        n,
                    );
                    i += 16;
                }
                if i + 8 <= m {
                    col_rows::<1>(
                        a.as_ptr().add(i * k + k0),
                        k,
                        kc,
                        bcol,
                        n,
                        out.as_mut_ptr().add(i * n + j),
                        n,
                    );
                    i += 8;
                }
                while i < m {
                    let mut s = out[i * n + j];
                    for (kk, &av) in a[i * k + k0..i * k + k0 + kc].iter().enumerate() {
                        if av == 0.0 {
                            continue;
                        }
                        s = av.mul_add(b[(k0 + kk) * n + j], s);
                    }
                    out[i * n + j] = s;
                    i += 1;
                }
                j += 1;
            }
            k0 += kc;
        }
    }

    /// All rows of one `8 * V`-column strip, `R = 8 / V` rows per group so
    /// about 8 fma chains are in flight whatever the strip width. Four
    /// rows with no zero term run [`tile16_quad`]s, which issue every term
    /// with no compare at all. Any other group runs [`rows_terms`], which
    /// issues only each row's nonzero terms, so a ReLU-sparse or one-hot
    /// row costs its nonzeros rather than a branch per term.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn strip<const R: usize, const V: usize>(s: &Strip) {
        let arow = |i: usize| core::slice::from_raw_parts(s.a.add(i * s.lda), s.kc);
        let mut i = 0;
        while i < s.m {
            let p = s.out.add(i * s.n);
            if V >= 2 && i + 4 <= s.m && (i..i + 4).all(|r| all_terms(arow(r))) {
                let rows = [arow(i), arow(i + 1), arow(i + 2), arow(i + 3)];
                for h in 0..V / 2 {
                    tile16_quad(rows, s.bt.add(16 * h), s.bstride, p.add(16 * h), s.n);
                }
                i += 4;
            } else if i + R <= s.m {
                rows_terms::<R, V>(s.a.add(i * s.lda), s, p);
                i += R;
            } else {
                rows_terms::<1, V>(s.a.add(i * s.lda), s, p);
                i += 1;
            }
        }
    }

    /// One 4-row × 16-column register tile over rows with no zero term: 8
    /// accumulators, so a k step issues 8 independent fma chains over 2
    /// shared B loads. `bt` points at the tile's B data advancing by
    /// `bstride` per k; output row `r` of the tile starts `r * n` floats
    /// after `p0`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile16_quad(ar: [&[f32]; 4], bt: *const f32, bstride: usize, p0: *mut f32, n: usize) {
        let [ar0, ar1, ar2, ar3] = ar;
        let (p1, p2, p3) = (p0.add(n), p0.add(2 * n), p0.add(3 * n));
        let mut c00 = _mm256_loadu_ps(p0);
        let mut c01 = _mm256_loadu_ps(p0.add(8));
        let mut c10 = _mm256_loadu_ps(p1);
        let mut c11 = _mm256_loadu_ps(p1.add(8));
        let mut c20 = _mm256_loadu_ps(p2);
        let mut c21 = _mm256_loadu_ps(p2.add(8));
        let mut c30 = _mm256_loadu_ps(p3);
        let mut c31 = _mm256_loadu_ps(p3.add(8));
        for kk in 0..ar0.len() {
            let r = bt.add(kk * bstride);
            let b0 = _mm256_loadu_ps(r);
            let b1 = _mm256_loadu_ps(r.add(8));
            let v = _mm256_set1_ps(*ar0.get_unchecked(kk));
            c00 = _mm256_fmadd_ps(v, b0, c00);
            c01 = _mm256_fmadd_ps(v, b1, c01);
            let v = _mm256_set1_ps(*ar1.get_unchecked(kk));
            c10 = _mm256_fmadd_ps(v, b0, c10);
            c11 = _mm256_fmadd_ps(v, b1, c11);
            let v = _mm256_set1_ps(*ar2.get_unchecked(kk));
            c20 = _mm256_fmadd_ps(v, b0, c20);
            c21 = _mm256_fmadd_ps(v, b1, c21);
            let v = _mm256_set1_ps(*ar3.get_unchecked(kk));
            c30 = _mm256_fmadd_ps(v, b0, c30);
            c31 = _mm256_fmadd_ps(v, b1, c31);
        }
        _mm256_storeu_ps(p0, c00);
        _mm256_storeu_ps(p0.add(8), c01);
        _mm256_storeu_ps(p1, c10);
        _mm256_storeu_ps(p1.add(8), c11);
        _mm256_storeu_ps(p2, c20);
        _mm256_storeu_ps(p2.add(8), c21);
        _mm256_storeu_ps(p3, c30);
        _mm256_storeu_ps(p3.add(8), c31);
    }

    /// `R` rows × `8 * V` columns of strip `s`: `R * V` accumulators held
    /// across the panel, each row's advanced only at its nonzero terms,
    /// found by walking [`term_bits`] lowest bit first (ascending k, as
    /// the contract requires). While every row has a term left the rows
    /// step together, so `R * V` fma chains are in flight; then each row
    /// drains its remaining terms alone. The group's first row starts at
    /// `a0` in A and at `p0` in the output.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn rows_terms<const R: usize, const V: usize>(a0: *const f32, s: &Strip, p0: *mut f32) {
        let mut c = [[_mm256_setzero_ps(); V]; R];
        for (r, cr) in c.iter_mut().enumerate() {
            for (v, cv) in cr.iter_mut().enumerate() {
                *cv = _mm256_loadu_ps(p0.add(r * s.n + 8 * v));
            }
        }
        // Issue the term at `kk` of the row starting at `ar` into `c`.
        let step = |c: &mut [__m256; V], ar: *const f32, kk: usize| {
            let av = _mm256_set1_ps(*ar.add(kk));
            let bp = s.bt.add(kk * s.bstride);
            for (v, cv) in c.iter_mut().enumerate() {
                *cv = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(8 * v)), *cv);
            }
        };
        let mut k0 = 0;
        while k0 < s.kc {
            let len = (s.kc - k0).min(64);
            let mut bits = [0u64; R];
            for (r, br) in bits.iter_mut().enumerate() {
                *br = term_bits(core::slice::from_raw_parts(a0.add(r * s.lda + k0), len));
            }
            while bits.iter().all(|&br| br != 0) {
                for r in 0..R {
                    step(&mut c[r], a0.add(r * s.lda), k0 + pop_lowest(&mut bits[r]));
                }
            }
            for r in 0..R {
                while bits[r] != 0 {
                    step(&mut c[r], a0.add(r * s.lda), k0 + pop_lowest(&mut bits[r]));
                }
            }
            k0 += len;
        }
        for (r, cr) in c.iter().enumerate() {
            for (v, cv) in cr.iter().enumerate() {
                _mm256_storeu_ps(p0.add(r * s.n + 8 * v), *cv);
            }
        }
    }

    /// One output column over `8 * B` rows, one lane per row: lane `r` of
    /// block `q` runs row `8q + r`'s ascending-k chain
    /// `fma(a[row][kk], b[kk], acc)`, and the `B` blocks are independent
    /// chains that hide each other's fma latency. `a0` points at row 0's
    /// first panel element (rows `lda` floats apart), `bcol` at the
    /// column's first panel element (k steps `bstride` floats apart), `p0`
    /// at row 0's output cell (rows `n` floats apart).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn col_rows<const B: usize>(
        a0: *const f32,
        lda: usize,
        kc: usize,
        bcol: *const f32,
        bstride: usize,
        p0: *mut f32,
        n: usize,
    ) {
        assert!(
            8 * B * lda.max(n) <= i32::MAX as usize,
            "offsets fit a gather index"
        );
        let strided = |step: usize| {
            let s = step as i32;
            _mm256_setr_epi32(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s)
        };
        let (arows, orows) = (strided(lda), strided(n));
        let mut acc: [__m256; B] =
            core::array::from_fn(|q| _mm256_i32gather_ps::<4>(p0.add(8 * q * n), orows));
        for kk in 0..kc {
            let bv = _mm256_set1_ps(*bcol.add(kk * bstride));
            for (q, cq) in acc.iter_mut().enumerate() {
                let av = _mm256_i32gather_ps::<4>(a0.add(8 * q * lda + kk), arows);
                let z = is_zero(av);
                if _mm256_movemask_ps(z) != 0xff {
                    *cq = fma_unless_zero(av, bv, *cq, z);
                }
            }
        }
        for (q, cq) in acc.iter().enumerate() {
            let mut cell = [0.0f32; 8];
            _mm256_storeu_ps(cell.as_mut_ptr(), *cq);
            for (r, &c) in cell.iter().enumerate() {
                *p0.add((8 * q + r) * n) = c;
            }
        }
    }

    /// # Safety
    /// Caller must have verified `avx2` and `fma` CPU support, and slice
    /// lengths must satisfy the shapes documented on [`super::dot_bt`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_bt(a: &[f32], m: usize, k: usize, b: &[f32], p: usize, out: &mut [f32]) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * p..(i + 1) * p];
            // Four output columns at a time: four independent accumulator
            // chains hide the fma latency; each chain is still the 8-lane
            // reduction of the contract.
            let mut j = 0;
            while j + 4 <= p {
                let (d0, d1, d2, d3) = dot4(
                    arow,
                    &b[j * k..(j + 1) * k],
                    &b[(j + 1) * k..(j + 2) * k],
                    &b[(j + 2) * k..(j + 3) * k],
                    &b[(j + 3) * k..(j + 4) * k],
                );
                orow[j] = d0;
                orow[j + 1] = d1;
                orow[j + 2] = d2;
                orow[j + 3] = d3;
                j += 4;
            }
            while j < p {
                orow[j] = dot1(arow, &b[j * k..(j + 1) * k]);
                j += 1;
            }
        }
    }

    /// Sequential lane fold `((l0+l1)+l2)…+l7` of a ymm accumulator plus a
    /// scalar tail folded into the same lanes by `t mod 8`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn reduce_lanes(acc: __m256, x: &[f32], y: &[f32], from: usize) -> f32 {
        let mut lane = [0.0f32; 8];
        _mm256_storeu_ps(lane.as_mut_ptr(), acc);
        for t in from..x.len() {
            lane[t % 8] = x[t].mul_add(y[t], lane[t % 8]);
        }
        let mut s = lane[0];
        for &l in &lane[1..] {
            s += l;
        }
        s
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot1(x: &[f32], y: &[f32]) -> f32 {
        let chunks = x.len() / 8 * 8;
        let mut acc = _mm256_setzero_ps();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut t = 0;
        while t < chunks {
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(t)), _mm256_loadu_ps(yp.add(t)), acc);
            t += 8;
        }
        reduce_lanes(acc, x, y, chunks)
    }

    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::many_single_char_names)]
    unsafe fn dot4(
        x: &[f32],
        y0: &[f32],
        y1: &[f32],
        y2: &[f32],
        y3: &[f32],
    ) -> (f32, f32, f32, f32) {
        let chunks = x.len() / 8 * 8;
        let mut a0 = _mm256_setzero_ps();
        let mut a1 = _mm256_setzero_ps();
        let mut a2 = _mm256_setzero_ps();
        let mut a3 = _mm256_setzero_ps();
        let xp = x.as_ptr();
        let mut t = 0;
        while t < chunks {
            let xv = _mm256_loadu_ps(xp.add(t));
            a0 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(y0.as_ptr().add(t)), a0);
            a1 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(y1.as_ptr().add(t)), a1);
            a2 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(y2.as_ptr().add(t)), a2);
            a3 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(y3.as_ptr().add(t)), a3);
            t += 8;
        }
        (
            reduce_lanes(a0, x, y0, chunks),
            reduce_lanes(a1, x, y1, chunks),
            reduce_lanes(a2, x, y2, chunks),
            reduce_lanes(a3, x, y3, chunks),
        )
    }

    /// # Safety
    /// Caller must have verified `avx2` and `fma` CPU support, and slice
    /// lengths must satisfy the shapes documented on [`super::scatter_at`].
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scatter_at(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
        let strips = n / 8 * 8;
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let brow = &b[i * n..(i + 1) * n];
            for (kk, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out[kk * n..(kk + 1) * n];
                let a8 = _mm256_set1_ps(av);
                let op = orow.as_mut_ptr();
                let bp = brow.as_ptr();
                let mut j = 0;
                while j < strips {
                    let o = _mm256_loadu_ps(op.add(j));
                    _mm256_storeu_ps(
                        op.add(j),
                        _mm256_fmadd_ps(a8, _mm256_loadu_ps(bp.add(j)), o),
                    );
                    j += 8;
                }
                while j < n {
                    orow[j] = av.mul_add(brow[j], orow[j]);
                    j += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, seed: f32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                if i % 7 == 3 {
                    0.0
                } else {
                    ((i as f32) * 0.37 + seed).sin()
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn an_unset_override_leaves_the_choice_to_detection() {
        assert_eq!(backend_override(None), Ok(None));
    }

    #[test]
    fn portable_pins_the_scalar_references() {
        assert_eq!(
            backend_override(Some("portable")),
            Ok(Some(Backend::Portable))
        );
    }

    #[test]
    fn any_other_override_is_an_error_naming_key_and_value() {
        for raw in ["Portable", "portable ", "avx2", ""] {
            let err = backend_override(Some(raw)).expect_err(raw);
            assert!(err.contains("AV_NN_SIMD"), "{err}");
            assert!(err.contains(&format!("{raw:?}")), "{err}");
        }
    }

    #[test]
    fn matmul_rows_matches_reference_on_awkward_shapes() {
        // Beyond the small shapes: m ≥ 9 and n ∈ {1, 8, 16, 17, 24, 48, 64,
        // 71} reach the 4-row dense tiles, the 8/4/2-row sparse groups and
        // their single-row remainders, every strip width, and the 8- and
        // 16-row one-lane-per-row tail; k = 70 and 300 cross a 64-term mask
        // chunk and a k panel.
        let shapes = [
            (1, 1, 1),
            (2, 3, 5),
            (3, 17, 9),
            (4, 8, 64),
            (5, 33, 71),
            (1, 19, 130),
            (9, 16, 16),
            (13, 64, 16),
            (17, 16, 1),
            (8, 16, 64),
            (11, 24, 24),
            (33, 16, 48),
            (19, 70, 17),
            (10, 8, 8),
            (6, 300, 40),
        ];
        for &(m, k, n) in &shapes {
            // Rows of `pattern` hold zeros (sparse path); rows of `dense`
            // hold none (4-row tiles).
            let dense: Vec<f32> = pattern(m * k, 0.1).iter().map(|x| x + 2.0).collect();
            for a in [pattern(m * k, 0.1), dense] {
                let b = pattern(k * n, 0.9);
                let mut fast = pattern(m * n, 0.5);
                let mut slow = fast.clone();
                matmul_rows(&a, m, k, &b, n, &mut fast);
                matmul_rows_ref(&a, m, k, &b, n, &mut slow);
                assert_eq!(
                    bits(&fast),
                    bits(&slow),
                    "matmul_rows diverged at {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn dot_bt_matches_reference_on_awkward_shapes() {
        for &(m, k, p) in &[
            (1, 1, 1),
            (2, 5, 3),
            (3, 16, 4),
            (2, 23, 7),
            (4, 40, 6),
            (1, 9, 13),
        ] {
            let a = pattern(m * k, 0.2);
            let b = pattern(p * k, 0.8);
            let mut fast = vec![0.0; m * p];
            let mut slow = vec![0.0; m * p];
            dot_bt(&a, m, k, &b, p, &mut fast);
            dot_bt_ref(&a, m, k, &b, p, &mut slow);
            assert_eq!(fast, slow, "dot_bt diverged at {m}x{k}x{p}");
        }
    }

    #[test]
    fn scatter_at_matches_reference_on_awkward_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 2, 5), (5, 16, 9), (7, 4, 40), (2, 6, 13)] {
            let a = pattern(m * k, 0.3);
            let b = pattern(m * n, 0.7);
            let mut fast = vec![0.0; k * n];
            let mut slow = vec![0.0; k * n];
            scatter_at(&a, m, k, &b, n, &mut fast);
            scatter_at_ref(&a, m, k, &b, n, &mut slow);
            assert_eq!(fast, slow, "scatter_at diverged at {m}x{k}x{n}");
        }
    }

    #[test]
    fn lane_dot_handles_special_values_via_zero_skip() {
        // fma(0, inf, x) would poison the axpy chain; the contract skips it.
        let a = vec![0.0, 1.0];
        let b = vec![f32::INFINITY, 2.0, f32::NEG_INFINITY, 3.0];
        let mut fast = vec![0.0; 2];
        let mut slow = vec![0.0; 2];
        matmul_rows(&a, 1, 2, &b, 2, &mut fast);
        matmul_rows_ref(&a, 1, 2, &b, 2, &mut slow);
        assert_eq!(fast, slow);
        assert_eq!(fast, vec![f32::NEG_INFINITY, 3.0]);

        // Eight rows × 12 terms; B rows 0, 2 and 9 hold ±inf. A's column 2
        // is ±0.0 in every row; columns 0 and 9 are ±0.0 in rows 0..6 and
        // nonzero in row 6 (column 0) or row 7 (column 9). Rows 0..6 must
        // skip every inf term and stay finite; rows 6 and 7 must take theirs.
        // This reaches the 8-row groups (n = 16) and the one-lane-per-row
        // tail (n = 1), both through a whole 8-term chunk and a short tail.
        let (m, k) = (8, 12);
        let a: Vec<f32> = (0..m * k)
            .map(|i| {
                let (r, c) = (i / k, i % k);
                let signed_zero = if r % 2 == 0 { 0.0 } else { -0.0 };
                match c {
                    0 if r == 6 => 1.0,
                    9 if r == 7 => 1.0,
                    0 | 2 | 9 => signed_zero,
                    _ => 0.5 + c as f32 * 0.25 + r as f32 * 0.125,
                }
            })
            .collect();
        for n in [16, 1] {
            let b: Vec<f32> = (0..k * n)
                .map(|i| match i / n {
                    0 | 9 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    r => 1.0 + (r * n + i % n) as f32 * 0.25,
                })
                .collect();
            let mut fast = vec![0.0; m * n];
            let mut slow = vec![0.0; m * n];
            matmul_rows(&a, m, k, &b, n, &mut fast);
            matmul_rows_ref(&a, m, k, &b, n, &mut slow);
            let (finite, taken) = fast.split_at(6 * n);
            assert!(
                finite.iter().all(|v| v.is_finite()),
                "n = {n}: a zero term was issued"
            );
            assert!(
                taken.iter().all(|&v| v == f32::INFINITY),
                "n = {n}: an inf term was skipped"
            );
            assert_eq!(bits(&fast), bits(&slow), "n = {n}");
        }
    }
}
