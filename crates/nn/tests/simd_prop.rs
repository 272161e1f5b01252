//! SIMD kernels vs. scalar references: bitwise determinism.
//!
//! Every kernel in `av_nn::simd` promises the *fixed-order* reduction
//! contract — not approximate equality, the exact same f32 at every output
//! position as the scalar reference that spells the contract out. These
//! properties compare raw bit patterns (`f32::to_bits`), so a reassociated
//! accumulation, a dropped zero-skip, or an FMA/non-FMA mismatch in the
//! intrinsics path fails loudly even when the values agree to many ulps.
//!
//! On AVX2+FMA hardware the dispatched backend is the intrinsics path, so
//! this pins SIMD == scalar. The portable backend *is* the scalar
//! references; `AV_NN_SIMD=portable` forces it on SIMD hardware, and CI
//! runs the suite both ways, so that run checks the override itself and
//! the dispatch layer above the references.

use proptest::prelude::*;

fn assert_bits_eq(simd: &[f32], scalar: &[f32], kernel: &str) {
    assert_eq!(simd.len(), scalar.len());
    for (i, (s, r)) in simd.iter().zip(scalar).enumerate() {
        assert!(
            s.to_bits() == r.to_bits(),
            "{kernel}: bit mismatch at {i}: simd {s} ({:#010x}) vs scalar {r} ({:#010x}) \
             [backend {:?}]",
            s.to_bits(),
            r.to_bits(),
            av_nn::simd::backend(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `out += A × B` (axpy family): dispatched kernel == scalar reference,
    /// bit for bit, including accumulation into a non-zero `out`.
    #[test]
    fn matmul_rows_matches_scalar_bitwise(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u32..4,
    ) {
        let a = grid_vec(m * k, seed);
        let b = grid_vec(k * n, seed.wrapping_add(1));
        let init = grid_vec(m * n, seed.wrapping_add(2));
        let mut simd = init.clone();
        let mut scalar = init;
        av_nn::simd::matmul_rows(&a, m, k, &b, n, &mut simd);
        av_nn::simd::matmul_rows_ref(&a, m, k, &b, n, &mut scalar);
        assert_bits_eq(&simd, &scalar, "matmul_rows");
    }

    /// The axpy family on ReLU-sparse activations, the shape of a hidden
    /// layer's input: about half of each sparse row is `0.0` or `-0.0`, and
    /// some rows are dense, so row groups mix both kinds. `m` runs past 32
    /// to reach every row grouping and its remainder.
    #[test]
    fn matmul_rows_matches_scalar_bitwise_on_relu_sparse_rows(
        m in 1usize..48,
        k in 1usize..80,
        n in 1usize..72,
        seed in 0u32..4,
    ) {
        let a = relu_rows(m, k, seed);
        let b = grid_vec(k * n, seed.wrapping_add(1));
        let init = grid_vec(m * n, seed.wrapping_add(2));
        let mut simd = init.clone();
        let mut scalar = init;
        av_nn::simd::matmul_rows(&a, m, k, &b, n, &mut simd);
        av_nn::simd::matmul_rows_ref(&a, m, k, &b, n, &mut scalar);
        assert_bits_eq(&simd, &scalar, "matmul_rows (ReLU-sparse)");
    }

    /// `out = A × Bᵀ` (dot family): the 8-lane fixed accumulator order of
    /// `dot_lanes_ref` must survive the intrinsics path exactly.
    #[test]
    fn dot_bt_matches_scalar_bitwise(
        m in 1usize..16,
        k in 1usize..80,
        p in 1usize..16,
        seed in 0u32..4,
    ) {
        let a = grid_vec(m * k, seed);
        let b = grid_vec(p * k, seed.wrapping_add(9));
        let mut simd = vec![f32::NAN; m * p]; // fully overwritten by contract
        let mut scalar = vec![f32::NAN; m * p];
        av_nn::simd::dot_bt(&a, m, k, &b, p, &mut simd);
        av_nn::simd::dot_bt_ref(&a, m, k, &b, p, &mut scalar);
        assert_bits_eq(&simd, &scalar, "dot_bt");
    }

    /// `out += Aᵀ × B` (gradient scatter): ascending-row chains with
    /// zero-skip, bit for bit.
    #[test]
    fn scatter_at_matches_scalar_bitwise(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..48,
        seed in 0u32..4,
    ) {
        let a = grid_vec(m * k, seed);
        let b = grid_vec(m * n, seed.wrapping_add(3));
        let init = grid_vec(k * n, seed.wrapping_add(5));
        let mut simd = init.clone();
        let mut scalar = init;
        av_nn::simd::scatter_at(&a, m, k, &b, n, &mut simd);
        av_nn::simd::scatter_at_ref(&a, m, k, &b, n, &mut scalar);
        assert_bits_eq(&simd, &scalar, "scatter_at");
    }

    /// `vecmat_row` is defined as `matmul_rows` with m = 1; hold it to that.
    #[test]
    fn vecmat_row_is_matmul_rows_m1(k in 1usize..64, n in 1usize..64, seed in 0u32..4) {
        let v = grid_vec(k, seed);
        let b = grid_vec(k * n, seed.wrapping_add(1));
        let mut via_vecmat = vec![0.0f32; n];
        let mut via_matmul = vec![0.0f32; n];
        av_nn::simd::vecmat_row(&v, &b, n, &mut via_vecmat);
        av_nn::simd::matmul_rows(&v, 1, k, &b, n, &mut via_matmul);
        assert_bits_eq(&via_vecmat, &via_matmul, "vecmat_row");
    }
}

/// Deterministic fill from a small exact grid, zero included: zeros
/// exercise the axpy family's zero-skip, and the 0.37 scale keeps
/// mantissas non-trivial so reduction-order bugs actually change bits.
/// xorshift (rather than a proptest strategy) because the vector length
/// depends on generated shapes; the proptest seeds still vary the data.
fn grid_vec(len: usize, seed: u32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(747_796_405).wrapping_add(2_891_336_453) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            ((s % 17) as i32 - 8) as f32 * 0.37
        })
        .collect()
}

/// `m × k` ReLU-like activations. Each row is, by a coin flip, dense
/// (every entry nonzero) or sparse: about half its entries are zeros, a
/// third of those `-0.0`, which the zero-skip must treat exactly like `0.0`.
fn relu_rows(m: usize, k: usize, seed: u32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(2_654_435_761).wrapping_add(1_013_904_223) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 17;
        s ^= s << 5;
        s
    };
    let mut out = Vec::with_capacity(m * k);
    for _ in 0..m {
        let dense = next() % 2 == 0;
        for _ in 0..k {
            let r = next();
            let v = ((r % 16) as f32 + 1.0) * 0.37;
            out.push(match (dense, r / 16 % 6) {
                (true, _) | (false, 3..) => v,
                (false, 0) => -0.0,
                (false, _) => 0.0,
            });
        }
    }
    out
}

/// The tensor-level contract in one shot: `Tensor::matmul` (whatever
/// backend dispatch picked) equals `Tensor::matmul_reference` bitwise.
#[test]
fn tensor_matmul_matches_reference_bitwise() {
    use av_nn::Tensor;
    for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (8, 33, 40), (17, 64, 65)] {
        let a = Tensor::from_vec(m, k, grid_vec(m * k, 42));
        let b = Tensor::from_vec(k, n, grid_vec(k * n, 43));
        let fast = a.matmul(&b);
        let slow = a.matmul_reference(&b);
        assert_bits_eq(fast.as_slice(), slow.as_slice(), "Tensor::matmul");
    }
}

/// `AV_NN_SIMD=portable` really pins the scalar references, so the
/// portable run of this suite compares them with themselves rather than
/// silently re-testing the AVX2 kernels. Unset, this checks nothing.
#[test]
fn portable_override_reaches_the_dispatcher() {
    if std::env::var("AV_NN_SIMD").as_deref() == Ok("portable") {
        assert_eq!(av_nn::simd::backend(), av_nn::simd::Backend::Portable);
    }
}
