//! Dense row-major `f32` matrices and the parameter store.
//!
//! The matmul-family kernels dispatch into [`crate::simd`] and share its
//! fixed-order reduction contract: per output element, a fused
//! multiply-add chain over the shared dimension in ascending order (with
//! exact-zero terms skipped), or — for the dot-product kernel
//! [`Tensor::matmul_bt_into`] — 8 fixed lane accumulators folded in a
//! deterministic order. Results are bitwise identical across SIMD
//! backends and blocking factors, which is what keeps Wide-Deep training
//! reproducible bit for bit and the executor's determinism properties
//! intact.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
///
/// Row vectors (`1×n`) represent embeddings and hidden states; matrices
/// represent weights, stacked sequences and batches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, v: f32) -> Tensor {
        Tensor {
            data: vec![v; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { data, rows, cols }
    }

    /// Build from row slices.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths or no rows are given.
    pub fn from_rows(rows: &[&[f32]]) -> Tensor {
        assert!(!rows.is_empty(), "at least one row required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor {
            data,
            rows: rows.len(),
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self × other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// SIMD matrix product `out = self × other`, writing into a caller
    /// -owned (arena-recycled) output tensor.
    ///
    /// Dispatches to [`crate::simd::matmul_rows`]: register-tiled AVX2+FMA
    /// strips where the CPU has them, the scalar reference loop otherwise.
    /// Per output cell the value is defined as an ascending-`k` fused
    /// multiply-add chain with exact-zero terms skipped, so the result is
    /// bitwise identical to the scalar reference
    /// ([`Tensor::matmul_reference`]) on every backend and independent of
    /// strip width. (It is *not* bitwise identical to the non-fused seed
    /// kernel [`Tensor::matmul_naive`], which rounds after every multiply;
    /// `matmul_naive` survives only as the bench baseline.)
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} × {:?}",
            self.shape(),
            other.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        out.zero();
        crate::simd::matmul_rows(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// Scalar reference for [`Tensor::matmul_into`]: the simplest loop that
    /// satisfies the fixed-order fma contract. Property tests and the bench
    /// bitwise gates pin the SIMD kernels against this.
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} × {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        crate::simd::matmul_rows_ref(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// `out = v × self` for a row vector `v` (`1×k` over a `k×n` matrix),
    /// writing into a `1×n` output. Exactly [`Tensor::matmul_into`]
    /// restricted to one row — ascending-`k` fma chain, zero-skip — so the
    /// result is bitwise identical to wrapping `v` in a `1×k` tensor and
    /// calling `matmul_into`.
    pub fn left_vecmat_into(&self, v: &[f32], out: &mut Tensor) {
        assert_eq!(v.len(), self.rows, "left_vecmat shape mismatch");
        assert_eq!(out.shape(), (1, self.cols), "left_vecmat output mismatch");
        out.zero();
        crate::simd::vecmat_row(v, &self.data, self.cols, &mut out.data);
    }

    /// `out = self × otherᵀ` without materializing the transpose: each
    /// output cell is a dot product of two rows, which streams both inputs
    /// contiguously. Each dot is reduced through 8 fixed lane accumulators
    /// (lane `l` sums terms `k ≡ l mod 8` ascending, lanes folded
    /// sequentially — [`crate::simd::dot_lanes_ref`]), so the result is
    /// bitwise identical across SIMD backends and output tilings.
    pub fn matmul_bt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_bt shape mismatch: {:?} × {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.rows),
            "matmul_bt output shape mismatch"
        );
        crate::simd::dot_bt(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
        );
    }

    /// `out = selfᵀ × other` without materializing the transpose: row `i`
    /// of `self` scatters into every output row it touches, so both inputs
    /// stream contiguously. Per output element the accumulation is an
    /// ascending-row fma chain with zero-skip (the axpy contract), bitwise
    /// identical across SIMD backends.
    pub fn at_matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows,
            other.rows,
            "at_matmul shape mismatch: {:?}ᵀ × {:?}",
            self.shape(),
            other.shape()
        );
        assert_eq!(
            out.shape(),
            (self.cols, other.cols),
            "at_matmul output shape mismatch"
        );
        out.zero();
        crate::simd::scatter_at(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// Fused bias-add: `self[r, c] += bias[0, c]` for every row, one pass
    /// over the output instead of a separate broadcast node. Applied after
    /// [`Tensor::matmul_into`], the sum order per cell (`Σ_k a·b` first,
    /// `+ bias` last) matches the unfused matmul→add_row pipeline exactly.
    pub fn add_row_assign(&mut self, bias: &Tensor) {
        assert_eq!(bias.rows(), 1, "add_row_assign needs a 1×c bias");
        assert_eq!(self.cols, bias.cols(), "add_row_assign column mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (x, &b) in row.iter_mut().zip(bias.as_slice()) {
                *x += b;
            }
        }
    }

    /// Fused in-place ReLU (`max(x, 0)` elementwise). Written as a select,
    /// not a branch, so it vectorizes: about half of a hidden layer's
    /// pre-activations are negative, which a branch would mispredict. NaN
    /// and `-0.0` pass through unchanged (`x < 0.0` is false for both).
    pub fn relu_assign(&mut self) {
        for x in &mut self.data {
            *x = if *x < 0.0 { 0.0 } else { *x };
        }
    }

    /// Column sums → accumulated into a `1×c` output (the bias gradient of
    /// a fused affine layer). Rows accumulate in ascending order.
    pub fn col_sum_into(&self, out: &mut Tensor) {
        assert_eq!(out.shape(), (1, self.cols), "col_sum output shape mismatch");
        out.zero();
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, &x) in out.as_mut_slice().iter_mut().zip(row) {
                *o += x;
            }
        }
    }

    /// Consume the tensor, returning its backing buffer (for arena reuse).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Seed `i·k·j` matmul — separate multiply and add per term, no fma —
    /// kept as the honest speed baseline for `nn_bench`. NOT bitwise
    /// comparable to [`Tensor::matmul_into`] (which rounds once per fused
    /// term); use [`Tensor::matmul_reference`] for bitwise checks.
    pub fn matmul_naive(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} × {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// In-place `self += other` (same shape).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scale.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Zero all elements, keeping the allocation.
    pub fn zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// Handle to a parameter tensor in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// One trainable parameter with its accumulated gradient and Adam state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    pub value: Tensor,
    pub grad: Tensor,
    pub adam_m: Tensor,
    pub adam_v: Tensor,
}

/// Owns all trainable parameters of a model, plus the RNG used for
/// initialization so model construction is deterministic per seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamStore {
    params: Vec<Param>,
    #[serde(skip, default = "default_rng")]
    rng: ChaCha8Rng,
}

fn default_rng() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0)
}

impl ParamStore {
    /// New store with a deterministic initialization seed.
    pub fn with_seed(seed: u64) -> ParamStore {
        ParamStore {
            params: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Register a parameter with explicit initial value.
    pub fn add(&mut self, value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(Param {
            grad: Tensor::zeros(r, c),
            adam_m: Tensor::zeros(r, c),
            adam_v: Tensor::zeros(r, c),
            value,
        });
        ParamId(self.params.len() - 1)
    }

    /// Register a parameter initialized with Xavier/Glorot uniform.
    pub fn add_xavier(&mut self, rows: usize, cols: usize) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let mut t = Tensor::zeros(rows, cols);
        for v in t.as_mut_slice() {
            *v = self.rng.gen_range(-bound..bound);
        }
        self.add(t)
    }

    /// Register a zero-initialized parameter (biases).
    pub fn add_zeros(&mut self, rows: usize, cols: usize) -> ParamId {
        self.add(Tensor::zeros(rows, cols))
    }

    /// Parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Mutable parameter record.
    pub fn param_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    /// Add `grad` into the parameter's accumulated gradient.
    pub fn accumulate_grad(&mut self, id: ParamId, grad: &Tensor) {
        self.params[id.0].grad.add_assign(grad);
    }

    /// Zero every parameter's accumulated gradient.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.zero();
        }
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True iff no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Iterate over all parameter records mutably (used by the optimizer).
    pub fn params_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        self.params.iter_mut()
    }

    /// All parameter ids in insertion order.
    pub fn param_ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.params.len()).map(ParamId)
    }

    /// Total scalar parameter count.
    pub fn scalar_count(&self) -> usize {
        self.params
            .iter()
            .map(|p| p.value.rows() * p.value.cols())
            .sum()
    }

    /// Scale every accumulated gradient by `s` (minibatch averaging).
    pub fn scale_grads(&mut self, s: f32) {
        for p in &mut self.params {
            p.grad.scale_assign(s);
        }
    }

    /// Iterate over parameter values in [`ParamId`] order (read-only).
    pub fn values_iter(&self) -> impl Iterator<Item = &Tensor> {
        self.params.iter().map(|p| &p.value)
    }

    /// Global L2 norm of all accumulated gradients (training telemetry:
    /// exploding/vanishing gradients show up here long before the loss
    /// trace reacts).
    pub fn grad_norm(&self) -> f64 {
        self.params
            .iter()
            .map(|p| {
                let n = p.grad.norm() as f64;
                n * n
            })
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn xavier_init_is_deterministic_per_seed() {
        let mut s1 = ParamStore::with_seed(42);
        let mut s2 = ParamStore::with_seed(42);
        let a = s1.add_xavier(4, 4);
        let b = s2.add_xavier(4, 4);
        assert_eq!(s1.value(a), s2.value(b));
        let mut s3 = ParamStore::with_seed(43);
        let c = s3.add_xavier(4, 4);
        assert_ne!(s1.value(a), s3.value(c));
    }

    #[test]
    fn xavier_within_bound() {
        let mut s = ParamStore::with_seed(1);
        let id = s.add_xavier(10, 10);
        let bound = (6.0f32 / 20.0).sqrt();
        for &v in s.value(id).as_slice() {
            assert!(v.abs() <= bound);
        }
    }

    #[test]
    fn grad_accumulation_and_reset() {
        let mut s = ParamStore::with_seed(1);
        let id = s.add_zeros(2, 2);
        s.accumulate_grad(id, &Tensor::full(2, 2, 1.5));
        s.accumulate_grad(id, &Tensor::full(2, 2, 0.5));
        assert_eq!(s.param_mut(id).grad, Tensor::full(2, 2, 2.0));
        s.zero_grads();
        assert_eq!(s.param_mut(id).grad, Tensor::zeros(2, 2));
    }

    #[test]
    fn scalar_count_sums_all_params() {
        let mut s = ParamStore::with_seed(1);
        s.add_zeros(2, 3);
        s.add_zeros(1, 4);
        assert_eq!(s.scalar_count(), 10);
        assert_eq!(s.len(), 2);
    }
}
