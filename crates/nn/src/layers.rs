//! Layers: fully-connected, embedding, LSTM, depthwise conv, batch norm.
//!
//! Layers own [`ParamId`]s into a [`ParamStore`] and build graph nodes on
//! each forward pass, so one layer instance can be applied many times per
//! graph (e.g. the LSTM cell across timesteps) with shared weights.

use crate::graph::{Graph, NodeId};
use crate::tensor::{ParamId, ParamStore};
use serde::{Deserialize, Serialize};

/// Fully-connected layer `y = x·W + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    /// New layer with Xavier-initialized weights and zero bias.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize) -> Linear {
        Linear {
            w: store.add_xavier(in_dim, out_dim),
            b: store.add_zeros(1, out_dim),
            in_dim,
            out_dim,
        }
    }

    /// Apply to an `n×in_dim` node.
    pub fn forward_with(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        g.affine(x, w, b)
    }
}

/// Token embedding table: maps token indices to dense rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    pub table: ParamId,
    pub vocab: usize,
    pub dim: usize,
}

impl Embedding {
    /// New table with Xavier initialization.
    pub fn new(store: &mut ParamStore, vocab: usize, dim: usize) -> Embedding {
        Embedding {
            table: store.add_xavier(vocab, dim),
            vocab,
            dim,
        }
    }

    /// Look up a batch of token indices → `len×dim` node.
    pub fn forward_with(&self, g: &mut Graph, store: &ParamStore, indices: &[usize]) -> NodeId {
        debug_assert!(indices.iter().all(|&i| i < self.vocab));
        g.embed(store, self.table, indices)
    }
}

/// Single-layer LSTM (Hochreiter & Schmidhuber) over a sequence of `1×input`
/// row-vector nodes, returning the final hidden state `1×hidden`.
///
/// Gate layout inside the fused weight matrices: `[i | f | g | o]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lstm {
    pub wx: ParamId,
    pub wh: ParamId,
    pub b: ParamId,
    pub input: usize,
    pub hidden: usize,
}

impl Lstm {
    /// New LSTM with Xavier weights; forget-gate bias initialized to 1 for
    /// stable early training.
    pub fn new(store: &mut ParamStore, input: usize, hidden: usize) -> Lstm {
        let wx = store.add_xavier(input, 4 * hidden);
        let wh = store.add_xavier(hidden, 4 * hidden);
        let mut bias = crate::tensor::Tensor::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.set(0, c, 1.0);
        }
        let b = store.add(bias);
        Lstm {
            wx,
            wh,
            b,
            input,
            hidden,
        }
    }

    /// Run over `steps` (each `1×input`), return the final hidden state.
    /// An empty sequence returns the zero initial state.
    ///
    /// Each timestep is one fused [`Graph::lstm_cell`] tape node. The hidden
    /// state is bitwise identical to [`Lstm::forward_with_unfused`] (see
    /// `fused_cell_matches_unrolled_composition`).
    pub fn forward_with(&self, g: &mut Graph, store: &ParamStore, steps: &[NodeId]) -> NodeId {
        let wx = g.param(store, self.wx);
        let wh = g.param(store, self.wh);
        let b = g.param(store, self.b);
        let mut prev: Option<NodeId> = None;
        for &x in steps {
            prev = Some(g.lstm_cell(x, prev, wx, wh, b, self.hidden));
        }
        match prev {
            Some(hc) => g.slice_cols(hc, 0, self.hidden),
            None => {
                let h0 = g.scratch(1, self.hidden);
                g.input(h0)
            }
        }
    }

    /// The unrolled cell: ~16 primitive tape nodes per step. Kept as the
    /// composition the fused op is checked against; no model calls it.
    pub fn forward_with_unfused(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        steps: &[NodeId],
    ) -> NodeId {
        let wx = g.param(store, self.wx);
        let wh = g.param(store, self.wh);
        let b = g.param(store, self.b);
        let h0 = g.scratch(1, self.hidden);
        let mut h = g.input(h0);
        let c0 = g.scratch(1, self.hidden);
        let mut c = g.input(c0);
        for &x in steps {
            let xg = g.matmul(x, wx);
            let hg = g.matmul(h, wh);
            let s = g.add(xg, hg);
            let gates = g.add_row(s, b);
            let i = g.slice_cols(gates, 0, self.hidden);
            let f = g.slice_cols(gates, self.hidden, self.hidden);
            let gg = g.slice_cols(gates, 2 * self.hidden, self.hidden);
            let o = g.slice_cols(gates, 3 * self.hidden, self.hidden);
            let i = g.sigmoid(i);
            let f = g.sigmoid(f);
            let gg = g.tanh(gg);
            let o = g.sigmoid(o);
            let fc = g.mul(f, c);
            let ig = g.mul(i, gg);
            c = g.add(fc, ig);
            let tc = g.tanh(c);
            h = g.mul(o, tc);
        }
        h
    }
}

/// Depthwise 3×1 convolution block: `Conv3x1 → BatchNorm → ReLU`, the
/// convolution block of the paper's string encoder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv3x1 {
    pub w: ParamId,
    pub b: ParamId,
    pub channels: usize,
}

impl Conv3x1 {
    /// New kernel over `channels` columns.
    pub fn new(store: &mut ParamStore, channels: usize) -> Conv3x1 {
        Conv3x1 {
            w: store.add_xavier(3, channels),
            b: store.add_zeros(1, channels),
            channels,
        }
    }

    /// Apply to an `n×channels` node.
    pub fn forward_with(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        g.conv3x1(x, w, b)
    }
}

/// Per-column batch normalization with learned scale and shift.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm {
    pub gamma: ParamId,
    pub beta: ParamId,
    pub channels: usize,
}

impl BatchNorm {
    /// New normalization over `channels` columns (γ=1, β=0).
    pub fn new(store: &mut ParamStore, channels: usize) -> BatchNorm {
        BatchNorm {
            gamma: store.add(crate::tensor::Tensor::full(1, channels, 1.0)),
            beta: store.add_zeros(1, channels),
            channels,
        }
    }

    /// Apply to an `n×channels` node.
    pub fn forward_with(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let gamma = g.param(store, self.gamma);
        let beta = g.param(store, self.beta);
        g.norm_rows(x, gamma, beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::with_seed(1);
        let l = Linear::new(&mut store, 3, 5);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 3));
        let y = l.forward_with(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (2, 5));
    }

    #[test]
    fn embedding_shapes_and_bounds() {
        let mut store = ParamStore::with_seed(1);
        let e = Embedding::new(&mut store, 10, 4);
        let mut g = Graph::new();
        let out = e.forward_with(&mut g, &store, &[0, 9, 3]);
        assert_eq!(g.value(out).shape(), (3, 4));
    }

    #[test]
    fn lstm_final_state_shape_and_empty_sequence() {
        let mut store = ParamStore::with_seed(1);
        let l = Lstm::new(&mut store, 4, 6);
        let mut g = Graph::new();
        let x1 = g.input(Tensor::full(1, 4, 0.5));
        let x2 = g.input(Tensor::full(1, 4, -0.5));
        let h = l.forward_with(&mut g, &store, &[x1, x2]);
        assert_eq!(g.value(h).shape(), (1, 6));
        let h0 = l.forward_with(&mut g, &store, &[]);
        assert_eq!(g.value(h0), &Tensor::zeros(1, 6));
    }

    #[test]
    fn fused_cell_matches_unrolled_composition() {
        // The fused LstmCell op must produce a bitwise-identical hidden
        // state to the primitive composition, and numerically matching
        // parameter gradients. Both tapes run through the one `backward`,
        // but the fused and primitive rules reduce in different orders, so
        // grads are compared with a tolerance, not bitwise.
        let mut store = ParamStore::with_seed(11);
        let l = Lstm::new(&mut store, 3, 5);
        let rows: [&[f32]; 3] = [&[0.3, -1.2, 0.7], &[-0.5, 0.0, 2.1], &[1.0, 0.25, -0.75]];
        let run = |fused: bool, store: &ParamStore| {
            let mut g = Graph::new();
            let steps: Vec<NodeId> = rows
                .iter()
                .map(|r| g.input(Tensor::from_rows(&[r])))
                .collect();
            let h = if fused {
                l.forward_with(&mut g, store, &steps)
            } else {
                l.forward_with_unfused(&mut g, store, &steps)
            };
            let value = g.value(h).clone();
            let loss = g.mean_all(h);
            g.backward(loss);
            let grads: Vec<Tensor> = [l.wx, l.wh, l.b]
                .iter()
                .map(|&p| {
                    // `param` dedupes, so this returns the node created
                    // during the forward pass rather than a fresh leaf.
                    let n = g.param(store, p);
                    g.grad(n)
                })
                .collect();
            (value, grads)
        };
        let (h_fused, g_fused) = run(true, &store);
        let (h_ref, g_ref) = run(false, &store);
        let bits = |t: &Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(
            bits(&h_fused),
            bits(&h_ref),
            "fused hidden state must be bitwise equal"
        );
        for (gf, gr) in g_fused.iter().zip(&g_ref) {
            for (a, b) in gf.as_slice().iter().zip(gr.as_slice()) {
                assert!(
                    (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                    "grad mismatch: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn lstm_is_order_sensitive() {
        let mut store = ParamStore::with_seed(3);
        let l = Lstm::new(&mut store, 2, 4);
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[1.0, 0.0]]));
        let b = g.input(Tensor::from_rows(&[&[0.0, 1.0]]));
        let hab = l.forward_with(&mut g, &store, &[a, b]);
        let hba = l.forward_with(&mut g, &store, &[b, a]);
        let diff: f32 = g
            .value(hab)
            .as_slice()
            .iter()
            .zip(g.value(hba).as_slice())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 1e-6, "LSTM must distinguish sequence order");
    }

    #[test]
    fn conv_block_preserves_shape() {
        let mut store = ParamStore::with_seed(1);
        let conv = Conv3x1::new(&mut store, 4);
        let bn = BatchNorm::new(&mut store, 4);
        let mut g = Graph::new();
        let x = g.input(Tensor::full(5, 4, 0.3));
        let c = conv.forward_with(&mut g, &store, x);
        let n = bn.forward_with(&mut g, &store, c);
        let y = g.relu(n);
        assert_eq!(g.value(y).shape(), (5, 4));
    }

    #[test]
    fn lstm_learns_to_separate_two_sequences() {
        // Tiny sanity check that gradients flow through the whole cell:
        // train to output +1 for sequence A and −1 for sequence B.
        let mut store = ParamStore::with_seed(9);
        let lstm = Lstm::new(&mut store, 2, 8);
        let head = Linear::new(&mut store, 8, 1);
        let mut adam = crate::adam::Adam::new(0.05);
        let seq_a = [[1.0f32, 0.0], [1.0, 0.0]];
        let seq_b = [[0.0f32, 1.0], [0.0, 1.0]];
        for _ in 0..120 {
            store.zero_grads();
            for (seq, target) in [(&seq_a, 1.0f32), (&seq_b, -1.0f32)] {
                let mut g = Graph::new();
                let steps: Vec<NodeId> = seq
                    .iter()
                    .map(|r| g.input(Tensor::from_rows(&[r])))
                    .collect();
                let h = lstm.forward_with(&mut g, &store, &steps);
                let y = head.forward_with(&mut g, &store, h);
                let t = g.input(Tensor::from_vec(1, 1, vec![target]));
                let loss = g.mse(y, t);
                g.backward(loss);
                g.accumulate_param_grads(&mut store);
            }
            adam.step(&mut store);
        }
        let eval = |seq: &[[f32; 2]; 2], store: &ParamStore| {
            let mut g = Graph::new();
            let steps: Vec<NodeId> = seq
                .iter()
                .map(|r| g.input(Tensor::from_rows(&[r])))
                .collect();
            let h = lstm.forward_with(&mut g, store, &steps);
            let y = head.forward_with(&mut g, store, h);
            g.value(y).get(0, 0)
        };
        assert!(eval(&seq_a, &store) > 0.5);
        assert!(eval(&seq_b, &store) < -0.5);
    }
}
