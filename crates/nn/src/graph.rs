//! Tape-based reverse-mode autograd with arena-recycled buffers.
//!
//! A [`Graph`] is built per forward pass: every operation appends a node
//! holding its computed value and enough structure to run the chain rule in
//! reverse. Parameters enter the graph by value (copied from the
//! [`ParamStore`]) and their gradients are handed back to the store after
//! `backward`, so the graph never borrows the store.
//!
//! There is one reverse sweep, [`Graph::backward`], and every tape runs
//! through it: the fused ops the layers build ([`Graph::affine`],
//! [`Graph::lstm_cell`]) and the primitive compositions the tests check
//! them against alike.
//!
//! ## Buffer arena
//!
//! Every tensor a graph allocates — forward values, backward gradients,
//! sparse embedding rows — draws its backing `Vec<f32>` from the graph's
//! internal free-list and returns it there on [`Graph::reset`]. A training
//! loop that calls `reset` between samples therefore reaches a steady state
//! where forward + backward perform **zero heap allocation**: the tape, the
//! free-list and every buffer are reused in place. `reset` only clears
//! lengths; capacities survive.
//!
//! Recycling never changes numerics: a recycled buffer is always fully
//! overwritten (or `resize`d to zero-filled) before use, so results are
//! bitwise identical to a freshly allocated graph.

use crate::tensor::{ParamId, ParamStore, Tensor};

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

#[derive(Debug)]
enum Op {
    /// Constant input — no gradient flows out.
    Input,
    /// Parameter leaf — gradient is collected for the store via the
    /// graph's `param_nodes` map.
    Param,
    /// Row gather from an embedding table parameter. The table itself is
    /// never copied into the graph; gradients scatter back sparsely.
    Embed {
        table: ParamId,
        indices: Vec<usize>,
    },
    /// Matrix product `a × b`.
    MatMul(NodeId, NodeId),
    /// Fused affine transform `x × w + b` (`b` broadcast over rows): one
    /// node and one output pass instead of a MatMul + AddRow pair.
    Affine {
        x: NodeId,
        w: NodeId,
        b: NodeId,
    },
    /// Elementwise sum of equal shapes.
    Add(NodeId, NodeId),
    /// `(n×c) + (1×c)` broadcast of a row vector.
    AddRow(NodeId, NodeId),
    /// Elementwise difference.
    Sub(NodeId, NodeId),
    /// Elementwise (Hadamard) product.
    Mul(NodeId, NodeId),
    Relu(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    /// Concatenate along columns (equal row counts).
    ConcatCols(Vec<NodeId>),
    /// Stack along rows (equal column counts).
    ConcatRows(Vec<NodeId>),
    /// Columns `[start, start+len)` of the source.
    SliceCols(NodeId, usize, usize),
    /// Column-wise mean over rows → `1×c` (average pooling).
    MeanRows(NodeId),
    /// Mean over all elements → `1×1`.
    MeanAll(NodeId),
    /// Depthwise 3×1 convolution along rows with zero padding:
    /// `out[i,c] = b[c] + Σ_k w[k,c]·x[i+k−1,c]`.
    Conv3x1 {
        x: NodeId,
        w: NodeId,
        b: NodeId,
    },
    /// One fused LSTM step: gates, cell update and output in a single tape
    /// node instead of ~16 (two matmuls, slices, activations, Hadamards).
    /// The node's value is the packed state `[h | c | tanh(c)]`
    /// (`1×3·hidden`; the tanh block is a forward stash reused by backward);
    /// `prev` is the previous step's packed node (`None` = zero state).
    LstmCell {
        x: NodeId,
        prev: Option<NodeId>,
        wx: NodeId,
        wh: NodeId,
        b: NodeId,
        hidden: usize,
        /// Saved post-activation gates `[i|f|g|o]` (`1×4·hidden`) for the
        /// backward pass; recycled into the pool on `reset`.
        act: Tensor,
    },
    /// Per-column batch normalization over rows with learned scale/shift.
    NormRows {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
    },
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
}

/// One forward pass's computation tape.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Dedup of param leaves so layers reused across timesteps share a node.
    param_nodes: Vec<(ParamId, NodeId)>,
    /// Sparse gradients for embedding tables: (table, row, grad-row).
    embed_grads: Vec<(ParamId, usize, Vec<f32>)>,
    /// Free-list of recycled `f32` buffers (see module docs).
    pool: Vec<Vec<f32>>,
    /// Tape nodes below this index are pinned parameter leaves that survive
    /// [`Graph::reset`] (see [`Graph::pin_params`]).
    pinned: usize,
}

fn pooled_zeros(pool: &mut Vec<Vec<f32>>, rows: usize, cols: usize) -> Tensor {
    let mut buf = pool.pop().unwrap_or_default();
    buf.clear();
    buf.resize(rows * cols, 0.0);
    Tensor::from_vec(rows, cols, buf)
}

fn pooled_copy(pool: &mut Vec<Vec<f32>>, src: &Tensor) -> Tensor {
    let mut buf = pool.pop().unwrap_or_default();
    buf.clear();
    buf.extend_from_slice(src.as_slice());
    Tensor::from_vec(src.rows(), src.cols(), buf)
}

impl Graph {
    /// Empty tape.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Clear the tape for the next forward pass, harvesting every buffer
    /// (values, gradients, sparse embed rows) into the free-list. After a
    /// few passes the free-list covers the working set and subsequent
    /// passes allocate nothing.
    pub fn reset(&mut self) {
        // Anything still parked in the free-list survived a whole pass
        // without being popped: it is cold. A few stale buffers are fine
        // (graph shapes vary between passes), but letting them pile up —
        // e.g. when callers feed `input` tensors allocated outside the pool
        // — grows the heap without bound and drags every pass through cold
        // memory. Keep a small slack, drop the oldest excess.
        let stale = self.pool.len();
        for node in &mut self.nodes[..self.pinned] {
            if let Some(g) = node.grad.take() {
                self.pool.push(g.into_data());
            }
        }
        for node in self.nodes.drain(self.pinned..) {
            self.pool.push(node.value.into_data());
            if let Some(g) = node.grad {
                self.pool.push(g.into_data());
            }
            if let Op::LstmCell { act, .. } = node.op {
                self.pool.push(act.into_data());
            }
        }
        self.param_nodes.retain(|&(_, nid)| nid.0 < self.pinned);
        for (_, _, buf) in self.embed_grads.drain(..) {
            self.pool.push(buf);
        }
        let harvested = self.pool.len() - stale;
        let slack = harvested / 4 + 16;
        if stale > slack {
            self.pool.drain(..stale - slack);
        }
    }

    /// Buffers currently parked in the free-list (telemetry / tests).
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Pin every currently-interned parameter leaf: [`Graph::reset`] keeps
    /// the tape prefix holding them — values and the dedup map intact — so
    /// later passes reuse the same leaves instead of re-copying every
    /// parameter from the store. Call on a fresh tape right after interning
    /// the parameters (the prefix must consist solely of `Param` nodes).
    /// After an optimizer step changes the store, push the new values back
    /// with [`Graph::refresh_params`].
    ///
    /// Pinned leaves still get their gradients collected per pass by
    /// [`Graph::accumulate_param_grads`]; a reset without collection
    /// discards them.
    pub fn pin_params(&mut self) {
        assert!(
            self.nodes.iter().all(|n| matches!(n.op, Op::Param)),
            "pin_params requires a params-only tape prefix"
        );
        self.pinned = self.nodes.len();
    }

    /// Overwrite every pinned parameter leaf with the store's current
    /// values (after an optimizer step). No-op when nothing is pinned.
    pub fn refresh_params(&mut self, store: &ParamStore) {
        for k in 0..self.param_nodes.len() {
            let (pid, nid) = self.param_nodes[k];
            self.nodes[nid.0]
                .value
                .as_mut_slice()
                .copy_from_slice(store.value(pid).as_slice());
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Gradient of a node after [`Graph::backward`], zeros if none reached it.
    pub fn grad(&self, id: NodeId) -> Tensor {
        match &self.nodes[id.0].grad {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.nodes[id.0].value.shape();
                Tensor::zeros(r, c)
            }
        }
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- node constructors -------------------------------------------------

    /// Constant input tensor.
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Input)
    }

    /// Zeroed `rows×cols` tensor backed by the graph's free-list. Fill it
    /// and pass it to [`Graph::input`] to feed data without allocating:
    /// `reset` harvests the buffer back like any other node value.
    pub fn scratch(&mut self, rows: usize, cols: usize) -> Tensor {
        pooled_zeros(&mut self.pool, rows, cols)
    }

    /// Parameter leaf (copied from the store, deduped per graph).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        if let Some(&(_, n)) = self.param_nodes.iter().find(|(p, _)| *p == id) {
            return n;
        }
        let v = pooled_copy(&mut self.pool, store.value(id));
        let n = self.push(v, Op::Param);
        self.param_nodes.push((id, n));
        n
    }

    /// Embedding lookup: gather `indices` rows of table parameter `table`.
    pub fn embed(&mut self, store: &ParamStore, table: ParamId, indices: &[usize]) -> NodeId {
        let t = store.value(table);
        let mut out = pooled_zeros(&mut self.pool, indices.len(), t.cols());
        for (i, &ix) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(t.row(ix));
        }
        self.push(
            out,
            Op::Embed {
                table,
                indices: indices.to_vec(),
            },
        )
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ar, bc) = (self.nodes[a.0].value.rows(), self.nodes[b.0].value.cols());
        let mut v = pooled_zeros(&mut self.pool, ar, bc);
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut v);
        self.push(v, Op::MatMul(a, b))
    }

    /// Fused affine transform `x × w + b` (`b` a `1×c` row broadcast over
    /// rows). One tape node instead of a MatMul + AddRow pair; the bias is
    /// added after the full inner-product sum, so the value is bitwise
    /// identical to `add_row(matmul(x, w), b)`.
    pub fn affine(&mut self, x: NodeId, w: NodeId, b: NodeId) -> NodeId {
        let (xr, wc) = (self.nodes[x.0].value.rows(), self.nodes[w.0].value.cols());
        let mut v = pooled_zeros(&mut self.pool, xr, wc);
        self.nodes[x.0]
            .value
            .matmul_into(&self.nodes[w.0].value, &mut v);
        v.add_row_assign(&self.nodes[b.0].value);
        self.push(v, Op::Affine { x, w, b })
    }

    /// Elementwise sum (equal shapes).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        assert_eq!(
            self.nodes[a.0].value.shape(),
            self.nodes[b.0].value.shape(),
            "add shape mismatch"
        );
        let mut v = pooled_copy(&mut self.pool, &self.nodes[a.0].value);
        v.add_assign(&self.nodes[b.0].value);
        self.push(v, Op::Add(a, b))
    }

    /// Broadcast-add a `1×c` row vector to every row of `a`.
    pub fn add_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        assert_eq!(
            self.nodes[row.0].value.rows(),
            1,
            "add_row needs a 1×c row vector"
        );
        assert_eq!(
            self.nodes[a.0].value.cols(),
            self.nodes[row.0].value.cols(),
            "add_row column mismatch"
        );
        let mut v = pooled_copy(&mut self.pool, &self.nodes[a.0].value);
        v.add_row_assign(&self.nodes[row.0].value);
        self.push(v, Op::AddRow(a, row))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        assert_eq!(
            self.nodes[a.0].value.shape(),
            self.nodes[b.0].value.shape(),
            "sub shape mismatch"
        );
        let mut v = pooled_copy(&mut self.pool, &self.nodes[a.0].value);
        for (x, y) in v
            .as_mut_slice()
            .iter_mut()
            .zip(self.nodes[b.0].value.as_slice())
        {
            *x -= y;
        }
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        assert_eq!(
            self.nodes[a.0].value.shape(),
            self.nodes[b.0].value.shape(),
            "mul shape mismatch"
        );
        let mut v = pooled_copy(&mut self.pool, &self.nodes[a.0].value);
        for (x, y) in v
            .as_mut_slice()
            .iter_mut()
            .zip(self.nodes[b.0].value.as_slice())
        {
            *x *= y;
        }
        self.push(v, Op::Mul(a, b))
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let mut v = pooled_copy(&mut self.pool, &self.nodes[a.0].value);
        v.relu_assign();
        self.push(v, Op::Relu(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let mut v = pooled_copy(&mut self.pool, &self.nodes[a.0].value);
        for x in v.as_mut_slice() {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let mut v = pooled_copy(&mut self.pool, &self.nodes[a.0].value);
        for x in v.as_mut_slice() {
            *x = x.tanh();
        }
        self.push(v, Op::Tanh(a))
    }

    /// Concatenate along columns.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let rows = self.nodes[parts[0].0].value.rows();
        let total: usize = parts.iter().map(|&p| self.nodes[p.0].value.cols()).sum();
        let mut v = pooled_zeros(&mut self.pool, rows, total);
        let mut at = 0;
        for &p in parts {
            let t = &self.nodes[p.0].value;
            assert_eq!(t.rows(), rows, "concat_cols row mismatch");
            let cols = t.cols();
            for r in 0..rows {
                v.row_mut(r)[at..at + cols].copy_from_slice(t.row(r));
            }
            at += cols;
        }
        self.push(v, Op::ConcatCols(parts.to_vec()))
    }

    /// Stack along rows.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let cols = self.nodes[parts[0].0].value.cols();
        let total: usize = parts.iter().map(|&p| self.nodes[p.0].value.rows()).sum();
        let mut v = pooled_zeros(&mut self.pool, total, cols);
        let mut at = 0;
        for &p in parts {
            let t = &self.nodes[p.0].value;
            assert_eq!(t.cols(), cols, "concat_rows column mismatch");
            for r in 0..t.rows() {
                v.row_mut(at + r).copy_from_slice(t.row(r));
            }
            at += t.rows();
        }
        self.push(v, Op::ConcatRows(parts.to_vec()))
    }

    /// Columns `[start, start+len)`.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, len: usize) -> NodeId {
        let (rows, cols) = self.nodes[a.0].value.shape();
        assert!(start + len <= cols, "slice_cols out of range");
        let mut v = pooled_zeros(&mut self.pool, rows, len);
        for r in 0..rows {
            v.row_mut(r)
                .copy_from_slice(&self.nodes[a.0].value.row(r)[start..start + len]);
        }
        self.push(v, Op::SliceCols(a, start, len))
    }

    /// Column-wise mean over rows (average pooling) → `1×c`.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let (rows, cols) = self.nodes[a.0].value.shape();
        let n = rows.max(1);
        let mut v = pooled_zeros(&mut self.pool, 1, cols);
        self.nodes[a.0].value.col_sum_into(&mut v);
        v.scale_assign(1.0 / n as f32);
        self.push(v, Op::MeanRows(a))
    }

    /// Mean over all elements → `1×1`.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let t = &self.nodes[a.0].value;
        let n = (t.rows() * t.cols()).max(1);
        let s: f32 = t.as_slice().iter().sum();
        let mut v = pooled_zeros(&mut self.pool, 1, 1);
        v.set(0, 0, s / n as f32);
        self.push(v, Op::MeanAll(a))
    }

    /// Depthwise 3×1 convolution along rows, zero padding (`same` size).
    /// `w` is `3×c`, `b` is `1×c`.
    pub fn conv3x1(&mut self, x: NodeId, w: NodeId, b: NodeId) -> NodeId {
        let (n, c) = self.nodes[x.0].value.shape();
        assert_eq!(
            self.nodes[w.0].value.shape(),
            (3, c),
            "conv3x1 kernel must be 3×c"
        );
        assert_eq!(
            self.nodes[b.0].value.shape(),
            (1, c),
            "conv3x1 bias must be 1×c"
        );
        let mut v = pooled_zeros(&mut self.pool, n, c);
        {
            let xt = &self.nodes[x.0].value;
            let wt = &self.nodes[w.0].value;
            let bt = &self.nodes[b.0].value;
            for i in 0..n {
                for ch in 0..c {
                    let mut acc = bt.get(0, ch);
                    for k in 0..3usize {
                        let j = i as isize + k as isize - 1;
                        if j >= 0 && (j as usize) < n {
                            acc += wt.get(k, ch) * xt.get(j as usize, ch);
                        }
                    }
                    v.set(i, ch, acc);
                }
            }
        }
        self.push(v, Op::Conv3x1 { x, w, b })
    }

    /// Per-column batch normalization over rows with learned `gamma`/`beta`
    /// (both `1×c`).
    pub fn norm_rows(&mut self, x: NodeId, gamma: NodeId, beta: NodeId) -> NodeId {
        const EPS: f32 = 1e-5;
        let (n, c) = self.nodes[x.0].value.shape();
        assert_eq!(
            self.nodes[gamma.0].value.shape(),
            (1, c),
            "gamma must be 1×c"
        );
        assert_eq!(self.nodes[beta.0].value.shape(), (1, c), "beta must be 1×c");
        let mut v = pooled_zeros(&mut self.pool, n, c);
        {
            let xt = &self.nodes[x.0].value;
            let gt = &self.nodes[gamma.0].value;
            let bt = &self.nodes[beta.0].value;
            for ch in 0..c {
                let mean: f32 = (0..n).map(|r| xt.get(r, ch)).sum::<f32>() / n.max(1) as f32;
                let var: f32 =
                    (0..n).map(|r| (xt.get(r, ch) - mean).powi(2)).sum::<f32>() / n.max(1) as f32;
                let inv = 1.0 / (var + EPS).sqrt();
                for r in 0..n {
                    let xhat = (xt.get(r, ch) - mean) * inv;
                    v.set(r, ch, gt.get(0, ch) * xhat + bt.get(0, ch));
                }
            }
        }
        self.push(
            v,
            Op::NormRows {
                x,
                gamma,
                beta,
                eps: EPS,
            },
        )
    }

    /// One fused LSTM step over a `1×input` row `x`, producing the packed
    /// state `[h | c]` as a single `1×2·hidden` node. `prev` is the previous
    /// step's packed node (`None` = zero initial state); `wx` (`input×4h`),
    /// `wh` (`h×4h`) and `b` (`1×4h`) use the `[i|f|g|o]` gate layout.
    ///
    /// Replaces the ~16 primitive nodes of the unrolled cell with one tape
    /// entry. The arithmetic keeps the unrolled form's exact operation order
    /// — `(x·Wx + h·Wh) + b`, then `f·c + i·g`, then `o·tanh(c)` — so the
    /// state is bitwise identical to the primitive composition.
    pub fn lstm_cell(
        &mut self,
        x: NodeId,
        prev: Option<NodeId>,
        wx: NodeId,
        wh: NodeId,
        b: NodeId,
        hidden: usize,
    ) -> NodeId {
        let hh = hidden;
        let in_dim = self.nodes[x.0].value.cols();
        assert_eq!(
            self.nodes[x.0].value.rows(),
            1,
            "lstm_cell step must be 1×input"
        );
        assert_eq!(
            self.nodes[wx.0].value.shape(),
            (in_dim, 4 * hh),
            "lstm_cell wx must be input×4h"
        );
        assert_eq!(
            self.nodes[wh.0].value.shape(),
            (hh, 4 * hh),
            "lstm_cell wh must be h×4h"
        );
        assert_eq!(
            self.nodes[b.0].value.shape(),
            (1, 4 * hh),
            "lstm_cell bias must be 1×4h"
        );
        if let Some(p) = prev {
            assert_eq!(
                self.nodes[p.0].value.shape(),
                (1, 3 * hh),
                "lstm_cell prev state must be 1×3h"
            );
        }

        // act = x·Wx, then += h_prev·Wh, += b, then gate nonlinearities.
        let mut act = pooled_zeros(&mut self.pool, 1, 4 * hh);
        self.nodes[x.0]
            .value
            .matmul_into(&self.nodes[wx.0].value, &mut act);
        let mut hg = pooled_zeros(&mut self.pool, 1, 4 * hh);
        if let Some(p) = prev {
            let h_prev = &self.nodes[p.0].value.as_slice()[..hh];
            self.nodes[wh.0].value.left_vecmat_into(h_prev, &mut hg);
        }
        {
            let bt = self.nodes[b.0].value.as_slice();
            let hgs = hg.as_slice();
            let a = act.as_mut_slice();
            for j in 0..4 * hh {
                let pre = (a[j] + hgs[j]) + bt[j];
                a[j] = if (2 * hh..3 * hh).contains(&j) {
                    pre.tanh()
                } else {
                    1.0 / (1.0 + (-pre).exp())
                };
            }
        }
        self.pool.push(hg.into_data());

        // Packed state `[h | c | tanh(c)]`. The third block is a forward
        // stash so backward never recomputes tanh; gradients flowing into
        // it from consumers are ignored (only `h` and `c` are read by the
        // layers built on this op).
        let mut v = pooled_zeros(&mut self.pool, 1, 3 * hh);
        {
            let a = act.as_slice();
            let (iv_s, rest) = a.split_at(hh);
            let (fv_s, rest) = rest.split_at(hh);
            let (gv_s, ov_s) = rest.split_at(hh);
            let out = v.as_mut_slice();
            let (h_out, rest) = out.split_at_mut(hh);
            let (c_out, tc_out) = rest.split_at_mut(hh);
            let cp_s = prev.map(|p| &self.nodes[p.0].value.as_slice()[hh..2 * hh]);
            for j in 0..hh {
                let cp = cp_s.map_or(0.0, |s| s[j]);
                let c = (fv_s[j] * cp) + (iv_s[j] * gv_s[j]);
                let tc = c.tanh();
                c_out[j] = c;
                tc_out[j] = tc;
                h_out[j] = ov_s[j] * tc;
            }
        }
        self.push(
            v,
            Op::LstmCell {
                x,
                prev,
                wx,
                wh,
                b,
                hidden,
                act,
            },
        )
    }

    /// Mean-squared-error loss between equal-shaped prediction and target.
    pub fn mse(&mut self, pred: NodeId, target: NodeId) -> NodeId {
        let d = self.sub(pred, target);
        let sq = self.mul(d, d);
        self.mean_all(sq)
    }

    // ---- backward ----------------------------------------------------------

    /// Run the chain rule in reverse from `output`, which must be `1×1`
    /// (a loss). Gradients land on every node; parameter and embedding
    /// gradients can then be handed to the store via
    /// [`Graph::accumulate_param_grads`].
    ///
    /// Every intermediate gradient buffer comes from the graph's free-list;
    /// with a warm pool the whole reverse sweep is allocation-free.
    pub fn backward(&mut self, output: NodeId) {
        assert_eq!(
            self.value(output).shape(),
            (1, 1),
            "backward seed must be a scalar loss"
        );
        let mut seed = pooled_zeros(&mut self.pool, 1, 1);
        seed.set(0, 0, 1.0);
        self.nodes[output.0].grad = Some(seed);

        for i in (0..=output.0).rev() {
            let Some(grad) = self.nodes[i].grad.take() else {
                continue;
            };
            // Borrow the op as a local so the match arms can call `&mut self`
            // helpers; it is moved back (unchanged) after the arm runs.
            let op = std::mem::replace(&mut self.nodes[i].op, Op::Input);
            match &op {
                Op::Input | Op::Param => {}
                Op::Embed { table, indices } => {
                    for (row, &ix) in indices.iter().enumerate() {
                        let mut buf = self.pool.pop().unwrap_or_default();
                        buf.clear();
                        buf.extend_from_slice(grad.row(row));
                        self.embed_grads.push((*table, ix, buf));
                    }
                }
                Op::MatMul(a, b) => {
                    // da = grad × bᵀ, db = aᵀ × grad — both transpose-free.
                    let mut da =
                        pooled_zeros(&mut self.pool, grad.rows(), self.nodes[b.0].value.rows());
                    grad.matmul_bt_into(&self.nodes[b.0].value, &mut da);
                    let mut db =
                        pooled_zeros(&mut self.pool, self.nodes[a.0].value.cols(), grad.cols());
                    self.nodes[a.0].value.at_matmul_into(&grad, &mut db);
                    self.add_grad(*a, da);
                    self.add_grad(*b, db);
                }
                Op::Affine { x, w, b } => {
                    let mut dx =
                        pooled_zeros(&mut self.pool, grad.rows(), self.nodes[w.0].value.rows());
                    grad.matmul_bt_into(&self.nodes[w.0].value, &mut dx);
                    // dW += xᵀ·grad and db += Σrows(grad) accumulate in
                    // place on the param node's grad (take/put-back), which
                    // skips a fresh zeroed tensor plus a merge pass per
                    // affine node. Loop order is fixed, so results stay
                    // deterministic.
                    let in_dim = self.nodes[x.0].value.cols();
                    let out_dim = grad.cols();
                    let mut gw = match self.nodes[w.0].grad.take() {
                        Some(g) => g,
                        None => pooled_zeros(&mut self.pool, in_dim, out_dim),
                    };
                    {
                        // Same SIMD scatter as `at_matmul_into`, minus the
                        // zeroing: accumulates into the live grad with the
                        // identical ascending-row fma chain per element, so
                        // fused == unfused stays bitwise.
                        let xv = &self.nodes[x.0].value;
                        crate::simd::scatter_at(
                            xv.as_slice(),
                            grad.rows(),
                            in_dim,
                            grad.as_slice(),
                            out_dim,
                            gw.as_mut_slice(),
                        );
                    }
                    self.nodes[w.0].grad = Some(gw);
                    let mut gb = match self.nodes[b.0].grad.take() {
                        Some(g) => g,
                        None => pooled_zeros(&mut self.pool, 1, out_dim),
                    };
                    for r in 0..grad.rows() {
                        for (o, &d) in gb.as_mut_slice().iter_mut().zip(grad.row(r)) {
                            *o += d;
                        }
                    }
                    self.nodes[b.0].grad = Some(gb);
                    self.add_grad(*x, dx);
                }
                Op::Add(a, b) => {
                    let da = pooled_copy(&mut self.pool, &grad);
                    self.add_grad(*a, da);
                    let db = pooled_copy(&mut self.pool, &grad);
                    self.add_grad(*b, db);
                }
                Op::AddRow(a, row) => {
                    let mut drow = pooled_zeros(&mut self.pool, 1, grad.cols());
                    grad.col_sum_into(&mut drow);
                    let da = pooled_copy(&mut self.pool, &grad);
                    self.add_grad(*a, da);
                    self.add_grad(*row, drow);
                }
                Op::Sub(a, b) => {
                    let da = pooled_copy(&mut self.pool, &grad);
                    self.add_grad(*a, da);
                    let mut db = pooled_copy(&mut self.pool, &grad);
                    db.scale_assign(-1.0);
                    self.add_grad(*b, db);
                }
                Op::Mul(a, b) => {
                    let mut da = pooled_copy(&mut self.pool, &grad);
                    for (x, y) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[b.0].value.as_slice())
                    {
                        *x *= y;
                    }
                    let mut db = pooled_copy(&mut self.pool, &grad);
                    for (x, y) in db
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[a.0].value.as_slice())
                    {
                        *x *= y;
                    }
                    self.add_grad(*a, da);
                    self.add_grad(*b, db);
                }
                Op::Relu(a) => {
                    let mut da = pooled_copy(&mut self.pool, &grad);
                    for (g, &x) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[a.0].value.as_slice())
                    {
                        if x <= 0.0 {
                            *g = 0.0;
                        }
                    }
                    self.add_grad(*a, da);
                }
                Op::Sigmoid(a) => {
                    let mut da = pooled_copy(&mut self.pool, &grad);
                    for (g, &y) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[i].value.as_slice())
                    {
                        *g *= y * (1.0 - y);
                    }
                    self.add_grad(*a, da);
                }
                Op::Tanh(a) => {
                    let mut da = pooled_copy(&mut self.pool, &grad);
                    for (g, &y) in da
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[i].value.as_slice())
                    {
                        *g *= 1.0 - y * y;
                    }
                    self.add_grad(*a, da);
                }
                Op::ConcatCols(parts) => {
                    let mut at = 0;
                    for &p in parts {
                        let cols = self.nodes[p.0].value.cols();
                        let mut dp = pooled_zeros(&mut self.pool, grad.rows(), cols);
                        for r in 0..grad.rows() {
                            dp.row_mut(r).copy_from_slice(&grad.row(r)[at..at + cols]);
                        }
                        self.add_grad(p, dp);
                        at += cols;
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut at = 0;
                    for &p in parts {
                        let rows = self.nodes[p.0].value.rows();
                        let mut dp = pooled_zeros(&mut self.pool, rows, grad.cols());
                        for r in 0..rows {
                            dp.row_mut(r).copy_from_slice(grad.row(at + r));
                        }
                        self.add_grad(p, dp);
                        at += rows;
                    }
                }
                Op::SliceCols(a, start, len) => {
                    let (rows, cols) = self.nodes[a.0].value.shape();
                    let mut da = pooled_zeros(&mut self.pool, rows, cols);
                    for r in 0..rows {
                        da.row_mut(r)[*start..*start + *len].copy_from_slice(grad.row(r));
                    }
                    self.add_grad(*a, da);
                }
                Op::MeanRows(a) => {
                    let (rows, cols) = self.nodes[a.0].value.shape();
                    let inv = 1.0 / rows.max(1) as f32;
                    let mut da = pooled_zeros(&mut self.pool, rows, cols);
                    for r in 0..rows {
                        for c in 0..cols {
                            da.set(r, c, grad.get(0, c) * inv);
                        }
                    }
                    self.add_grad(*a, da);
                }
                Op::MeanAll(a) => {
                    let (rows, cols) = self.nodes[a.0].value.shape();
                    let inv = grad.get(0, 0) / (rows * cols).max(1) as f32;
                    let mut da = pooled_zeros(&mut self.pool, rows, cols);
                    da.as_mut_slice().iter_mut().for_each(|v| *v = inv);
                    self.add_grad(*a, da);
                }
                Op::Conv3x1 { x, w, b } => {
                    let (n, c) = self.nodes[x.0].value.shape();
                    let mut dx = pooled_zeros(&mut self.pool, n, c);
                    let mut dw = pooled_zeros(&mut self.pool, 3, c);
                    let mut db = pooled_zeros(&mut self.pool, 1, c);
                    for i2 in 0..n {
                        for ch in 0..c {
                            let g = grad.get(i2, ch);
                            if g == 0.0 {
                                continue;
                            }
                            *db.get_mut(0, ch) += g;
                            for k in 0..3usize {
                                let j = i2 as isize + k as isize - 1;
                                if j >= 0 && (j as usize) < n {
                                    let j = j as usize;
                                    *dw.get_mut(k, ch) += g * self.nodes[x.0].value.get(j, ch);
                                    *dx.get_mut(j, ch) += g * self.nodes[w.0].value.get(k, ch);
                                }
                            }
                        }
                    }
                    self.add_grad(*x, dx);
                    self.add_grad(*w, dw);
                    self.add_grad(*b, db);
                }
                Op::LstmCell {
                    x,
                    prev,
                    wx,
                    wh,
                    b,
                    hidden,
                    act,
                } => {
                    let hh = *hidden;
                    // Incoming grad is over the packed state: dh = grad[..h],
                    // dc_out = grad[h..2h]. Recover pre-activation gate grads
                    // from the saved post-activation gates:
                    //   σ'(y) = y(1−y),  tanh'(y) = 1−y².
                    let mut dpre = pooled_zeros(&mut self.pool, 1, 4 * hh);
                    let mut dprev = prev.map(|_| pooled_zeros(&mut self.pool, 1, 3 * hh));
                    {
                        let a = act.as_slice();
                        let (iv_s, rest) = a.split_at(hh);
                        let (fv_s, rest) = rest.split_at(hh);
                        let (gv_s, ov_s) = rest.split_at(hh);
                        // tanh(c) was stashed by the forward pass in the
                        // third block of the packed state.
                        let tc_s = &self.nodes[i].value.as_slice()[2 * hh..3 * hh];
                        let gs = grad.as_slice();
                        let cp_s = prev.map(|p| &self.nodes[p.0].value.as_slice()[hh..2 * hh]);
                        let dp = dpre.as_mut_slice();
                        let (di_s, rest) = dp.split_at_mut(hh);
                        let (df_s, rest) = rest.split_at_mut(hh);
                        let (dg_s, do_s) = rest.split_at_mut(hh);
                        let mut dc_prev = dprev.as_mut().map(|d| &mut d.as_mut_slice()[hh..2 * hh]);
                        for j in 0..hh {
                            let iv = iv_s[j];
                            let fv = fv_s[j];
                            let gv = gv_s[j];
                            let ov = ov_s[j];
                            let tc = tc_s[j];
                            let dh = gs[j];
                            let dc = dh * ov * (1.0 - tc * tc) + gs[hh + j];
                            let cp = cp_s.map_or(0.0, |s| s[j]);
                            di_s[j] = dc * gv * iv * (1.0 - iv);
                            df_s[j] = dc * cp * fv * (1.0 - fv);
                            dg_s[j] = dc * iv * (1.0 - gv * gv);
                            do_s[j] = dh * tc * ov * (1.0 - ov);
                            if let Some(d) = dc_prev.as_mut() {
                                d[j] = dc * fv;
                            }
                        }
                    }
                    // dx = dpre·Wxᵀ ; dWx += xᵀ·dpre ; dWh += h_prevᵀ·dpre ;
                    // dh_prev = dpre·Whᵀ ; db += dpre.
                    //
                    // Weight gradients accumulate straight into the shared
                    // param node's grad (taken out and put back to satisfy
                    // the borrow checker) instead of zeroing a fresh tensor
                    // and merging. Each cell contributes exactly one product
                    // per element in the same cell order, so the sums are
                    // bitwise identical to the materialize-then-merge form.
                    let mut dx = pooled_zeros(&mut self.pool, 1, self.nodes[x.0].value.cols());
                    dpre.matmul_bt_into(&self.nodes[wx.0].value, &mut dx);
                    let in_dim = self.nodes[x.0].value.cols();
                    let mut gwx = match self.nodes[wx.0].grad.take() {
                        Some(g) => g,
                        None => pooled_zeros(&mut self.pool, in_dim, 4 * hh),
                    };
                    {
                        let xv = self.nodes[x.0].value.as_slice();
                        let dp = dpre.as_slice();
                        crate::simd::scatter_at(xv, 1, in_dim, dp, 4 * hh, gwx.as_mut_slice());
                    }
                    self.nodes[wx.0].grad = Some(gwx);
                    if let Some(p) = prev {
                        let mut gwh = match self.nodes[wh.0].grad.take() {
                            Some(g) => g,
                            None => pooled_zeros(&mut self.pool, hh, 4 * hh),
                        };
                        let dp = dpre.as_slice();
                        {
                            let pv = &self.nodes[p.0].value.as_slice()[..hh];
                            crate::simd::scatter_at(pv, 1, hh, dp, 4 * hh, gwh.as_mut_slice());
                        }
                        self.nodes[wh.0].grad = Some(gwh);
                        if let Some(d) = dprev.as_mut() {
                            // dh_prev = dpre × Whᵀ: one lane-accumulator dot
                            // per hidden unit, streaming Wh by rows.
                            let whv = &self.nodes[wh.0].value;
                            crate::simd::dot_bt(
                                dp,
                                1,
                                4 * hh,
                                whv.as_slice(),
                                hh,
                                &mut d.as_mut_slice()[..hh],
                            );
                        }
                    } else if self.nodes[wh.0].grad.is_none() {
                        // Keep the grad present even for single-step
                        // sequences so param collection sees every weight.
                        let z = pooled_zeros(&mut self.pool, hh, 4 * hh);
                        self.nodes[wh.0].grad = Some(z);
                    }
                    self.add_grad(*x, dx);
                    self.add_grad(*b, dpre);
                    if let (Some(p), Some(d)) = (prev, dprev) {
                        self.add_grad(*p, d);
                    }
                }
                Op::NormRows {
                    x,
                    gamma,
                    beta,
                    eps,
                } => {
                    let (n, c) = self.nodes[x.0].value.shape();
                    let nf = n.max(1) as f32;
                    let mut dx = pooled_zeros(&mut self.pool, n, c);
                    let mut dg = pooled_zeros(&mut self.pool, 1, c);
                    let mut db = pooled_zeros(&mut self.pool, 1, c);
                    let mut dxhat = self.pool.pop().unwrap_or_default();
                    dxhat.clear();
                    dxhat.resize(n, 0.0);
                    {
                        let xt = &self.nodes[x.0].value;
                        let gt = &self.nodes[gamma.0].value;
                        for ch in 0..c {
                            let mean: f32 = (0..n).map(|r| xt.get(r, ch)).sum::<f32>() / nf;
                            let var: f32 =
                                (0..n).map(|r| (xt.get(r, ch) - mean).powi(2)).sum::<f32>() / nf;
                            let inv = 1.0 / (var + eps).sqrt();
                            let mut sum_dxhat = 0.0;
                            let mut sum_dxhat_xhat = 0.0;
                            for (r, dxh) in dxhat.iter_mut().enumerate() {
                                let xhat = (xt.get(r, ch) - mean) * inv;
                                let dy = grad.get(r, ch);
                                *db.get_mut(0, ch) += dy;
                                *dg.get_mut(0, ch) += dy * xhat;
                                *dxh = dy * gt.get(0, ch);
                                sum_dxhat += *dxh;
                                sum_dxhat_xhat += *dxh * xhat;
                            }
                            for (r, &dxh) in dxhat.iter().enumerate() {
                                let xhat = (xt.get(r, ch) - mean) * inv;
                                dx.set(
                                    r,
                                    ch,
                                    inv / nf * (nf * dxh - sum_dxhat - xhat * sum_dxhat_xhat),
                                );
                            }
                        }
                    }
                    self.pool.push(dxhat);
                    self.add_grad(*x, dx);
                    self.add_grad(*gamma, dg);
                    self.add_grad(*beta, db);
                }
            }
            self.nodes[i].op = op;
            self.nodes[i].grad = Some(grad);
        }
    }

    fn add_grad(&mut self, id: NodeId, g: Tensor) {
        match &mut self.nodes[id.0].grad {
            Some(existing) => {
                existing.add_assign(&g);
                self.pool.push(g.into_data());
            }
            slot @ None => *slot = Some(g),
        }
    }

    /// Hand every parameter and embedding gradient to the store (additive).
    /// Call after [`Graph::backward`]. Clears the collected gradients but
    /// keeps their capacity for the next pass.
    pub fn accumulate_param_grads(&mut self, store: &mut ParamStore) {
        for k in 0..self.param_nodes.len() {
            let (pid, nid) = self.param_nodes[k];
            if let Some(g) = self.nodes[nid.0].grad.take() {
                store.accumulate_grad(pid, &g);
                self.pool.push(g.into_data());
            }
        }
        self.param_nodes.retain(|&(_, nid)| nid.0 < self.pinned);
        for k in 0..self.embed_grads.len() {
            let (table, row) = (self.embed_grads[k].0, self.embed_grads[k].1);
            let grow = std::mem::take(&mut self.embed_grads[k].2);
            let p = store.param_mut(table);
            for (c, g) in grow.iter().enumerate() {
                *p.grad.get_mut(row, c) += g;
            }
            self.pool.push(grow);
        }
        self.embed_grads.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matmul_add_row() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0, 2.0]]));
        let w = g.input(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let b = g.input(Tensor::from_rows(&[&[10.0, 20.0]]));
        let y = g.matmul(x, w);
        let z = g.add_row(y, b);
        assert_eq!(g.value(z), &Tensor::from_rows(&[&[11.0, 22.0]]));
    }

    #[test]
    fn affine_matches_matmul_add_row_bitwise() {
        let mut store = ParamStore::with_seed(21);
        let w = store.add_xavier(3, 4);
        let b = store.add_xavier(1, 4);
        let x0 = Tensor::from_rows(&[&[0.3, -1.2, 0.7], &[2.0, 0.1, -0.4]]);

        let mut g1 = Graph::new();
        let x = g1.input(x0.clone());
        let wp = g1.param(&store, w);
        let bp = g1.param(&store, b);
        let y = g1.matmul(x, wp);
        let unfused = g1.add_row(y, bp);

        let mut g2 = Graph::new();
        let x = g2.input(x0);
        let wp = g2.param(&store, w);
        let bp = g2.param(&store, b);
        let fused = g2.affine(x, wp, bp);

        assert_eq!(g1.value(unfused), g2.value(fused));
    }

    #[test]
    fn affine_backward_matches_unfused_bitwise() {
        let mut store1 = ParamStore::with_seed(33);
        let w1 = store1.add_xavier(3, 2);
        let b1 = store1.add_xavier(1, 2);
        let mut store2 = store1.clone();
        let x0 = Tensor::from_rows(&[&[0.5, -0.3, 1.1], &[-0.8, 0.2, 0.9]]);

        let mut g1 = Graph::new();
        let x = g1.input(x0.clone());
        let wp = g1.param(&store1, w1);
        let bp = g1.param(&store1, b1);
        let y = g1.matmul(x, wp);
        let z = g1.add_row(y, bp);
        let t = g1.input(Tensor::zeros(2, 2));
        let loss = g1.mse(z, t);
        g1.backward(loss);
        g1.accumulate_param_grads(&mut store1);

        let mut g2 = Graph::new();
        let x = g2.input(x0);
        let wp = g2.param(&store2, w1);
        let bp = g2.param(&store2, b1);
        let z = g2.affine(x, wp, bp);
        let t = g2.input(Tensor::zeros(2, 2));
        let loss = g2.mse(z, t);
        g2.backward(loss);
        g2.accumulate_param_grads(&mut store2);

        assert_eq!(store1.param_mut(w1).grad, store2.param_mut(w1).grad);
        assert_eq!(store1.param_mut(b1).grad, store2.param_mut(b1).grad);
    }

    #[test]
    fn reset_reuse_is_bitwise_identical_to_fresh_graph() {
        let mut store = ParamStore::with_seed(7);
        let w = store.add_xavier(4, 4);
        let b = store.add_xavier(1, 4);
        let emb = store.add_xavier(5, 4);
        let run = |g: &mut Graph, store: &mut ParamStore| -> (Tensor, Tensor) {
            let x = g.embed(store, emb, &[1, 3, 1]);
            let wp = g.param(store, w);
            let bp = g.param(store, b);
            let h = g.affine(x, wp, bp);
            let h = g.tanh(h);
            let pooled = g.mean_rows(h);
            let loss = g.mean_all(pooled);
            g.backward(loss);
            store.zero_grads();
            g.accumulate_param_grads(store);
            (g.value(loss).clone(), store.param_mut(emb).grad.clone())
        };

        // Warm an arena graph with a different-shaped pass first.
        let mut arena = Graph::new();
        let x = arena.input(Tensor::full(7, 2, 0.25));
        let l = arena.mean_all(x);
        arena.backward(l);
        arena.reset();
        let (loss_arena, grad_arena) = run(&mut arena, &mut store);

        let mut fresh = Graph::new();
        let (loss_fresh, grad_fresh) = run(&mut fresh, &mut store);

        assert_eq!(loss_arena, loss_fresh);
        assert_eq!(grad_arena, grad_fresh);
        arena.reset();
        assert!(arena.is_empty());
        assert!(arena.pool_len() > 0, "reset must harvest buffers");
    }

    #[test]
    fn steady_state_pool_size_is_stable() {
        // After one warm pass, repeated identical passes must not grow the
        // free-list: every allocation is served from (and returned to) it.
        let mut store = ParamStore::with_seed(9);
        let w = store.add_xavier(6, 6);
        let b = store.add_zeros(1, 6);
        let mut g = Graph::new();
        let pass = |g: &mut Graph, store: &mut ParamStore| {
            let mut xv = g.scratch(3, 6);
            xv.as_mut_slice().iter_mut().for_each(|v| *v = 0.1);
            let x = g.input(xv);
            let wp = g.param(store, w);
            let bp = g.param(store, b);
            let h = g.affine(x, wp, bp);
            let h = g.relu(h);
            let l = g.mean_all(h);
            g.backward(l);
            g.accumulate_param_grads(store);
            g.reset();
        };
        pass(&mut g, &mut store);
        pass(&mut g, &mut store);
        let warm = g.pool_len();
        for _ in 0..5 {
            pass(&mut g, &mut store);
            assert_eq!(g.pool_len(), warm, "steady state must not allocate");
        }
    }

    #[test]
    fn backward_through_linear() {
        // loss = mean((x·w − t)²); with scalars: x=3, w=2, t=5 → d/dw = 2(xw−t)x = 2·1·3 = 6
        let mut store = ParamStore::with_seed(0);
        let w = store.add(Tensor::from_vec(1, 1, vec![2.0]));
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(1, 1, vec![3.0]));
        let wp = g.param(&store, w);
        let y = g.matmul(x, wp);
        let t = g.input(Tensor::from_vec(1, 1, vec![5.0]));
        let loss = g.mse(y, t);
        assert!((g.value(loss).get(0, 0) - 1.0).abs() < 1e-6);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        assert!((store.param_mut(w).grad.get(0, 0) - 6.0).abs() < 1e-5);
    }

    #[test]
    fn param_leaves_are_deduped() {
        let mut store = ParamStore::with_seed(0);
        let w = store.add_xavier(2, 2);
        let mut g = Graph::new();
        let a = g.param(&store, w);
        let b = g.param(&store, w);
        assert_eq!(a, b);
    }

    #[test]
    fn embed_gathers_rows_and_scatters_grads() {
        let mut store = ParamStore::with_seed(0);
        let table = store.add(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]));
        let mut g = Graph::new();
        let e = g.embed(&store, table, &[2, 0, 2]);
        assert_eq!(
            g.value(e),
            &Tensor::from_rows(&[&[2.0, 2.0], &[1.0, 0.0], &[2.0, 2.0]])
        );
        let pooled = g.mean_all(e);
        g.backward(pooled);
        g.accumulate_param_grads(&mut store);
        let grad = &store.param_mut(table).grad;
        // Each element's grad is 1/6; row 2 used twice → 2/6 per element.
        assert!((grad.get(2, 0) - 2.0 / 6.0).abs() < 1e-6);
        assert!((grad.get(0, 1) - 1.0 / 6.0).abs() < 1e-6);
        assert_eq!(grad.get(1, 0), 0.0);
    }

    #[test]
    fn relu_blocks_negative_gradient() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[-1.0, 2.0]]));
        let y = g.relu(x);
        assert_eq!(g.value(y), &Tensor::from_rows(&[&[0.0, 2.0]]));
        let l = g.mean_all(y);
        g.backward(l);
        let gx = g.grad(x);
        assert_eq!(gx.get(0, 0), 0.0);
        assert!((gx.get(0, 1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn concat_and_slice_are_inverse() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_rows(&[&[1.0, 2.0]]));
        let b = g.input(Tensor::from_rows(&[&[3.0]]));
        let cat = g.concat_cols(&[a, b]);
        let back = g.slice_cols(cat, 0, 2);
        assert_eq!(g.value(back), &Tensor::from_rows(&[&[1.0, 2.0]]));
        let tail = g.slice_cols(cat, 2, 1);
        assert_eq!(g.value(tail), &Tensor::from_rows(&[&[3.0]]));
    }

    #[test]
    fn conv3x1_identity_kernel_preserves_input() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        // kernel [0, 1, 0] = identity
        let w = g.input(Tensor::from_rows(&[&[0.0], &[1.0], &[0.0]]));
        let b = g.input(Tensor::zeros(1, 1));
        let y = g.conv3x1(x, w, b);
        assert_eq!(g.value(y), &Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]));
    }

    #[test]
    fn conv3x1_shift_kernel_uses_zero_padding() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        // kernel [1, 0, 0] picks x[i−1]: first output row sees the zero pad.
        let w = g.input(Tensor::from_rows(&[&[1.0], &[0.0], &[0.0]]));
        let b = g.input(Tensor::zeros(1, 1));
        let y = g.conv3x1(x, w, b);
        assert_eq!(g.value(y), &Tensor::from_rows(&[&[0.0], &[1.0], &[2.0]]));
    }

    #[test]
    fn norm_rows_standardizes_columns() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0], &[3.0]]));
        let gamma = g.input(Tensor::from_rows(&[&[1.0]]));
        let beta = g.input(Tensor::from_rows(&[&[0.0]]));
        let y = g.norm_rows(x, gamma, beta);
        // mean 2, std 1 → normalized to ±1 (up to eps)
        assert!((g.value(y).get(0, 0) + 1.0).abs() < 1e-2);
        assert!((g.value(y).get(1, 0) - 1.0).abs() < 1e-2);
    }

    #[test]
    fn mean_rows_pools_columns() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0, 10.0], &[3.0, 30.0]]));
        let y = g.mean_rows(x);
        assert_eq!(g.value(y), &Tensor::from_rows(&[&[2.0, 20.0]]));
    }

    #[test]
    #[should_panic(expected = "backward seed must be a scalar loss")]
    fn backward_rejects_non_scalar_seed() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(2, 2));
        g.backward(x);
    }
}
