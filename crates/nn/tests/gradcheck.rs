//! Finite-difference gradient checks for every autograd op.
//!
//! For a scalar loss L(x), the analytic gradient from `backward` must match
//! (L(x+h) − L(x−h)) / 2h elementwise. Each op is exercised inside a small
//! composite graph so chain-rule interactions are covered too.

use av_nn::{Graph, NodeId, ParamStore, Tensor};
use proptest::prelude::*;

/// Build-loss callback: given a graph and the perturbable input node, return
/// the scalar loss node.
type LossBuilder = dyn Fn(&mut Graph, NodeId) -> NodeId;

/// Check analytic vs numeric gradient of `loss(x)` at `x0`.
fn gradcheck(x0: Tensor, build: &LossBuilder) {
    let mut g = Graph::new();
    let x = g.input(x0.clone());
    let loss = build(&mut g, x);
    assert_eq!(g.value(loss).shape(), (1, 1), "loss must be scalar");
    g.backward(loss);
    let analytic = g.grad(x);

    let h = 1e-2f32;
    let (rows, cols) = x0.shape();
    for r in 0..rows {
        for c in 0..cols {
            let eval = |delta: f32| {
                let mut t = x0.clone();
                *t.get_mut(r, c) += delta;
                let mut g = Graph::new();
                let x = g.input(t);
                let loss = build(&mut g, x);
                g.value(loss).get(0, 0)
            };
            let numeric = (eval(h) - eval(-h)) / (2.0 * h);
            let a = analytic.get(r, c);
            let tol = 2e-2 * (1.0 + a.abs().max(numeric.abs()));
            assert!(
                (a - numeric).abs() <= tol,
                "grad mismatch at ({r},{c}): analytic {a}, numeric {numeric}"
            );
        }
    }
}

fn small_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_grad(x0 in small_tensor(2, 3), w in small_tensor(3, 2)) {
        gradcheck(x0, &move |g, x| {
            let w = g.input(w.clone());
            let y = g.matmul(x, w);
            g.mean_all(y)
        });
    }

    #[test]
    fn affine_grad(x0 in small_tensor(2, 3), w in small_tensor(3, 2), b in small_tensor(1, 2)) {
        gradcheck(x0, &move |g, x| {
            let w = g.input(w.clone());
            let b = g.input(b.clone());
            let y = g.affine(x, w, b);
            let t = g.tanh(y);
            g.mean_all(t)
        });
    }

    #[test]
    fn sigmoid_tanh_chain_grad(x0 in small_tensor(2, 2)) {
        gradcheck(x0, &|g, x| {
            let s = g.sigmoid(x);
            let t = g.tanh(s);
            g.mean_all(t)
        });
    }

    #[test]
    fn mul_sub_grad(x0 in small_tensor(2, 2), other in small_tensor(2, 2)) {
        gradcheck(x0, &move |g, x| {
            let o = g.input(other.clone());
            let m = g.mul(x, o);
            let d = g.sub(m, o);
            g.mean_all(d)
        });
    }

    #[test]
    fn add_row_grad(x0 in small_tensor(3, 2), row in small_tensor(1, 2)) {
        gradcheck(x0, &move |g, x| {
            let r = g.input(row.clone());
            let y = g.add_row(x, r);
            let t = g.tanh(y);
            g.mean_all(t)
        });
    }

    #[test]
    fn concat_slice_grad(x0 in small_tensor(2, 3)) {
        gradcheck(x0, &|g, x| {
            let left = g.slice_cols(x, 0, 2);
            let right = g.slice_cols(x, 1, 2);
            let cat = g.concat_cols(&[left, right]);
            let t = g.tanh(cat);
            g.mean_all(t)
        });
    }

    #[test]
    fn concat_rows_grad(x0 in small_tensor(2, 2), other in small_tensor(1, 2)) {
        gradcheck(x0, &move |g, x| {
            let o = g.input(other.clone());
            let cat = g.concat_rows(&[x, o]);
            let s = g.sigmoid(cat);
            g.mean_all(s)
        });
    }

    #[test]
    fn mean_rows_grad(x0 in small_tensor(4, 3)) {
        gradcheck(x0, &|g, x| {
            let p = g.mean_rows(x);
            let t = g.tanh(p);
            g.mean_all(t)
        });
    }

    #[test]
    fn conv3x1_grad_wrt_input(x0 in small_tensor(5, 2), w in small_tensor(3, 2), b in small_tensor(1, 2)) {
        gradcheck(x0, &move |g, x| {
            let w = g.input(w.clone());
            let b = g.input(b.clone());
            let y = g.conv3x1(x, w, b);
            let t = g.tanh(y);
            g.mean_all(t)
        });
    }

    #[test]
    fn conv3x1_grad_wrt_kernel(w0 in small_tensor(3, 2), x in small_tensor(5, 2), b in small_tensor(1, 2)) {
        gradcheck(w0, &move |g, w| {
            let x = g.input(x.clone());
            let b = g.input(b.clone());
            let y = g.conv3x1(x, w, b);
            let t = g.tanh(y);
            g.mean_all(t)
        });
    }

    #[test]
    fn norm_rows_grad(x0 in small_tensor(4, 2)) {
        // Keep inputs away from degenerate equal-column values where the
        // batchnorm gradient becomes numerically unstable in f32.
        prop_assume!({
            let mut ok = true;
            for c in 0..2 {
                let vals: Vec<f32> = (0..4).map(|r| x0.get(r, c)).collect();
                let mean = vals.iter().sum::<f32>() / 4.0;
                let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
                ok &= var > 0.05;
            }
            ok
        });
        gradcheck(x0, &|g, x| {
            let gamma = g.input(Tensor::from_rows(&[&[1.2, 0.8]]));
            let beta = g.input(Tensor::from_rows(&[&[0.1, -0.1]]));
            let y = g.norm_rows(x, gamma, beta);
            let t = g.tanh(y);
            g.mean_all(t)
        });
    }

    #[test]
    fn relu_grad_away_from_kink(x0 in small_tensor(2, 3)) {
        // Finite differences are invalid exactly at 0; nudge values away.
        let mut t = x0.clone();
        for v in t.as_mut_slice() {
            if v.abs() < 0.05 {
                *v += 0.1;
            }
        }
        gradcheck(t, &|g, x| {
            let y = g.relu(x);
            g.mean_all(y)
        });
    }
}

#[test]
fn lstm_gradcheck_through_params() {
    // Check LSTM end-to-end: gradient w.r.t. the input-to-hidden weights
    // matches finite differences.
    let mut store = ParamStore::with_seed(11);
    let lstm = av_nn::Lstm::new(&mut store, 2, 3);
    let seq = [
        Tensor::from_rows(&[&[0.3, -0.2]]),
        Tensor::from_rows(&[&[-0.5, 0.8]]),
    ];

    // Analytic gradient.
    let mut g = Graph::new();
    let steps: Vec<NodeId> = seq.iter().map(|t| g.input(t.clone())).collect();
    let h = lstm.forward_with(&mut g, &store, &steps);
    let loss = g.mean_all(h);
    g.backward(loss);
    g.accumulate_param_grads(&mut store);
    let analytic = store.param_mut(lstm.wx).grad.clone();

    let h_step = 5e-3f32;
    for probe in [(0usize, 0usize), (1, 3), (0, 7)] {
        let (r, c) = probe;
        let base = store.value(lstm.wx).get(r, c);
        let mut eval = |v: f32| {
            store.param_mut(lstm.wx).value.set(r, c, v);
            let mut g = Graph::new();
            let steps: Vec<NodeId> = seq.iter().map(|t| g.input(t.clone())).collect();
            let h = lstm.forward_with(&mut g, &store, &steps);
            let l = g.mean_all(h);
            g.value(l).get(0, 0)
        };
        let up = eval(base + h_step);
        let down = eval(base - h_step);
        store.param_mut(lstm.wx).value.set(r, c, base);
        let numeric = (up - down) / (2.0 * h_step);
        let a = analytic.get(r, c);
        assert!(
            (a - numeric).abs() <= 2e-2 * (1.0 + a.abs().max(numeric.abs())),
            "LSTM wx grad mismatch at {probe:?}: analytic {a}, numeric {numeric}"
        );
    }
}

#[test]
fn embedding_gradcheck() {
    let mut store = ParamStore::with_seed(5);
    let emb = av_nn::Embedding::new(&mut store, 6, 3);
    let indices = [1usize, 4, 1];

    let mut g = Graph::new();
    let e = emb.forward_with(&mut g, &store, &indices);
    let t = g.tanh(e);
    let loss = g.mean_all(t);
    g.backward(loss);
    g.accumulate_param_grads(&mut store);
    let analytic = store.param_mut(emb.table).grad.clone();

    let h = 5e-3f32;
    for (r, c) in [(1usize, 0usize), (4, 2), (0, 0)] {
        let base = store.value(emb.table).get(r, c);
        let mut eval = |v: f32| {
            store.param_mut(emb.table).value.set(r, c, v);
            let mut g = Graph::new();
            let e = emb.forward_with(&mut g, &store, &indices);
            let t = g.tanh(e);
            let l = g.mean_all(t);
            g.value(l).get(0, 0)
        };
        let numeric = (eval(base + h) - eval(base - h)) / (2.0 * h);
        store.param_mut(emb.table).value.set(r, c, base);
        let a = analytic.get(r, c);
        assert!(
            (a - numeric).abs() <= 2e-2 * (1.0 + a.abs()),
            "embedding grad mismatch at ({r},{c}): analytic {a}, numeric {numeric}"
        );
    }
}
