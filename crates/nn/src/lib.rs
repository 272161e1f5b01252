//! # av-nn — neural network substrate
//!
//! A from-scratch, dependency-light neural network stack: dense tensors, a
//! tape-based reverse-mode autograd graph, the layers the paper's models
//! need (fully-connected, embedding, LSTM, depthwise 3×1 convolution, batch
//! normalization), and the Adam optimizer.
//!
//! The paper trains two models on this substrate:
//! - the **Wide-Deep cost estimator** (Section IV): keyword embeddings,
//!   char-CNN string encoding, two-level LSTM plan encoding, ResNet blocks;
//! - the **DQN view selector** (Section V-B): a 16→64→16→1 MLP.
//!
//! Gradient correctness is property-tested against finite differences.
//!
//! ```
//! use av_nn::{Adam, Graph, Linear, ParamStore, Tensor};
//!
//! let mut store = ParamStore::with_seed(7);
//! let layer = Linear::new(&mut store, 4, 1);
//! let mut adam = Adam::new(0.05);
//!
//! // Learn y = 10 from a fixed input with a few gradient steps.
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let x = g.input(Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
//!     let y = layer.forward_with(&mut g, &store, x);
//!     let target = g.input(Tensor::from_rows(&[&[10.0]]));
//!     let loss = g.mse(y, target);
//!     g.backward(loss);
//!     g.accumulate_param_grads(&mut store);
//!     adam.step(&mut store);
//! }
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
//! let y = layer.forward_with(&mut g, &store, x);
//! assert!((g.value(y).get(0, 0) - 10.0).abs() < 0.1);
//! ```

// `deny` rather than `forbid`: the simd module alone opts back in with a
// scoped allow for its `core::arch` intrinsics, and CI pins the opt-out to
// exactly that file.
#![deny(unsafe_code)]

pub mod adam;
pub mod graph;
pub mod layers;
pub mod simd;
pub mod tensor;

pub use adam::Adam;
pub use graph::{Graph, NodeId};
pub use layers::{BatchNorm, Conv3x1, Embedding, Linear, Lstm};
pub use tensor::{ParamId, ParamStore, Tensor};
