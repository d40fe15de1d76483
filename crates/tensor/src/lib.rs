//! # cit-tensor
//!
//! Dense `f32` tensors and a define-by-run reverse-mode autodiff engine —
//! the numerical substrate of the Cross-Insight Trader reproduction.
//!
//! The design mirrors eager PyTorch at miniature scale: a [`Graph`] is an
//! append-only arena of operation nodes rebuilt on every forward pass, and
//! [`Graph::backward`] performs a single reverse sweep producing [`Grads`].
//! The operation set is intentionally small but covers everything the
//! paper's networks need: dense algebra, causal dilated convolution (TCN),
//! the ASTGCN-style spatial-attention contractions, softmax heads, and the
//! scalar reductions used for losses.
//!
//! ```
//! use cit_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let w = g.param_leaf(Tensor::vector(&[2.0, -1.0]));
//! let x = g.input(Tensor::vector(&[3.0, 4.0]));
//! let y = g.mul(w, x);
//! let loss = g.sum_all(y); // 2·3 + (−1)·4 = 2
//! assert_eq!(g.value(loss).item(), 2.0);
//! let grads = g.backward(loss);
//! assert_eq!(grads.wrt(w).unwrap().data(), &[3.0, 4.0]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod backward;
pub mod gradcheck;
mod graph;
pub mod kernels;
pub mod rand_util;
mod tensor;

pub use backward::Grads;
pub use graph::{softmax_last_tensor, Graph, GraphPool, Var};
pub use kernels::{MatmulLayout, TilingScheme};
pub use tensor::Tensor;
