//! # facs-bench — experiment harness shared code
//!
//! The [`experiments`] module maps every figure and
//! table of the paper onto a runnable experiment; the `experiments` binary
//! is a thin wrapper over it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod validate;

pub use experiments::*;
pub use validate::*;
