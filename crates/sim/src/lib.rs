//! # cb-sim — discrete-event performance simulator
//!
//! Reproduces the paper's evaluation (Figs. 3–4, Tables I–II) at full
//! scale — 120 GB datasets, 32 files, 960 jobs, up to 64 cores — by driving
//! the *identical* scheduling state machines as the real runtime
//! (`cloudburst_core::sched`) in virtual time over fair-shared links, with a
//! calibrated cost model standing in for the paper's OSU cluster + EC2/S3
//! testbed. See DESIGN.md §2 for the substitution argument.

#![deny(unsafe_code)]

pub mod calib;
pub mod experiments;
pub mod model;
pub mod params;
mod trace;

pub use model::{simulate, simulate_observed};
pub use params::{LinkSpec, PathSpec, SimCluster, SimParams};
