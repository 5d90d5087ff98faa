//! # cb-simnet — simulated time, networks, and randomness
//!
//! The substrate shared by both execution modes of the CloudBurst framework:
//!
//! * **Virtual time** ([`SimTime`], [`SimDur`]) and a deterministic
//!   discrete-event [`Engine`] for the performance simulator that
//!   regenerates the paper's evaluation at full (120 GB / 64-core) scale.
//! * A **fair-share link model** ([`FairShareLink`]) — the fluid max-min
//!   bandwidth-sharing abstraction used to model S3 frontends, storage
//!   nodes, and the WAN between the local cluster and the cloud.
//! * A **wall-clock throttle** ([`Throttle`]) so the *real* in-process
//!   runtime can present genuinely slow "remote" stores to its worker
//!   threads.
//! * Seeded randomness ([`DetRng`]).
//!
//! Nothing in this crate knows about Map-Reduce, jobs, or clusters; it is a
//! general-purpose DES toolkit kept deliberately small and fully tested.

#![deny(unsafe_code)]

pub mod engine;
pub mod event;
pub mod link;
pub mod rng;
pub mod throttle;
pub mod time;

pub use engine::{Ctx, Engine, World};
pub use event::EventQueue;
pub use link::{Completion, FairShareLink, FlowId};
pub use rng::DetRng;
pub use throttle::Throttle;
pub use time::{SimDur, SimTime};
