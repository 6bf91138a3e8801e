//! Discrete-event simulation runtime underpinning the Jockey reproduction.
//!
//! This crate is deliberately free of any Jockey- or cluster-specific logic;
//! it provides the generic machinery every other crate in the workspace
//! builds on:
//!
//! - [`time`]: an integer millisecond simulation clock ([`SimTime`],
//!   [`SimDuration`]) that makes event ordering exact and reproducible.
//! - [`event`]: a deterministic future-event list ([`EventQueue`]) with
//!   FIFO tie-breaking at equal timestamps.
//! - [`mod@observe`]: run diagnostics — the [`SimObserver`] hook simulators
//!   report event dispatches, clock advances and RNG forks through, and
//!   the ring-buffer [`observe::RingJournal`] that retains the last `N`
//!   records for post-mortem inspection.
//! - [`rng`]: seed-stream derivation ([`SeedDeriver`]) so that every
//!   stochastic component of an experiment draws from an independent,
//!   reproducible random stream.
//! - [`dist`]: the sampling distributions used to model task runtimes,
//!   queueing delays, stragglers and failures (log-normal, exponential,
//!   Pareto, empirical, and combinators).
//! - [`stats`]: descriptive statistics (percentiles, coefficient of
//!   variation, ECDFs, online moments) used throughout the evaluation.
//! - [`series`]: time-series recording and the step-signal metrics the
//!   paper uses to compare progress indicators.
//! - [`table`]: a tiny TSV table writer and key-value store for emitting
//!   experiment results and persisting job profiles without a
//!   serialization dependency.
//!
//! # Examples
//!
//! ```
//! use jockey_simrt::event::EventQueue;
//! use jockey_simrt::time::{SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(5), "late");
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(1), "early");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(e, "early");
//! assert_eq!(t.as_millis(), 1_000);
//! ```

pub mod dist;
pub mod event;
pub mod observe;
pub mod rng;
pub mod series;
pub mod stats;
pub mod table;
pub mod time;

pub use event::EventQueue;
pub use observe::{SharedJournal, SimObserver};
pub use rng::SeedDeriver;
pub use time::{SimDuration, SimTime};
