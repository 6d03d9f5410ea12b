//! # sps-simcore
//!
//! A small, deterministic discrete-event simulation engine used by the
//! selective-preemption job-scheduling simulator.
//!
//! The engine provides:
//!
//! * [`SimTime`] — whole-second simulated time (job traces are
//!   second-granular),
//! * [`EventQueue`] — a priority queue of timestamped events with *stable*
//!   deterministic ordering: events fire in `(time, class, insertion order)`
//!   order, so two runs of the same simulation produce identical schedules,
//! * [`Engine`] / [`Simulation`] — a minimal driver loop that delivers
//!   events in batches (all events sharing an instant are handed over
//!   together, which is what schedulers want: decisions are made once per
//!   instant, after all completions/arrivals at that instant are known),
//! * [`Ticker`] — a helper for periodic activity such as the paper's
//!   once-a-minute preemption routine.
//!
//! The engine is intentionally free of any job-scheduling vocabulary; it is
//! reused unchanged by the unit tests of higher layers.

pub mod engine;
pub mod event;
pub mod queue;
pub mod rng;
pub mod ticker;
pub mod time;

pub use engine::{Engine, RunOutcome, Simulation, Watchdog};
pub use event::EventClass;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use ticker::{TickGrid, TickShadow, Ticker};
pub use time::{Secs, SimTime, DAY, HOUR, MINUTE};
