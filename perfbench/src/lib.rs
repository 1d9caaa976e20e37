//! End-to-end and per-layer benchmark of the SpotVerse simulator.
//!
//! Three workloads (see `README.md` beside this crate): a large Poisson
//! fleet, a contended capped fleet under chaos, and a strategy × regime
//! tournament. Untraced runs time ops through the public entry points;
//! traced runs record spans around the calls into each layer
//! ([`spans`], [`strategies::TimedStrategy`]) and split each op's wall
//! time among the layers.

pub mod checks;
pub mod spans;
pub mod strategies;
pub mod workloads;
