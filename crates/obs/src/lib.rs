//! # obs — deterministic, sim-time-keyed observability
//!
//! The paper's evidence is timing: round-trip jitter under proactive
//! recovery and the fail-over breakdown (fault detection → notification →
//! reconnection → first successful reply) for each migration scheme. This
//! crate turns every simulated run into an attributable latency story:
//!
//! * [`Phase`] — typed recovery phases, the vocabulary shared by the
//!   simnet kernel, both MEAD interceptors, the Recovery Manager and the
//!   ORB retry path;
//! * [`Recorder`] — the in-memory, ordered trace of [`TraceEvent`]s
//!   (run metrics live in `simnet::Metrics`);
//! * [`jsonl`] — a hand-rolled (dependency-free) JSON-lines sink;
//! * [`breakdown`] — reconstruction of the paper's per-scheme fail-over
//!   stage table from a trace;
//! * [`WireCodec`]/[`CodecError`] — the one encode/decode contract shared
//!   by `mead::messages` and groupcomm framing, so frames can be logged
//!   generically.
//!
//! Every timestamp is simulated nanoseconds ([`TraceEvent::at_ns`]); the
//! crate never consults a wall clock, so traces are bit-identical across
//! host thread counts and fresh processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
mod codec;
mod event;
pub mod jsonl;
mod phase;
mod record;

pub use breakdown::{episodes, stage_table, Episode, StageStats, STAGE_NAMES};
pub use codec::{CodecError, WireCodec};
pub use event::{EventKind, TraceEvent};
pub use phase::Phase;
pub use record::{Recorder, TraceLevel};
