//! `finsql-serve`: the network serving layer of the FinSQL reproduction.
//!
//! Three pieces, each usable on its own:
//!
//! * [`wire`] — the length-prefixed binary frame protocol and an
//!   incremental decoder tolerant of arbitrarily torn TCP reads.
//! * [`server`] — the `finsqld` driver: a non-blocking readiness loop
//!   over `std::net` sockets with per-request admission control, feeding
//!   the existing [`finsql_core::batch::BatchScheduler`]: cache hits are
//!   answered at submit in the same round, misses are batched with
//!   whatever else is queued, and every served answer is byte-identical
//!   to the library path.
//! * [`client`] — a small blocking client used by the tests, the bench
//!   harness and anyone scripting against a running `finsqld`.
//!
//! The `finsqld` binary (`src/bin/finsqld.rs`) wraps [`server`] with CLI
//! flag parsing and engine construction.

pub mod client;
pub mod server;
pub mod wire;

pub use client::BlockingClient;
pub use server::{ServeConfig, ServeHandle, ServeReport, Server};
pub use wire::{Frame, FrameDecoder, Kind, Status, WireError};
