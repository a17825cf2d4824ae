//! # gcgt-shard
//!
//! Sharded multi-device traversal over compressed graphs: the second
//! scaling axis of the reproduction. A [`ShardPlan`] places contiguous,
//! node-aligned slices of the graph onto N modeled GPUs (reusing the
//! out-of-core partitioner for the compressed cut); a [`ShardEngine`]
//! wraps any engine the caller built — in-core GCGT, the CSR baselines
//! (one engine shared by every device), or streaming out-of-core (one
//! engine per device, each under a per-device budget) — into an
//! owner-computes bulk-synchronous loop. Every step, each shard expands exactly the
//! frontier nodes it owns; discoveries of remotely-owned nodes are
//! exchanged as per-destination dense frontier bitmaps over a modeled
//! [`gcgt_simt::InterconnectConfig`] (NVLink or PCIe peer links).
//!
//! The engine implements the `Expander` contract, so all five applications,
//! the session layer and the serving pools run sharded unmodified — and
//! because the per-step union of per-shard work is exactly the serial
//! schedule, `QueryOutput`s and kernel-side `RunStats` are **bitwise
//! identical at any shard count**; the sharding overhead is charged into
//! the separate `exchange_ms` / `boundary_nodes` / `sync_steps` counters.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod engine;
pub mod plan;

pub use engine::ShardEngine;
pub use plan::{Shard, ShardPlan};
