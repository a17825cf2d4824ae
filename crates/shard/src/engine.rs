//! The sharded traversal engine: owner-computes BSP over N modeled devices.
//!
//! [`ShardEngine`] implements the [`Expander`] contract, so every
//! application runs on a sharded deployment unmodified. Each kernel launch
//! is one bulk-synchronous step: every shard expands exactly the work nodes
//! it owns (the union across shards is the serial work list, each node
//! expanded once), then shards that discovered nodes owned elsewhere send
//! the destination a dense frontier bitmap over its owned range, all-to-all,
//! over the modeled [`InterconnectConfig`].
//!
//! # Cost attribution
//!
//! Sharding never changes decode work: the per-step union of per-shard
//! expansions is exactly the serial schedule, so the simulator executes the
//! reference warp schedule and `RunStats::est_ms` (cycles, launches,
//! tallies, memory, push/pull counters) is **bitwise identical at any shard
//! count** — the aggregate device work, which partitioning redistributes
//! but does not alter. What sharding *adds* — the per-step barrier and the
//! boundary-bitmap exchange — is charged host-side into the separate
//! [`gcgt_simt::RunStats`] fields `sync_steps`, `boundary_nodes` and
//! `exchange_ms`, the same separation the out-of-core engine uses for
//! streamed transfer time. Results stay comparable, overheads stay
//! attributable.

use gcgt_core::kernels::Sink;
use gcgt_core::{DirectionMode, Expander, Frontier};
use gcgt_graph::{Csr, NodeId};
use gcgt_simt::{Device, DeviceConfig, InterconnectConfig, WarpSim};

use crate::plan::ShardPlan;

/// A sharded traversal engine: N modeled devices, each expanding its owned
/// slice of every frontier, exchanging boundary discoveries as frontier
/// bitmaps between steps. Implements [`Expander`], so all applications and
/// the session/serving layers run on it unmodified.
pub struct ShardEngine<'g> {
    graph: &'g Csr,
    plan: &'g ShardPlan,
    interconnect: InterconnectConfig,
    /// The engines behind the devices: one shared engine for the in-core
    /// kinds, one streaming engine per device (each with a private
    /// partition cache under the per-device budget) for out-of-core.
    shards: Vec<Box<dyn Expander + 'g>>,
}

impl<'g> ShardEngine<'g> {
    /// Places engines the caller built onto `plan`'s devices: one engine
    /// shared by every device (the in-core kinds), or one per device
    /// (streaming engines, each faulting the partitions its owned slice of
    /// the work list needs). `graph` is the uncompressed adjacency the
    /// boundary exchange is discovered from. The direction policy is the
    /// first engine's; pull composes with sharding by ownership of the
    /// **candidate scan**: a pull step's work list is the unvisited
    /// candidates, each scanned by its owning shard, with remote parents
    /// learned through the same bitmap exchange.
    ///
    /// # Panics
    /// Panics unless `shards` holds one engine or `plan.devices()` engines.
    pub fn new(
        graph: &'g Csr,
        plan: &'g ShardPlan,
        interconnect: InterconnectConfig,
        shards: Vec<Box<dyn Expander + 'g>>,
    ) -> Self {
        assert!(
            shards.len() == 1 || shards.len() == plan.devices(),
            "{} engines for {} devices",
            shards.len(),
            plan.devices()
        );
        Self {
            graph,
            plan,
            interconnect,
            shards,
        }
    }

    /// The device placement.
    pub fn plan(&self) -> &ShardPlan {
        self.plan
    }

    /// The device↔device link model.
    pub fn interconnect(&self) -> &InterconnectConfig {
        &self.interconnect
    }

    /// Charges one BSP step on `device`: the barrier, then the all-to-all
    /// boundary-bitmap exchange for this step's `work` list (frontier nodes
    /// in push mode, unvisited candidates in pull mode).
    fn charge_step(&self, device: &mut Device, work: &[NodeId]) {
        let d = self.plan.devices();
        if d <= 1 || work.is_empty() {
            return;
        }
        device.charge_sync_step();
        // A shard sends device j one bitmap iff it discovered any node j
        // owns; boundary_nodes counts the distinct remote discoveries.
        let mut pair_active = vec![false; d * d];
        let mut seen = vec![false; self.graph.num_nodes()];
        let mut boundary = 0u64;
        for &u in work {
            let i = self.plan.owner_of(u);
            for &v in self.graph.neighbors(u) {
                let j = self.plan.owner_of(v);
                if j != i {
                    pair_active[i * d + j] = true;
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        boundary += 1;
                    }
                }
            }
        }
        let mut bytes = 0usize;
        let mut messages = 0usize;
        for i in 0..d {
            for j in 0..d {
                if pair_active[i * d + j] {
                    messages += 1;
                    bytes += self.plan.bitmap_bytes(j);
                }
            }
        }
        let exchange_ms = self.interconnect.exchange_ms(bytes, messages);
        // An injected link fault wastes the whole all-to-all round: the
        // chaos gate re-charges the failed exchange (plus backoff) into
        // `exchange_ms` per failed attempt before the successful round is
        // charged below. No-op without an active fault plan.
        device.chaos_gate(gcgt_simt::chaos::FaultDomain::Exchange, exchange_ms);
        let obs_start = device.observer().is_some().then(|| device.modeled_ms());
        device.charge_exchange(exchange_ms, boundary);
        if let (Some(start_ms), Some(obs)) = (obs_start, device.observer()) {
            obs.exchange(&gcgt_simt::obs::ExchangeEvent {
                track: device.track(),
                start_ms,
                step: device.stats().sync_steps,
                bytes: bytes as u64,
                messages: messages as u64,
                boundary_nodes: boundary,
                exchange_ms,
            });
        }
    }
}

impl Expander for ShardEngine<'_> {
    fn num_nodes(&self) -> usize {
        self.shards[0].num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.shards[0].num_edges()
    }

    fn out_degree(&self, u: NodeId) -> usize {
        self.shards[0].out_degree(u)
    }

    fn direction(&self) -> DirectionMode {
        self.shards[0].direction()
    }

    fn device_config(&self) -> &DeviceConfig {
        self.shards[0].device_config()
    }

    fn footprint(&self) -> usize {
        self.shards[0].footprint()
    }

    fn structure_bytes(&self) -> usize {
        self.shards[0].structure_bytes()
    }

    fn prepare_frontier(&self, device: &mut Device, work: &[NodeId]) {
        // Residency first: with one engine per device, each faults the
        // partitions its owned slice of the work list needs, in shard order
        // (serial, hence deterministic). A single engine sees the whole
        // list: a no-op in-core, and bit-for-bit the serial streaming
        // engine for one streaming device.
        if let [engine] = self.shards.as_slice() {
            engine.prepare_frontier(device, work);
        } else {
            let mut owned: Vec<Vec<NodeId>> = vec![Vec::new(); self.shards.len()];
            for &u in work {
                owned[self.plan.owner_of(u)].push(u);
            }
            for (engine, nodes) in self.shards.iter().zip(&owned) {
                if !nodes.is_empty() {
                    engine.prepare_frontier(device, nodes);
                }
            }
        }
        // Then the BSP barrier and boundary exchange for this step.
        self.charge_step(device, work);
    }

    fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink) {
        self.shards[0].expand_chunk(warp, chunk, sink);
    }

    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        frontier: &Frontier,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64 {
        self.shards[0].pull_chunk(warp, chunk, frontier, out)
    }

    fn release_residency(&self, device: &mut Device) {
        for engine in &self.shards {
            engine.release_residency(device);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_cgr::{CgrConfig, CgrGraph};
    use gcgt_core::{bfs, GcgtEngine, Strategy};
    use gcgt_graph::gen::{web_graph, WebParams};

    fn fixture() -> (Csr, CgrGraph) {
        let g = web_graph(&WebParams::uk2002_like(400), 5).symmetrized();
        let cfg = Strategy::Full.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        (g, cgr)
    }

    fn device() -> DeviceConfig {
        DeviceConfig::titan_v_scaled(64 << 20)
    }

    /// One in-core GCGT engine shared by every device of `plan`.
    fn shard_gcgt<'g>(cgr: &'g CgrGraph, g: &'g Csr, plan: &'g ShardPlan) -> ShardEngine<'g> {
        let engine = GcgtEngine::new(cgr, device(), Strategy::Full).unwrap();
        ShardEngine::new(
            g,
            plan,
            InterconnectConfig::nvlink(),
            vec![Box::new(engine)],
        )
    }

    #[test]
    fn outputs_and_kernel_stats_bitwise_serial_at_any_device_count() {
        let (g, cgr) = fixture();
        let serial = GcgtEngine::new(&cgr, device(), Strategy::Full).unwrap();
        let want = bfs(&serial, 0);
        let want_stats = {
            let mut dev = serial.new_device();
            let _ = gcgt_core::bfs_in(&serial, &mut dev, 0);
            dev.stats()
        };
        for devices in [1, 2, 4, 8] {
            let plan = ShardPlan::build(&cgr, devices);
            let sharded = shard_gcgt(&cgr, &g, &plan);
            let got = bfs(&sharded, 0);
            assert_eq!(got.depth, want.depth, "{devices} devices");
            assert_eq!(got.reached, want.reached);
            let mut dev = sharded.new_device();
            let _ = gcgt_core::bfs_in(&sharded, &mut dev, 0);
            let stats = dev.stats();
            // Kernel-side numbers are bitwise the serial run's…
            assert_eq!(stats.est_ms.to_bits(), want_stats.est_ms.to_bits());
            assert_eq!(stats.cycles.to_bits(), want_stats.cycles.to_bits());
            assert_eq!(stats.launches, want_stats.launches);
            assert_eq!(stats.tally, want_stats.tally);
            assert_eq!(stats.mem, want_stats.mem);
            // …and the exchange lives in its own counters.
            if devices == 1 {
                assert_eq!(stats.exchange_ms, 0.0);
                assert_eq!(stats.sync_steps, 0);
                assert_eq!(stats.boundary_nodes, 0);
            } else {
                assert!(stats.exchange_ms > 0.0, "{devices} devices");
                assert!(stats.sync_steps > 0);
                assert!(stats.boundary_nodes > 0);
            }
        }
    }

    #[test]
    fn boundary_traffic_is_monotone_in_device_count() {
        let (g, cgr) = fixture();
        let boundary = |devices: usize| {
            let plan = ShardPlan::build(&cgr, devices);
            let e = shard_gcgt(&cgr, &g, &plan);
            let mut dev = e.new_device();
            let _ = gcgt_core::bfs_in(&e, &mut dev, 0);
            dev.stats().boundary_nodes
        };
        let (b1, b2, b4, b8) = (boundary(1), boundary(2), boundary(4), boundary(8));
        assert_eq!(b1, 0);
        assert!(b2 > 0);
        assert!(b2 <= b4 && b4 <= b8, "{b2} {b4} {b8}");
    }

    #[test]
    #[should_panic(expected = "2 engines for 4 devices")]
    fn engine_count_must_be_one_or_one_per_device() {
        let (g, cgr) = fixture();
        let plan = ShardPlan::build(&cgr, 4);
        let engines: Vec<Box<dyn Expander + '_>> = (0..2)
            .map(|_| {
                Box::new(GcgtEngine::new(&cgr, device(), Strategy::Full).unwrap())
                    as Box<dyn Expander + '_>
            })
            .collect();
        let _ = ShardEngine::new(&g, &plan, InterconnectConfig::nvlink(), engines);
    }
}
