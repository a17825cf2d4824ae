//! The expansion engine abstraction and the GCGT engine.
//!
//! Apps (BFS/CC/BC/PageRank) run on any `&dyn` [`Expander`]: something that
//! can expand a warp-sized chunk of frontier nodes into `(u, v)` pairs on
//! the simulated device. [`GcgtEngine`] expands compressed adjacency
//! (the paper's contribution); the `gcgt-baselines` crate provides CSR-based
//! expanders (GPUCSR, Gunrock-style) over the *same* apps and cost model, so
//! the comparison isolates exactly the decoding overhead the paper studies.

use gcgt_cgr::CgrGraph;
use gcgt_graph::NodeId;
use gcgt_simt::{parallel_warps, Device, DeviceConfig, IterationCost, OomError, OpClass, WarpSim};

use crate::frontier::Frontier;
use crate::kernels::{expand_warp, CollectSink, Sink};
use crate::memory;
use crate::strategy::{DirectionMode, Strategy};

/// A device-resident graph structure that can expand frontier chunks.
///
/// The trait is object-safe — sinks arrive as `&mut dyn Sink` — so the
/// session layer selects an engine at runtime as a `Box<dyn Expander>`, and
/// the sharded engine holds its per-device engines the same way.
///
/// `Send + Sync` is part of the contract: engines are shared across host
/// warp threads within a launch (`Sync`) and handed to pool workers by the
/// concurrent serving layer (`Send`). Engines hold plain data or interior
/// mutability behind locks, so the bounds cost implementors nothing.
pub trait Expander: Send + Sync {
    /// Node count of the resident graph.
    fn num_nodes(&self) -> usize;

    /// Edge count of the resident graph — the denominator of the adaptive
    /// push/pull density heuristic.
    fn num_edges(&self) -> usize;

    /// Out-degree of node `u`, decoded without materializing neighbours —
    /// the per-level frontier-density sum of the adaptive heuristic. Host-
    /// side bookkeeping: charges nothing on the simulated device (like
    /// Ligra's threshold computation).
    fn out_degree(&self, u: NodeId) -> usize;

    /// The expansion-direction policy direction-aware apps (BFS) follow.
    /// Defaults to push-only — exactly the pre-direction-optimization
    /// behaviour, bitwise. Pull/adaptive engines must only be constructed
    /// over symmetric adjacency (the session layer verifies this).
    fn direction(&self) -> DirectionMode {
        DirectionMode::Push
    }

    /// The simulated device's configuration.
    fn device_config(&self) -> &DeviceConfig;

    /// Peak resident bytes (graph structure **plus** per-query traversal
    /// scratch) for OOM accounting — what a capacity check must admit.
    fn footprint(&self) -> usize;

    /// The query-invariant part of [`Expander::footprint`]: the uploaded
    /// graph structure that stays resident for the engine's whole life.
    /// The default (everything) suits engines with no per-query scratch.
    fn structure_bytes(&self) -> usize {
        self.footprint()
    }

    /// Per-query scratch (frontier queues, output buffers, label arrays):
    /// apps allocate this on entry and free it on exit, so
    /// [`gcgt_simt::Device::allocated`] returns to the post-upload baseline
    /// between batched queries.
    fn scratch_bytes(&self) -> usize {
        self.footprint() - self.structure_bytes()
    }

    /// Hook called once per kernel launch, before any warp expands, with the
    /// whole frontier. In-core engines ignore it (default no-op);
    /// out-of-core engines fault the frontier's partitions onto the device
    /// here, charging allocations and streamed-transfer time on `device`.
    /// Running it serially (not per warp) keeps residency and its statistics
    /// deterministic.
    fn prepare_frontier(&self, device: &mut Device, frontier: &[NodeId]) {
        let _ = (device, frontier);
    }

    /// Expands one warp's chunk of frontier nodes, feeding `sink`.
    fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink);

    /// Pull-mode expansion of one warp's chunk of **unvisited candidates**:
    /// for each candidate, find its first neighbour in `frontier` and push
    /// `(parent, candidate)` onto `out`. Returns the number of neighbours
    /// examined (the `RunStats::pulled_edges` contribution).
    ///
    /// The default is a correct-everywhere fallback: expand the candidates'
    /// full adjacency through the push machinery and select each
    /// candidate's first frontier parent in emission order — no early-exit
    /// saving. Engines with a native streaming decode (GCGT, the CSR
    /// baselines) override it with a real early-exit scan.
    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        frontier: &Frontier,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64 {
        let mut sink = CollectSink::default();
        self.expand_chunk(warp, chunk, &mut sink);
        // Membership probes over the dense frontier bitmap, one Handle
        // step per warp-width batch of candidates.
        for batch in sink.pairs.chunks(warp.width().max(1)) {
            warp.issue_mem(
                OpClass::Handle,
                batch.len(),
                batch.iter().map(|&(_, v)| Frontier::bitmap_addr(v)),
            );
        }
        let examined = sink.pairs.len() as u64;
        let mut taken = vec![false; chunk.len()];
        for &(u, v) in &sink.pairs {
            if frontier.contains(v) {
                let idx = chunk
                    .iter()
                    .position(|&c| c == u)
                    .expect("expanded pair outside the chunk");
                if !taken[idx] {
                    taken[idx] = true;
                    out.push((v, u));
                }
            }
        }
        examined
    }

    /// Releases whatever query-spanning residency this engine still holds
    /// on `device` — called by serving workers when a query ends, so the
    /// device returns to its post-upload baseline and the next query starts
    /// from a known state. In-core engines hold nothing beyond the uploaded
    /// structure (default no-op); the out-of-core engine frees its resident
    /// partitions here.
    fn release_residency(&self, device: &mut Device) {
        let _ = device;
    }

    /// Creates a per-run device with the graph structure resident (apps add
    /// and remove their scratch around each query).
    ///
    /// # Panics
    /// Panics if the structure exceeds capacity — engines are expected to
    /// verify capacity at construction.
    fn new_device(&self) -> Device {
        let mut device = self.device_config().new_device();
        device
            .alloc(self.structure_bytes())
            .expect("device capacity must be verified at engine construction");
        device
    }
}

/// Launches one expansion kernel over `frontier`: chunks it into warps, runs
/// them host-parallel (deterministically merged in warp order), accounts the
/// launch on `device`, and returns the per-warp sinks for the contraction
/// merge.
pub fn launch_expansion<S, F>(
    expander: &dyn Expander,
    device: &mut Device,
    frontier: &[NodeId],
    make_sink: F,
) -> Vec<S>
where
    S: Sink + Send,
    F: Fn() -> S + Sync,
{
    // Observer bookkeeping costs nothing when disabled: the span start and
    // the frontier out-degree sum are computed only with an observer
    // installed, and never feed back into any accounted number.
    let obs_start = device.observer().is_some().then(|| device.modeled_ms());
    // Residency first: out-of-core engines fault the frontier's partitions
    // onto the device before any warp decodes (serial, hence deterministic).
    expander.prepare_frontier(device, frontier);
    let width = expander.device_config().warp_width;
    let cache_lines = expander.device_config().cache_lines_per_warp;
    // Decode-cost model: devices carrying the VLC decode tables charge
    // decode steps as one table probe (OpClass::TableDecode) instead of a
    // serial bit-scan — same schedule, cheaper slots. No-op for kernels
    // that never decode (the CSR baselines).
    let table_decode = expander.device_config().table_decode;
    let chunks: Vec<&[NodeId]> = frontier.chunks(width).collect();
    let results = parallel_warps(chunks.len(), |w| {
        let mut warp = WarpSim::new(width, cache_lines).with_table_decode(table_decode);
        let mut sink = make_sink();
        expander.expand_chunk(&mut warp, chunks[w], &mut sink);
        (warp.into_counters(), sink)
    });

    let mut cost = IterationCost {
        warps: chunks.len(),
        ..Default::default()
    };
    let mut sinks = Vec::with_capacity(results.len());
    let device_config = expander.device_config();
    for ((tally, mem), sink) in results {
        let critical = device_config.warp_critical_cycles(&tally, &mem);
        cost.max_warp_cycles = cost.max_warp_cycles.max(critical);
        cost.tally.merge(&tally);
        cost.mem.merge(&mem);
        sinks.push(sink);
    }
    device.account_launch(&cost);
    if let (Some(start_ms), Some(obs)) = (obs_start, device.observer()) {
        let edges = frontier
            .iter()
            .map(|&u| expander.out_degree(u) as u64)
            .sum();
        obs.level(&gcgt_simt::obs::LevelEvent {
            track: device.track(),
            start_ms,
            end_ms: device.modeled_ms(),
            direction: "push",
            work_items: frontier.len() as u64,
            edges,
            classes: device_config.class_breakdown(&cost.tally),
        });
    }
    sinks
}

/// Launches one pull-mode kernel over the unvisited `candidates`: chunks
/// them into warps, scans each candidate's compressed adjacency for a
/// frontier parent (early exit), merges discoveries in warp order and
/// accounts the launch on `device`. Returns the `(parent, candidate)`
/// discoveries plus the total neighbours examined.
///
/// Out-of-core composition falls out of the shared
/// [`Expander::prepare_frontier`] hook: a pull level faults the partitions
/// holding the **candidates'** adjacency (not the frontier's), which is
/// most of the structure on early dense levels — the residency tradeoff the
/// adaptive heuristic's push levels avoid.
pub fn launch_pull(
    expander: &dyn Expander,
    device: &mut Device,
    candidates: &[NodeId],
    frontier: &Frontier,
) -> (Vec<(NodeId, NodeId)>, u64) {
    let obs_start = device.observer().is_some().then(|| device.modeled_ms());
    expander.prepare_frontier(device, candidates);
    let width = expander.device_config().warp_width;
    let cache_lines = expander.device_config().cache_lines_per_warp;
    let table_decode = expander.device_config().table_decode;
    let chunks: Vec<&[NodeId]> = candidates.chunks(width).collect();
    let results = parallel_warps(chunks.len(), |w| {
        let mut warp = WarpSim::new(width, cache_lines).with_table_decode(table_decode);
        let mut out = Vec::new();
        let examined = expander.pull_chunk(&mut warp, chunks[w], frontier, &mut out);
        (warp.into_counters(), (out, examined))
    });

    let mut cost = IterationCost {
        warps: chunks.len(),
        ..Default::default()
    };
    let mut pairs = Vec::new();
    let mut examined = 0u64;
    let device_config = expander.device_config();
    for ((tally, mem), (out, seen)) in results {
        let critical = device_config.warp_critical_cycles(&tally, &mem);
        cost.max_warp_cycles = cost.max_warp_cycles.max(critical);
        cost.tally.merge(&tally);
        cost.mem.merge(&mem);
        pairs.extend(out);
        examined += seen;
    }
    device.account_launch(&cost);
    if let (Some(start_ms), Some(obs)) = (obs_start, device.observer()) {
        obs.level(&gcgt_simt::obs::LevelEvent {
            track: device.track(),
            start_ms,
            end_ms: device.modeled_ms(),
            direction: "pull",
            work_items: candidates.len() as u64,
            edges: examined,
            classes: device_config.class_breakdown(&cost.tally),
        });
    }
    (pairs, examined)
}

/// A GCGT traversal engine bound to one compressed graph.
pub struct GcgtEngine<'g> {
    cgr: &'g CgrGraph,
    device_config: DeviceConfig,
    strategy: Strategy,
    direction: DirectionMode,
}

impl<'g> GcgtEngine<'g> {
    /// Binds an engine to `cgr`. Fails if the graph plus traversal buffers
    /// exceed the device's memory capacity, or if the CGR layout does not
    /// match the strategy (segmented ↔ `Strategy::Full`).
    pub fn new(
        cgr: &'g CgrGraph,
        device_config: DeviceConfig,
        strategy: Strategy,
    ) -> Result<Self, OomError> {
        assert_eq!(
            cgr.config().segment_len_bytes.is_some(),
            strategy.needs_segmented_layout(),
            "CGR layout does not match strategy {strategy:?}: re-encode with \
             strategy.cgr_config(..)"
        );
        let mut probe = Device::new(device_config);
        probe.alloc(memory::gcgt_footprint(cgr))?;
        Ok(Self {
            cgr,
            device_config,
            strategy,
            direction: DirectionMode::Push,
        })
    }

    /// Sets the expansion-direction policy (defaults to
    /// [`DirectionMode::Push`], the pre-direction-optimization behaviour).
    ///
    /// Pull semantics require the encoded adjacency to be symmetric —
    /// construct over a symmetrized graph (the session layer checks this;
    /// direct engine users own the invariant).
    #[must_use]
    pub fn with_direction(mut self, direction: DirectionMode) -> Self {
        self.direction = direction;
        self
    }

    /// The compressed graph.
    pub fn cgr(&self) -> &CgrGraph {
        self.cgr
    }

    /// The strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }
}

impl Expander for GcgtEngine<'_> {
    fn num_nodes(&self) -> usize {
        self.cgr.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.cgr.num_edges()
    }

    fn out_degree(&self, u: NodeId) -> usize {
        gcgt_cgr::decode::decode_degree(self.cgr, u)
    }

    fn direction(&self) -> DirectionMode {
        self.direction
    }

    fn device_config(&self) -> &DeviceConfig {
        &self.device_config
    }

    fn footprint(&self) -> usize {
        memory::gcgt_footprint(self.cgr)
    }

    fn structure_bytes(&self) -> usize {
        memory::gcgt_structure_bytes(self.cgr)
    }

    fn expand_chunk(&self, warp: &mut WarpSim, chunk: &[NodeId], sink: &mut dyn Sink) {
        expand_warp(self.strategy, warp, self.cgr, chunk, sink);
    }

    fn pull_chunk(
        &self,
        warp: &mut WarpSim,
        chunk: &[NodeId],
        frontier: &Frontier,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> u64 {
        crate::kernels::pull::pull_expand(warp, self.cgr, chunk, frontier, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::CollectSink;
    use gcgt_cgr::CgrConfig;
    use gcgt_graph::gen::toys;

    fn tiny_cfg() -> DeviceConfig {
        DeviceConfig::test_tiny()
    }

    #[test]
    fn layout_mismatch_panics() {
        let g = toys::figure1();
        let cgr = CgrGraph::encode(&g, &CgrConfig::paper_default()); // segmented
        let result = std::panic::catch_unwind(|| {
            let _ = GcgtEngine::new(&cgr, tiny_cfg(), Strategy::Intuitive);
        });
        assert!(result.is_err());
    }

    #[test]
    fn oom_when_graph_too_big() {
        let g = toys::figure1();
        let cfg = Strategy::TwoPhase.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let mut dc = tiny_cfg();
        dc.mem_capacity = 8; // absurdly small
        assert!(GcgtEngine::new(&cgr, dc, Strategy::TwoPhase).is_err());
    }

    #[test]
    fn launch_merges_sinks_in_warp_order() {
        let g = toys::figure1();
        let cfg = Strategy::TwoPhase.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let engine = GcgtEngine::new(&cgr, tiny_cfg(), Strategy::TwoPhase).unwrap();
        let mut device = engine.new_device();
        let frontier: Vec<NodeId> = (0..8).collect();
        let sinks = launch_expansion(&engine, &mut device, &frontier, CollectSink::default);
        assert_eq!(sinks.len(), 1); // 8 nodes, warp width 8
        let pairs: Vec<_> = sinks.into_iter().flat_map(|s| s.pairs).collect();
        assert_eq!(pairs.len(), g.num_edges());
        let stats = device.stats();
        assert_eq!(stats.launches, 1);
        assert!(stats.est_ms > 0.0);
    }

    #[test]
    fn stats_are_deterministic_across_runs() {
        let g = gcgt_graph::gen::web_graph(&gcgt_graph::gen::WebParams::uk2002_like(500), 3);
        let cfg = Strategy::TaskStealing.cgr_config(&CgrConfig::paper_default());
        let cgr = CgrGraph::encode(&g, &cfg);
        let engine =
            GcgtEngine::new(&cgr, DeviceConfig::default(), Strategy::TaskStealing).unwrap();
        let frontier: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
        let run = || {
            let mut device = engine.new_device();
            launch_expansion(&engine, &mut device, &frontier, CollectSink::default);
            let s = device.stats();
            (s.cycles.to_bits(), s.tally, s.mem)
        };
        assert_eq!(run(), run());
    }
}
