//! # gcgt-session
//!
//! The unified traversal API of the workspace: a [`Session`] owns the whole
//! pipeline the paper describes — preprocessing (symmetrization, node
//! reordering), CGR encoding, device-capacity checking and engine
//! construction — behind one typed builder, and every application runs on it
//! uniformly through the [`Algorithm`] trait:
//!
//! ```
//! use gcgt_graph::gen::{web_graph, WebParams};
//! use gcgt_graph::order::LlpConfig;
//! use gcgt_graph::Reordering;
//! use gcgt_session::{Bfs, EngineKind, Session};
//! use gcgt_core::Strategy;
//! use gcgt_simt::DeviceConfig;
//!
//! let graph = web_graph(&WebParams::uk2002_like(2_000), 42);
//! let session = Session::builder()
//!     .graph(graph)
//!     .reorder(Reordering::Llp(LlpConfig::default()))
//!     .device(DeviceConfig::titan_v_scaled(64 << 20))
//!     .engine(EngineKind::Gcgt(Strategy::Full))
//!     .build()
//!     .unwrap();
//! let run = session.run(Bfs::from(0));
//! assert_eq!(run.output.depth[0], 0);
//! ```
//!
//! Underneath, the session dispatches at runtime over the engines of the
//! workspace — the GCGT compressed engine at any [`Strategy`], and the
//! uncompressed `GPUCSR` / Gunrock-style baselines — as a `Box<dyn`
//! [`Expander`]`>`, so adding an engine variant touches one `match` in this
//! crate instead of every call site.
//!
//! A `Session` dereferences to its [`PreparedGraph`], so every accessor and
//! both run methods are called on the session directly.
//!
//! For serving-scale workloads, [`PreparedGraph::run_batch`] executes many
//! queries against **one device residency**: the graph is uploaded and
//! allocated once, every query accounts on the same simulated device, and
//! the [`BatchRun`] reports both per-query and aggregate statistics. This is
//! the multi-source BFS/BC batching workload (EMOGI-style serving) the
//! ROADMAP targets.
//!
//! ## Shared immutable graphs, per-worker execution
//!
//! Everything a builder computes — reordering, CGR encoding, footprints, the
//! streaming partition plan — lands in an immutable, `Send + Sync`
//! [`PreparedGraph`]. A `Session` is a thin single-worker wrapper around an
//! `Arc<PreparedGraph>`; concurrent consumers (the `gcgt-serve` worker pool)
//! share the same `Arc` and give each worker its own [`Executor`]: a
//! per-worker simulated device holding the structure resident, plus
//! per-query engine state (each query gets a cold out-of-core partition
//! cache of its own — never shared across queries or workers, which is
//! what keeps fault statistics reproducible). Every query executes from
//! the worker's post-upload
//! baseline on a fresh accounting view, so its output **and** its
//! [`RunStats`] are bitwise identical to a serial [`PreparedGraph::run`] —
//! worker count and scheduling can never change a simulated number.
//!
//! ```
//! use gcgt_graph::gen::toys;
//! use gcgt_session::{Bfs, Executor, PreparedGraph, Session};
//! use std::sync::Arc;
//!
//! let prepared: Arc<PreparedGraph> =
//!     Session::builder().graph(toys::figure1()).build().unwrap().prepared();
//! let mut worker = Executor::new(&prepared);
//! let a = worker.run(Bfs::from(0));
//! let b = worker.run(Bfs::from(0));
//! assert_eq!(a.output, b.output);
//! assert_eq!(a.stats, b.stats); // bitwise — history never leaks into a query
//! assert_eq!(worker.allocated(), worker.baseline());
//! ```
//!
//! ## Direction-optimizing traversal
//!
//! [`SessionBuilder::direction`] layers Beamer-style push/pull switching
//! over every engine: push levels expand the frontier's out-edges, pull
//! levels scan *unvisited* nodes' compressed adjacency with early exit,
//! and [`DirectionMode::Adaptive`] picks per level with the Ligra density
//! heuristic (pull when the frontier's out-degree sum exceeds
//! `num_edges / `[`PULL_ALPHA`]). Pull requires symmetric adjacency —
//! add [`SessionBuilder::symmetrize`]; the saving is reported in
//! [`RunStats`] (`push_steps`/`pull_steps`/`pushed_edges`/`pulled_edges`):
//!
//! ```
//! use gcgt_graph::gen::{social_graph, SocialParams};
//! use gcgt_session::{Bfs, DirectionMode, Session};
//!
//! let graph = social_graph(&SocialParams::twitter_like(600), 7);
//! let run_with = |direction| {
//!     Session::builder()
//!         .graph(graph.clone())
//!         .symmetrize(true)
//!         .direction(direction)
//!         .build()
//!         .unwrap()
//!         .run(Bfs::from(0))
//! };
//! let push = run_with(DirectionMode::Push);
//! let adaptive = run_with(DirectionMode::Adaptive);
//! assert_eq!(push.output.depth, adaptive.output.depth); // identical answers
//! assert!(adaptive.stats.pull_steps >= 1);
//! assert!(
//!     adaptive.stats.pushed_edges + adaptive.stats.pulled_edges
//!         < push.stats.pushed_edges
//! );
//! ```
//!
//! ## Graphs larger than the device
//!
//! [`SessionBuilder::memory_budget`] plus [`EngineKind::OutOfCore`] lifts
//! the hard capacity wall: when the compressed graph fits the budget the
//! session behaves exactly like the in-core engine, and when it does not,
//! `build` still succeeds — the graph is split into compressed partitions
//! (`gcgt-ooc`) that stream over the PCIe link per frontier iteration, with
//! faults, evictions and streamed milliseconds reported in
//! [`RunStats`]:
//!
//! ```
//! use gcgt_graph::gen::{web_graph, WebParams};
//! use gcgt_session::{Bfs, EngineKind, Session};
//! use gcgt_core::Strategy;
//!
//! let graph = web_graph(&WebParams::uk2002_like(3_000), 42);
//! let incore = Session::builder().graph(graph.clone()).build().unwrap();
//! let budget = incore.footprint() * 2 / 3; // the graph does NOT fit this
//! let session = Session::builder()
//!     .graph(graph)
//!     .memory_budget(budget)
//!     .engine(EngineKind::OutOfCore {
//!         inner: Strategy::Full,
//!     })
//!     .build()
//!     .unwrap(); // would be SessionError::Oom with EngineKind::Gcgt
//! assert!(session.is_streaming());
//! let run = session.run(Bfs::from(0));
//! assert!(run.stats.partition_faults > 0);
//! assert!(run.stats.transfer_ms > 0.0);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
use std::sync::Arc;

use gcgt_baselines::{GpuCsrEngine, GunrockEngine};
use gcgt_cgr::{CgrConfig, CgrGraph};
use gcgt_core::{memory, Algorithm, Expander, GcgtEngine, Strategy};
use gcgt_graph::{Csr, NodeId, Reordering};
use gcgt_ooc::{OocEngine, PartitionMap};
use gcgt_shard::ShardEngine;
use gcgt_simt::{Device, DeviceConfig, OomError, PcieConfig, RunStats};

pub use gcgt_core::{
    Bc, Bfs, Cc, DirectionMode, LabelProp, Pagerank, Query, QueryOutput, PULL_ALPHA,
};
pub use gcgt_ooc::OocConfig;
pub use gcgt_shard::ShardPlan;
pub use gcgt_simt::{
    FaultDomain, FaultPlan, FaultRate, InterconnectConfig, Observer, ObserverHandle, RetryPolicy,
    TypedFailure,
};

/// Which traversal engine a session drives — selected at **runtime**.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The paper's compressed-graph engine, at the given scheduling
    /// strategy rung (Figure 9 ladder; `Strategy::Full` is the complete
    /// GCGT).
    Gcgt(Strategy),
    /// Merrill-style BFS on uncompressed CSR (the `GPUCSR` baseline).
    GpuCsr,
    /// Gunrock-style advance+filter platform (~3× memory footprint).
    Gunrock,
    /// Out-of-core GCGT: compressed partitions streamed over the PCIe link
    /// when the graph exceeds the session's memory budget; identical to
    /// `Gcgt(inner)` when it fits. Combine with
    /// [`SessionBuilder::memory_budget`].
    OutOfCore {
        /// The GCGT scheduling strategy used to decode whatever is
        /// resident.
        inner: Strategy,
    },
}

impl EngineKind {
    /// The GPU approaches of Figures 8 and 15, in the paper's order.
    pub const GPU_COMPARISON: [EngineKind; 3] = [
        EngineKind::Gunrock,
        EngineKind::GpuCsr,
        EngineKind::Gcgt(Strategy::Full),
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Gcgt(_) => "GCGT",
            EngineKind::GpuCsr => "GPUCSR",
            EngineKind::Gunrock => "Gunrock",
            EngineKind::OutOfCore { .. } => "GCGT-OOC",
        }
    }

    /// The strategy, when this is a GCGT engine (in-core or out-of-core).
    pub fn strategy(&self) -> Option<Strategy> {
        match self {
            EngineKind::Gcgt(s) | EngineKind::OutOfCore { inner: s } => Some(*s),
            _ => None,
        }
    }

    /// Builds a session over `graph` for this engine on `device` — the
    /// one-liner the experiment harness sweeps engines with (replaces the
    /// per-call-site engine-construction match ladders).
    pub fn session(&self, graph: Arc<Csr>, device: DeviceConfig) -> Result<Session, SessionError> {
        Session::builder()
            .graph_shared(graph)
            .device(device)
            .engine(*self)
            .build()
    }
}

/// Why a session could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// `graph(..)` was never called.
    MissingGraph,
    /// The graph has no nodes.
    EmptyGraph,
    /// The explicit `compress(..)` configuration's layout (segmented or
    /// not) contradicts what the selected GCGT strategy traverses.
    LayoutMismatch {
        /// The selected strategy.
        strategy: Strategy,
        /// Whether the supplied configuration was segmented.
        config_segmented: bool,
    },
    /// `compress(..)` was supplied for an engine that traverses raw CSR
    /// and would silently ignore it.
    CompressUnsupported {
        /// The selected (non-GCGT) engine.
        engine: EngineKind,
    },
    /// [`DirectionMode::Pull`] was requested over a graph whose adjacency
    /// is not symmetric: pull scans a node's *stored* adjacency for
    /// frontier parents, which is only its in-neighbour set when every edge
    /// has its reverse. (`Adaptive` degrades to push instead of erroring.)
    AsymmetricPull,
    /// A sharded session was requested with zero devices.
    ZeroShards,
    /// [`SessionBuilder::graph_compressed`] was combined with a builder
    /// option that only applies to raw-CSR input — the compressed graph's
    /// encoding (and the preprocessing baked into it) is already fixed.
    CompressedInputConflict {
        /// The conflicting builder call.
        what: &'static str,
    },
    /// A pre-encoded graph failed structural validation when the session
    /// needed it proven (e.g. a deferred-validation load whose full decode
    /// the session performs at prepare time).
    CorruptGraph(String),
    /// Graph plus traversal buffers exceed the device memory.
    Oom(OomError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::MissingGraph => write!(f, "no graph supplied to the session builder"),
            SessionError::EmptyGraph => write!(f, "cannot build a session over an empty graph"),
            SessionError::LayoutMismatch {
                strategy,
                config_segmented,
            } => write!(
                f,
                "CGR layout mismatch: strategy {strategy:?} {} a segmented layout but the \
                 supplied CgrConfig {} (use strategy.cgr_config(..) or drop compress(..))",
                if strategy.needs_segmented_layout() {
                    "requires"
                } else {
                    "cannot traverse"
                },
                if *config_segmented {
                    "sets segment_len_bytes"
                } else {
                    "does not set segment_len_bytes"
                }
            ),
            SessionError::CompressUnsupported { engine } => write!(
                f,
                "compress(..) was supplied but the {} engine traverses uncompressed CSR and \
                 would ignore it (drop compress(..) or select a GCGT engine)",
                engine.name()
            ),
            SessionError::AsymmetricPull => write!(
                f,
                "DirectionMode::Pull requires symmetric adjacency (stored neighbours must be \
                 the in-neighbours); add .symmetrize(true) or use DirectionMode::Adaptive, \
                 which degrades to push on asymmetric graphs"
            ),
            SessionError::ZeroShards => write!(
                f,
                "a sharded session needs at least one device (shards(n) with n >= 1)"
            ),
            SessionError::CompressedInputConflict { what } => write!(
                f,
                "graph_compressed(..) supplies an already-encoded graph, which conflicts with \
                 {what} (preprocessing and encoding are fixed at encode time; drop one of the two)"
            ),
            SessionError::CorruptGraph(e) => {
                write!(f, "pre-encoded graph failed structural validation: {e}")
            }
            SessionError::Oom(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<OomError> for SessionError {
    fn from(e: OomError) -> Self {
        SessionError::Oom(e)
    }
}

/// Typed builder for [`Session`] — see the crate docs for the full shape.
#[derive(Clone, Debug, Default)]
pub struct SessionBuilder {
    graph: Option<Arc<Csr>>,
    compressed: Option<CgrGraph>,
    symmetrize: bool,
    reorder: Option<Reordering>,
    compress: Option<CgrConfig>,
    compress_auto: bool,
    device: Option<DeviceConfig>,
    engine: Option<EngineKind>,
    pcie: Option<PcieConfig>,
    memory_budget: Option<usize>,
    ooc: Option<OocConfig>,
    direction: Option<DirectionMode>,
    shards: Option<usize>,
    interconnect: Option<InterconnectConfig>,
    observer: Option<ObserverHandle>,
    fault_plan: Option<FaultPlan>,
}

impl SessionBuilder {
    /// The input graph (owned).
    #[must_use]
    pub fn graph(mut self, graph: Csr) -> Self {
        self.graph = Some(Arc::new(graph));
        self
    }

    /// The input graph, shared — lets many sessions (e.g. one per engine in
    /// a comparison sweep) reuse one in-memory copy.
    #[must_use]
    pub fn graph_shared(mut self, graph: Arc<Csr>) -> Self {
        self.graph = Some(graph);
        self
    }

    /// An **already-encoded** graph as the session input — the instant-
    /// restart path: load a GCGR v2 file once
    /// ([`gcgt_cgr::CgrGraph::from_bytes`], `io::load`) and skip the
    /// encode entirely; with a zero-copy load, every worker of a serving
    /// pool sharing this session's [`PreparedGraph`] serves the one file
    /// buffer. The graph's `CgrConfig` stands in for
    /// [`SessionBuilder::compress`] (and must match the selected GCGT
    /// strategy's layout); preprocessing was fixed at encode time, so
    /// combining this with `graph(..)`, `compress(..)`,
    /// `symmetrize(true)` or `reorder(..)` is
    /// [`SessionError::CompressedInputConflict`].
    ///
    /// The session's query surface is CSR-centric (degrees, direction
    /// checks, baselines), so `prepare` decodes a CSR mirror from the
    /// compressed input — which requires the whole structure proven
    /// sound: a [`gcgt_cgr::ValidationMode::Deferred`] load is validated
    /// in full here (failures surface as [`SessionError::CorruptGraph`]).
    /// The exception is a *streaming* [`EngineKind::OutOfCore`] build,
    /// which traverses straight from the compressed payload and re-checks
    /// partitions lazily: corrupt regions survive the build (the mirror
    /// skips them) and every query touching one fails with a typed
    /// `CorruptGraph` error — sticky, never a panic — while queries that
    /// avoid it keep their fault-free answers.
    #[must_use]
    pub fn graph_compressed(mut self, cgr: CgrGraph) -> Self {
        self.compressed = Some(cgr);
        self
    }

    /// Symmetrize before anything else (required for meaningful connected
    /// components on directed input).
    #[must_use]
    pub fn symmetrize(mut self, yes: bool) -> Self {
        self.symmetrize = yes;
        self
    }

    /// Apply a node reordering (locality → compression rate). The session
    /// owns the id mapping: queries and results stay in the caller's
    /// original id space.
    #[must_use]
    pub fn reorder(mut self, reordering: Reordering) -> Self {
        self.reorder = Some(reordering);
        self
    }

    /// Explicit CGR encoding parameters (GCGT engines only). The layout
    /// must match the strategy — `build` rejects a segmented configuration
    /// for strategies below `Full` and vice versa. When omitted, the
    /// session derives `strategy.cgr_config(&CgrConfig::paper_default())`.
    #[must_use]
    pub fn compress(mut self, config: CgrConfig) -> Self {
        self.compress = Some(config);
        self
    }

    /// Autotune the CGR code for the prepared graph: after symmetrize and
    /// reorder, the session picks the VLC code via
    /// [`CgrConfig::autotune`] and derives the layout from the strategy,
    /// exactly as the default path does from
    /// [`CgrConfig::paper_default`]. An explicit [`SessionBuilder::compress`]
    /// or pre-encoded [`SessionBuilder::graph_compressed`] input takes
    /// precedence.
    #[must_use]
    pub fn compress_auto(mut self) -> Self {
        self.compress_auto = true;
        self
    }

    /// The simulated device (defaults to [`DeviceConfig::default`]).
    #[must_use]
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.device = Some(device);
        self
    }

    /// Which engine to drive (defaults to the full GCGT).
    #[must_use]
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = Some(engine);
        self
    }

    /// The frontier-expansion direction BFS levels use (defaults to
    /// [`DirectionMode::Push`], the paper's original behaviour).
    ///
    /// * `Push` — classic top-down expansion, bitwise identical to the
    ///   pre-direction API.
    /// * `Pull` — every level scans unvisited nodes' compressed adjacency
    ///   for frontier parents with early exit. Requires symmetric
    ///   adjacency; `build` returns [`SessionError::AsymmetricPull`]
    ///   otherwise (add [`SessionBuilder::symmetrize`]).
    /// * `Adaptive` — the Beamer/Ligra density heuristic picks per level
    ///   (pull when the frontier's out-degree sum exceeds
    ///   `num_edges / `[`PULL_ALPHA`]); on an asymmetric graph it degrades
    ///   to pure push, and on a graph where the heuristic never fires the
    ///   run is bitwise identical to `Push` — outputs and `RunStats` alike.
    #[must_use]
    pub fn direction(mut self, direction: DirectionMode) -> Self {
        self.direction = Some(direction);
        self
    }

    /// The host↔device link model used for upload accounting.
    #[must_use]
    pub fn pcie(mut self, pcie: PcieConfig) -> Self {
        self.pcie = Some(pcie);
        self
    }

    /// Caps how many device bytes this session may occupy (defaults to the
    /// device's full capacity; the effective budget is the smaller of the
    /// two). In-core engines treat it as a tighter OOM wall; with
    /// [`EngineKind::OutOfCore`] a graph that exceeds it still builds and
    /// **streams** compressed partitions within the budget instead.
    #[must_use]
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Streaming parameters of the out-of-core engine (chunk granularity,
    /// transfer/decode overlap). Only meaningful with
    /// [`EngineKind::OutOfCore`]; defaults to [`OocConfig::default`].
    #[must_use]
    pub fn ooc_config(mut self, config: OocConfig) -> Self {
        self.ooc = Some(config);
        self
    }

    /// Shards the selected engine across `devices` modeled GPUs: the graph
    /// is placed as contiguous node-aligned shards, and every frontier step
    /// runs owner-computes around whatever [`SessionBuilder::engine`]
    /// picked, with an all-to-all boundary-bitmap exchange over the
    /// [`SessionBuilder::interconnect`] link. Outputs and kernel-side
    /// [`RunStats`] stay bitwise identical to the single-device run; the
    /// per-step frontier exchange is charged into
    /// `RunStats::{exchange_ms, boundary_nodes, sync_steps}`. With
    /// [`EngineKind::OutOfCore`], [`SessionBuilder::memory_budget`] becomes
    /// the **per-device** budget and the aggregate residency is verified
    /// against device capacity. `build` returns
    /// [`SessionError::ZeroShards`] when `devices` is zero.
    #[must_use]
    pub fn shards(mut self, devices: usize) -> Self {
        self.shards = Some(devices);
        self
    }

    /// The device↔device link model of a sharded session's frontier
    /// exchange (defaults to [`InterconnectConfig::nvlink`]). Only
    /// meaningful with [`SessionBuilder::shards`].
    #[must_use]
    pub fn interconnect(mut self, link: InterconnectConfig) -> Self {
        self.interconnect = Some(link);
        self
    }

    /// Installs an observer on every device this session (or the serving
    /// pool sharing its [`PreparedGraph`]) derives: kernel launches,
    /// per-level spans, allocation changes, partition-cache and shard-
    /// exchange activity, and the serving timeline all report to it, with
    /// **modeled** timestamps. Observation never changes any reported
    /// number — outputs, [`RunStats`] and serving aggregates are bitwise
    /// identical with and without one. See `gcgt_simt::obs` for the
    /// ready-made sinks ([`gcgt_simt::obs::TraceRecorder`],
    /// [`gcgt_simt::obs::MetricsRegistry`]).
    #[must_use]
    pub fn observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Installs a deterministic fault plan ([`gcgt_simt::chaos`]) on every
    /// device this session (or the serving pool sharing its
    /// [`PreparedGraph`]) derives: transient alloc, PCIe-transfer and
    /// shard-exchange faults are injected and recovered with modeled
    /// backoff (visible in `RunStats::{faults_injected, retries,
    /// backoff_ms}` and the chaos trace category), and per-query faults
    /// surface as typed errors from a serving pool. The plan activates
    /// *after* the one-time graph upload — preparation itself is
    /// fault-free by construction. Installing [`FaultPlan::empty`] (or
    /// never calling this) leaves every output, statistic and trace
    /// bitwise identical to a chaos-free build.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Runs preprocessing + encoding, verifies device capacity, and returns
    /// the ready single-worker session (an [`Arc`]-wrapped
    /// [`PreparedGraph`] underneath — see [`SessionBuilder::prepare`]).
    pub fn build(self) -> Result<Session, SessionError> {
        Ok(Session {
            prepared: Arc::new(self.prepare()?),
        })
    }

    /// Runs preprocessing + encoding, verifies device capacity, and returns
    /// the immutable build product itself. Wrap it in an `Arc` to share it
    /// between a [`Session`], [`Executor`]s, or a `gcgt-serve` worker pool
    /// — [`PreparedGraph`] is `Send + Sync` and never mutated after this
    /// point.
    pub fn prepare(self) -> Result<PreparedGraph, SessionError> {
        // --- pre-encoded input (the GCGR v2 instant-restart path) ---
        if self.compressed.is_some() {
            let conflict = |what| Err(SessionError::CompressedInputConflict { what });
            if self.graph.is_some() {
                return conflict("graph(..)");
            }
            if self.compress.is_some() {
                return conflict("compress(..)");
            }
            if self.symmetrize {
                return conflict("symmetrize(true)");
            }
            if self.reorder.is_some() {
                return conflict("reorder(..)");
            }
        }
        let kind = self.engine.unwrap_or(EngineKind::Gcgt(Strategy::Full));
        if self.shards == Some(0) {
            return Err(SessionError::ZeroShards);
        }
        // --- input + CSR mirror ---
        // The mirror decodes every adjacency, so a deferred-validation load
        // is normally proven in full first (a no-op for eager loads and
        // fresh encodes). The one engine that honors the deferred contract
        // end to end is the non-sharded out-of-core streamer: it traverses
        // straight from the compressed payload and re-validates partitions
        // lazily at first touch, so a corrupt region may stay encoded —
        // the mirror simply skips it and the touching query fails with a
        // typed `CorruptGraph` instead of the build. If that build later
        // turns out not to stream (everything fits → in-core decode of the
        // full payload), the recorded corruption fails it below. Sharded
        // streaming stays eager: its exchange accounting reads the mirror's
        // adjacency, which a skipped region would silently falsify.
        let lazy_ooc = matches!(kind, EngineKind::OutOfCore { .. }) && self.shards.is_none();
        let mut mirror_corrupt: Option<String> = None;
        let input = match &self.compressed {
            Some(cgr) if lazy_ooc => {
                let (mirror, corrupt) = gcgt_cgr::decode::decode_all_validated(cgr);
                mirror_corrupt = corrupt;
                Arc::new(mirror)
            }
            Some(cgr) => {
                cgr.ensure_validated_all()
                    .map_err(SessionError::CorruptGraph)?;
                Arc::new(gcgt_cgr::decode::decode_all(cgr))
            }
            None => self.graph.clone().ok_or(SessionError::MissingGraph)?,
        };
        if input.num_nodes() == 0 {
            return Err(SessionError::EmptyGraph);
        }
        // A degraded mirror cannot prove symmetry, so only the default
        // push schedule (which never consults it) is safe to resolve.
        if let Some(msg) = &mirror_corrupt {
            if !matches!(self.direction.unwrap_or_default(), DirectionMode::Push) {
                return Err(SessionError::CorruptGraph(msg.clone()));
            }
        }
        let device_config = self.device.unwrap_or_default();
        let pcie = self.pcie.unwrap_or_default();

        // --- preprocessing (the prepared graph owns the id mapping) ---
        let symmetrized: Arc<Csr> = if self.symmetrize {
            Arc::new(input.symmetrized())
        } else {
            input
        };
        let (graph, perm) = match self.reorder {
            Some(method) => {
                let perm = method.compute(&symmetrized);
                (Arc::new(symmetrized.permuted(&perm)), Some(perm))
            }
            None => (symmetrized, None),
        };

        // --- direction resolution (pull needs in-neighbours = stored
        // adjacency, i.e. a symmetric graph; checked on the preprocessed
        // graph, and only when a non-push direction was asked for) ---
        let direction = match self.direction.unwrap_or_default() {
            DirectionMode::Push => DirectionMode::Push,
            requested => {
                if graph.is_symmetric() {
                    requested
                } else {
                    match requested {
                        DirectionMode::Pull => return Err(SessionError::AsymmetricPull),
                        // Adaptive means "the best *correct* schedule":
                        // without symmetric adjacency that is pure push.
                        _ => DirectionMode::Push,
                    }
                }
            }
        };

        // --- encoding + footprint ---
        let (cgr, footprint, structure) = match kind {
            EngineKind::Gcgt(strategy) | EngineKind::OutOfCore { inner: strategy } => {
                // A pre-encoded graph skips the encode; its baked-in config
                // faces the same layout check an explicit compress(..) does.
                let cgr = match self.compressed {
                    Some(cgr) => {
                        let config_segmented = cgr.config().segment_len_bytes.is_some();
                        if config_segmented != strategy.needs_segmented_layout() {
                            return Err(SessionError::LayoutMismatch {
                                strategy,
                                config_segmented,
                            });
                        }
                        cgr
                    }
                    None => {
                        let config = match self.compress {
                            Some(config) => {
                                let config_segmented = config.segment_len_bytes.is_some();
                                if config_segmented != strategy.needs_segmented_layout() {
                                    return Err(SessionError::LayoutMismatch {
                                        strategy,
                                        config_segmented,
                                    });
                                }
                                config
                            }
                            None if self.compress_auto => {
                                strategy.cgr_config(&CgrConfig::autotune(&graph))
                            }
                            None => strategy.cgr_config(&CgrConfig::paper_default()),
                        };
                        CgrGraph::encode(&graph, &config)
                    }
                };
                let footprint = memory::gcgt_footprint(&cgr);
                let structure = memory::gcgt_structure_bytes(&cgr);
                (Some(cgr), footprint, structure)
            }
            EngineKind::GpuCsr | EngineKind::Gunrock => {
                if self.compress.is_some() || self.compressed.is_some() {
                    return Err(SessionError::CompressUnsupported { engine: kind });
                }
                let (footprint, structure) = match kind {
                    EngineKind::GpuCsr => (
                        memory::csr_footprint(&graph),
                        memory::csr_structure_bytes(&graph),
                    ),
                    _ => (
                        memory::gunrock_footprint(&graph),
                        memory::gunrock_structure_bytes(&graph),
                    ),
                };
                (None, footprint, structure)
            }
        };

        // --- capacity / budget check (the OOM bars of Figures 8 and 15) ---
        // The effective ceiling is the device capacity, tightened by an
        // explicit memory budget when one was given.
        let budget = self
            .memory_budget
            .unwrap_or(device_config.mem_capacity)
            .min(device_config.mem_capacity);
        let fits = {
            let mut probe = Device::new(DeviceConfig {
                mem_capacity: budget,
                ..device_config
            });
            probe.alloc(footprint)
        };
        let ooc = match (kind, fits) {
            // Everything fits: out-of-core sessions degenerate to the
            // in-core engine and behave identically to `Gcgt(inner)`.
            (_, Ok(())) => None,
            (EngineKind::OutOfCore { .. }, Err(_)) => {
                let cgr = cgr.as_ref().expect("OutOfCore always encodes");
                let plan = Self::plan_streaming(cgr, budget, self.ooc.unwrap_or_default())?;
                // Sharded streaming: `budget` is per device, but every
                // shard's scratch + cache must fit the one modeled memory
                // pool together (the cache faults unconditionally once
                // admitted, so this has to hold up front).
                if let Some(devices) = self.shards {
                    let scratch = memory::traversal_buffers_bytes(cgr.num_nodes());
                    let aggregate = scratch + devices * plan.cache_budget;
                    if aggregate > device_config.mem_capacity {
                        return Err(SessionError::Oom(OomError {
                            requested: aggregate,
                            capacity: device_config.mem_capacity,
                        }));
                    }
                }
                Some(plan)
            }
            (_, Err(oom)) => return Err(SessionError::Oom(oom)),
        };
        // Corruption recorded by the degraded mirror is only survivable
        // when the session really streams (the lazy re-check fails the
        // touching query); an in-core run would decode the corrupt payload
        // unchecked, so it keeps the eager-validation contract.
        if let Some(msg) = mirror_corrupt {
            if ooc.is_none() {
                return Err(SessionError::CorruptGraph(msg));
            }
        }

        // --- shard placement (balanced over the bytes the inner engine
        // actually keeps resident: compressed for GCGT, CSR otherwise) ---
        let shard = self.shards.map(|devices| ShardPlanData {
            plan: match &cgr {
                Some(cgr) => ShardPlan::build(cgr, devices),
                None => ShardPlan::build_csr(&graph, devices),
            },
            interconnect: self.interconnect.unwrap_or_default(),
        });

        Ok(PreparedGraph {
            kind,
            device_config,
            pcie,
            graph,
            cgr,
            perm,
            footprint,
            structure,
            budget,
            ooc,
            shard,
            direction,
            observer: self.observer,
            fault_plan: self.fault_plan,
        })
    }

    /// Partitions the compressed graph for streaming under `budget` device
    /// bytes: per-query scratch stays resident, and the rest is the
    /// partition cache, split into ~quarter-cache partitions so the LRU has
    /// room to rotate. Fails when even one partition plus scratch cannot
    /// fit.
    fn plan_streaming(
        cgr: &CgrGraph,
        budget: usize,
        config: OocConfig,
    ) -> Result<OocPlan, SessionError> {
        let scratch = memory::traversal_buffers_bytes(cgr.num_nodes());
        let cache_budget = match budget.checked_sub(scratch) {
            Some(bytes) if bytes > 0 => bytes,
            _ => {
                return Err(SessionError::Oom(OomError {
                    requested: scratch + 1,
                    capacity: budget,
                }))
            }
        };
        let target = (cache_budget / 4).max(1);
        let parts = PartitionMap::build(cgr, target);
        if parts.max_partition_bytes() > cache_budget {
            return Err(SessionError::Oom(OomError {
                requested: scratch + parts.max_partition_bytes(),
                capacity: budget,
            }));
        }
        Ok(OocPlan {
            parts,
            cache_budget,
            config,
        })
    }
}

/// The streaming plan of an out-of-core prepared graph whose structure does
/// not fit: computed once at build, instantiated as an [`OocEngine`] (with
/// a private partition cache) per query or worker.
#[derive(Clone, Debug)]
struct OocPlan {
    parts: PartitionMap,
    cache_budget: usize,
    config: OocConfig,
}

/// One application run: the app's output plus cost accounting.
#[derive(Clone, Debug)]
pub struct Run<T> {
    /// The application result (id-mapped back to the caller's space when
    /// the session reordered).
    pub output: T,
    /// Simulated-device statistics of this run.
    pub stats: RunStats,
    /// Host→device upload time paid to make the graph resident. Zero for
    /// runs through an [`Executor`], whose worker paid the upload once at
    /// construction ([`Executor::upload_ms`]).
    pub upload_ms: f64,
    /// The device configuration the run executed under — kept so
    /// [`Run::explain`] can weight the instruction-class breakdown without
    /// the caller re-supplying it.
    device_config: DeviceConfig,
}

impl<T> Run<T> {
    /// Upload plus simulated execution plus streamed partition transfers
    /// plus sharded frontier exchange, milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.upload_ms + self.stats.est_ms + self.stats.transfer_ms + self.stats.exchange_ms
    }

    /// A human-readable latency decomposition of this run — the per-class
    /// instruction breakdown and the est/transfer/exchange time split of
    /// [`RunStats::explain`], plus the upload this run paid. Deterministic
    /// for a deterministic run.
    pub fn explain(&self) -> String {
        let mut out = self.stats.explain(&self.device_config);
        out.push_str(&format!("{:<12} {:>14.6} ms\n", "upload", self.upload_ms));
        out.push_str(&format!("{:<12} {:>14.6} ms\n", "total", self.total_ms()));
        out
    }
}

/// A batch of runs sharing **one** device residency.
#[derive(Clone, Debug)]
pub struct BatchRun<T> {
    /// Per-query outputs, in submission order.
    pub outputs: Vec<T>,
    /// Per-query device statistics (each covering only its query).
    pub per_query: Vec<RunStats>,
    /// Aggregate device statistics of the whole batch.
    pub stats: RunStats,
    /// Graph uploads paid (always 1 — that is the point of batching).
    pub uploads: u32,
    /// Host→device upload time paid, once.
    pub upload_ms: f64,
}

impl<T> BatchRun<T> {
    /// Upload plus simulated execution plus streamed partition transfers
    /// plus sharded frontier exchange of the whole batch, milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.upload_ms + self.stats.est_ms + self.stats.transfer_ms + self.stats.exchange_ms
    }

    /// Mean simulated latency per query (excluding the shared upload).
    pub fn mean_query_ms(&self) -> f64 {
        if self.per_query.is_empty() {
            0.0
        } else {
            self.per_query.iter().map(|s| s.est_ms).sum::<f64>() / self.per_query.len() as f64
        }
    }
}

/// Everything a traversal needs, computed once and never mutated again:
/// the preprocessed graph, the encoded compressed structure, the verified
/// capacity/budget plan and the runtime-selected engine kind.
///
/// `PreparedGraph` is `Send + Sync` by construction — it holds only plain
/// data — so one `Arc<PreparedGraph>` can back any number of concurrent
/// consumers: a single-worker [`Session`], ad-hoc [`Executor`]s, or the
/// `gcgt-serve` worker pool. All *mutable* traversal state (the simulated
/// device, per-query scratch, the out-of-core partition cache) lives in the
/// per-worker [`Executor`], never here.
#[derive(Debug)]
pub struct PreparedGraph {
    kind: EngineKind,
    device_config: DeviceConfig,
    pcie: PcieConfig,
    graph: Arc<Csr>,
    cgr: Option<CgrGraph>,
    perm: Option<Vec<NodeId>>,
    footprint: usize,
    structure: usize,
    budget: usize,
    ooc: Option<OocPlan>,
    shard: Option<ShardPlanData>,
    direction: DirectionMode,
    observer: Option<ObserverHandle>,
    fault_plan: Option<FaultPlan>,
}

/// The placement of a sharded prepared graph: computed once at build,
/// borrowed by one [`ShardEngine`] per query or worker.
#[derive(Clone, Debug)]
struct ShardPlanData {
    plan: ShardPlan,
    interconnect: InterconnectConfig,
}

impl PreparedGraph {
    /// The engine kind this prepared graph drives on each device. Sharding
    /// is placement, not a kind: a sharded session reports the engine its
    /// shards run here and its device count in
    /// [`PreparedGraph::num_shards`].
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The **effective** frontier-expansion direction: what the builder
    /// requested, with `Adaptive` degraded to `Push` when the preprocessed
    /// graph turned out asymmetric.
    pub fn direction(&self) -> DirectionMode {
        self.direction
    }

    /// The simulated device configuration every worker derives its device
    /// from.
    pub fn device_config(&self) -> &DeviceConfig {
        &self.device_config
    }

    /// The observer installed at build time
    /// ([`SessionBuilder::observer`]), if any — attached to every device
    /// this prepared graph derives, and used by the serving pool to replay
    /// its deterministic dispatch timeline.
    pub fn observer(&self) -> Option<&ObserverHandle> {
        self.observer.as_ref()
    }

    /// The fault plan installed at build time
    /// ([`SessionBuilder::fault_plan`]), if any — activated on every
    /// worker device after its one-time upload.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_plan
    }

    /// The preprocessed graph the engine traverses (post symmetrize /
    /// reorder — internal id space).
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Node count (identical in original and internal id spaces).
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The id mapping applied by reordering (`perm[original] = internal`),
    /// when one was requested.
    pub fn permutation(&self) -> Option<&[NodeId]> {
        self.perm.as_deref()
    }

    /// The encoded compressed graph (GCGT engines only).
    pub fn cgr(&self) -> Option<&CgrGraph> {
        self.cgr.as_ref()
    }

    /// The precomputed VLC decode table every traversal of this prepared
    /// graph decodes through (GCGT engines only): built once per process
    /// per code ([`gcgt_cgr::DecodeTable`]'s shared cache) and handed
    /// around by `Arc` — a serving pool's workers all probe the same
    /// allocation. `None` for the uncompressed CSR engines, which have
    /// nothing to decode.
    pub fn decode_table(&self) -> Option<&gcgt_cgr::DecodeTable> {
        self.cgr.as_ref().map(|cgr| cgr.table())
    }

    /// Resident bytes of the engine's structure plus traversal buffers —
    /// what an in-core run needs at its peak. A streaming session's actual
    /// residency is bounded by [`PreparedGraph::memory_budget`] instead.
    pub fn footprint(&self) -> usize {
        self.footprint
    }

    /// The query-invariant structure bytes (graph representation without
    /// per-query scratch) — the device allocation level between batched
    /// queries. Zero for a streaming session (partitions come and go).
    pub fn structure_bytes(&self) -> usize {
        if self.is_streaming() {
            0
        } else {
            self.structure
        }
    }

    /// The effective device-byte ceiling: the explicit
    /// [`SessionBuilder::memory_budget`] tightened to the device capacity.
    pub fn memory_budget(&self) -> usize {
        self.budget
    }

    /// Whether runs stream compressed partitions over the link (the graph
    /// exceeded the budget) instead of residing wholly on the device.
    pub fn is_streaming(&self) -> bool {
        self.ooc.is_some()
    }

    /// The number of compressed partitions a streaming session rotates
    /// through (`None` when the graph fits in-core).
    pub fn num_partitions(&self) -> Option<usize> {
        self.ooc.as_ref().map(|plan| plan.parts.len())
    }

    /// How many modeled devices a sharded session places the graph onto
    /// (`None` for single-device sessions). The engine each device runs is
    /// [`PreparedGraph::kind`].
    pub fn num_shards(&self) -> Option<usize> {
        self.shard.as_ref().map(|s| s.plan.devices())
    }

    /// The shard placement of a sharded session (`None` for single-device
    /// sessions).
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        self.shard.as_ref().map(|s| &s.plan)
    }

    /// The device↔device link a sharded session exchanges frontiers over
    /// (`None` for single-device sessions).
    pub fn interconnect(&self) -> Option<InterconnectConfig> {
        self.shard.as_ref().map(|s| s.interconnect)
    }

    /// Compression rate of the resident structure relative to a 32-bit
    /// edge list (GCGT engines; CSR engines report 1.0).
    pub fn compression_rate(&self) -> f64 {
        match &self.cgr {
            Some(cgr) => cgr.compression_rate(),
            None => 1.0,
        }
    }

    /// Host→device time to make the structure resident, from the prepared
    /// graph's PCIe model — paid once per device residency (one `run`, one
    /// `run_batch`, or one pool worker). A streaming session uploads
    /// nothing up front (transfers happen during the run and appear in
    /// [`RunStats::transfer_ms`]), so this is 0.
    pub fn upload_ms(&self) -> f64 {
        if self.is_streaming() {
            0.0
        } else {
            self.pcie.transfer_ms(self.footprint, 1)
        }
    }

    /// Instantiates the runtime-selected engine over this immutable
    /// structure. Cheap: engines borrow the graph; only per-engine mutable
    /// state (the out-of-core partition cache) is constructed fresh — which
    /// is exactly why engines are built per query or per worker, never
    /// shared. This is the only place in the workspace that matches over
    /// engine kinds. A sharded session wraps the engine in a
    /// [`ShardEngine`]: one engine shared by every device in-core, one
    /// streaming engine (each with a private partition cache) per device.
    fn engine(&self) -> Box<dyn Expander + '_> {
        let build = || -> Box<dyn Expander + '_> {
            match (self.kind, &self.ooc) {
                // An out-of-core graph that fits runs the in-core engine.
                (EngineKind::Gcgt(strategy), _)
                | (EngineKind::OutOfCore { inner: strategy }, None) => Box::new(
                    GcgtEngine::new(
                        self.cgr.as_ref().expect("GCGT sessions always encode"),
                        self.device_config,
                        strategy,
                    )
                    .expect("capacity verified at build time")
                    .with_direction(self.direction),
                ),
                (EngineKind::OutOfCore { inner }, Some(plan)) => Box::new(
                    OocEngine::new(
                        self.cgr.as_ref().expect("OutOfCore sessions always encode"),
                        &plan.parts,
                        self.device_config,
                        inner,
                        self.pcie,
                        plan.config,
                        plan.cache_budget,
                    )
                    .expect("budget verified at build time")
                    .with_direction(self.direction),
                ),
                (EngineKind::GpuCsr, _) => Box::new(
                    GpuCsrEngine::new(&self.graph, self.device_config)
                        .expect("capacity verified at build time")
                        .with_direction(self.direction),
                ),
                (EngineKind::Gunrock, _) => Box::new(
                    GunrockEngine::new(&self.graph, self.device_config)
                        .expect("capacity verified at build time")
                        .with_direction(self.direction),
                ),
            }
        };
        let Some(sharding) = &self.shard else {
            return build();
        };
        let engines = if self.is_streaming() {
            sharding.plan.devices()
        } else {
            1
        };
        Box::new(ShardEngine::new(
            &self.graph,
            &sharding.plan,
            sharding.interconnect,
            (0..engines).map(|_| build()).collect(),
        ))
    }

    fn remap<A: Algorithm>(&self, algo: A) -> A {
        match &self.perm {
            Some(perm) => algo.remap_sources(perm),
            None => algo,
        }
    }

    fn unpermute<A: Algorithm>(&self, output: A::Output) -> A::Output {
        match &self.perm {
            Some(perm) => A::unpermute(output, perm),
            None => output,
        }
    }

    /// Runs one application on a fresh single-query worker: uploads the
    /// structure, executes, maps results back to the caller's id space.
    ///
    /// # Panics
    /// Panics if a node-id parameter (BFS/BC source) is out of range —
    /// range-check against [`PreparedGraph::num_nodes`] for untrusted
    /// input.
    pub fn run<A: Algorithm>(&self, algo: A) -> Run<A::Output> {
        let mut worker = Executor::new(self);
        let mut run = worker.run(algo);
        run.upload_ms = self.upload_ms();
        run
    }

    /// Runs many queries against **one** device residency: the structure is
    /// uploaded and allocated once, and every query accounts on the same
    /// device — the serving-scale amortization (compare
    /// `batch.total_ms()` with the sum of individual `run(..).total_ms()`).
    /// Out-of-core batches also share one partition cache, so later queries
    /// hit partitions earlier ones faulted.
    pub fn run_batch<A: Algorithm>(&self, queries: &[A]) -> BatchRun<A::Output> {
        let engine = self.engine();
        let mut device = engine.new_device();
        if let Some(observer) = &self.observer {
            device.set_observer(observer.clone());
        }
        // The plan activates after the upload — graph preparation is
        // fault-free by construction, queries are the chaos surface.
        if let Some(plan) = self.fault_plan {
            device.set_fault_plan(plan);
        }
        let mut outputs = Vec::with_capacity(queries.len());
        let mut per_query = Vec::with_capacity(queries.len());
        for query in queries {
            let before = device.stats();
            let output = self.remap(query.clone()).execute(&*engine, &mut device);
            per_query.push(device.stats().since(&before));
            outputs.push(self.unpermute::<A>(output));
        }
        BatchRun {
            outputs,
            per_query,
            stats: device.stats(),
            uploads: 1,
            upload_ms: self.upload_ms(),
        }
    }
}

/// Per-worker execution state over a shared [`PreparedGraph`]: a simulated
/// device with the structure resident, created once per worker, plus
/// per-query engine state instantiated fresh for every query.
///
/// The execution contract that makes concurrent serving provable:
///
/// * each query runs on [`Device::query_view`] — the worker's residency
///   with zeroed counters — so its [`RunStats`] are **bitwise identical**
///   to the same query through a serial [`PreparedGraph::run`], no matter
///   which worker runs it or what ran before;
/// * each query gets a fresh engine (for out-of-core, a fresh cold
///   partition cache over the shared partition map), and the engine's
///   residency is released when the query ends — the device returns to the
///   post-upload [`Executor::baseline`] between queries, which the
///   alloc-audit suite pins.
pub struct Executor<'p> {
    prepared: &'p PreparedGraph,
    device: Device,
    baseline: usize,
    served: u64,
    busy_ms: f64,
}

impl<'p> Executor<'p> {
    /// Spawns a worker over `prepared`: derives its own device from the
    /// shared [`DeviceConfig`] and makes the structure resident (paying
    /// [`Executor::upload_ms`] once).
    pub fn new(prepared: &'p PreparedGraph) -> Self {
        let mut device = prepared.engine().new_device();
        if let Some(observer) = prepared.observer() {
            device.set_observer(observer.clone());
        }
        // Install the fault plan only after the upload: worker spawn is
        // fault-free by construction, so a typed chaos failure can only
        // unwind out of a query (where the serving pool catches it), never
        // out of pool construction.
        if let Some(plan) = prepared.fault_plan() {
            device.set_fault_plan(plan);
        }
        let baseline = device.allocated();
        Self {
            prepared,
            device,
            baseline,
            served: 0,
            busy_ms: 0.0,
        }
    }

    /// The shared structure this worker executes over.
    pub fn prepared(&self) -> &'p PreparedGraph {
        self.prepared
    }

    /// The post-upload allocation level: the query-invariant structure
    /// bytes this worker keeps resident for its whole life.
    pub fn baseline(&self) -> usize {
        self.baseline
    }

    /// Currently allocated bytes on this worker's device. Equals
    /// [`Executor::baseline`] between queries — per-query scratch and
    /// streamed partitions are released when each query ends.
    pub fn allocated(&self) -> usize {
        self.device.allocated()
    }

    /// Queries this worker has executed.
    pub fn queries_served(&self) -> u64 {
        self.served
    }

    /// Total simulated milliseconds this worker has spent executing
    /// (per-query `est_ms + transfer_ms + exchange_ms`, summed in service
    /// order).
    pub fn busy_ms(&self) -> f64 {
        self.busy_ms
    }

    /// Host→device upload paid once at worker construction.
    pub fn upload_ms(&self) -> f64 {
        self.prepared.upload_ms()
    }

    /// Tags this worker's future trace events with a track (a Chrome-trace
    /// row id). The serving pool sets each query's submission index before
    /// running it, so exported execution traces are keyed by query — hence
    /// identical at any worker count — rather than by racing worker. No-op
    /// for reported statistics, with or without an observer.
    pub fn set_trace_track(&mut self, track: u64) {
        self.device.set_track(track);
    }

    /// Executes one query from the post-upload baseline. The returned
    /// statistics are bitwise identical to the same query through
    /// [`PreparedGraph::run`]; `upload_ms` is 0 because the worker paid the
    /// upload at construction.
    ///
    /// # Panics
    /// Panics if a node-id parameter (BFS/BC source) is out of range, and
    /// unwinds with a typed [`TypedFailure`] payload when the installed
    /// fault plan fails this query (injected per-query fault, exhausted
    /// retry budget, corrupt payload at first touch) — the serving pool
    /// catches both and maps them to per-query errors.
    pub fn run<A: Algorithm>(&mut self, algo: A) -> Run<A::Output> {
        let engine = self.prepared.engine();
        let mut device = self.device.query_view();
        if device.inject_query_fault() {
            gcgt_simt::chaos::raise(TypedFailure::InjectedQueryFailure);
        }
        let output = self.prepared.remap(algo).execute(&*engine, &mut device);
        let stats = device.stats();
        // Release what the query held beyond the structure (streamed
        // partitions; scratch was already freed by the app) so the next
        // query starts from the same baseline this one did.
        engine.release_residency(&mut device);
        debug_assert_eq!(
            device.allocated(),
            self.baseline,
            "query left residency beyond the post-upload baseline"
        );
        self.device = device;
        self.served += 1;
        self.busy_ms += stats.est_ms + stats.transfer_ms + stats.exchange_ms;
        Run {
            output: self.prepared.unpermute::<A>(output),
            stats,
            upload_ms: 0.0,
            device_config: self.prepared.device_config,
        }
    }
}

/// A ready-to-run traversal session: a thin single-worker wrapper around an
/// [`Arc<PreparedGraph>`]. Cloning a session shares the underlying
/// structure; [`Session::prepared`] hands the `Arc` to concurrent consumers
/// (the `gcgt-serve` pool).
#[derive(Clone, Debug)]
pub struct Session {
    prepared: Arc<PreparedGraph>,
}

impl Session {
    /// Starts a builder.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The shared immutable build product backing this session.
    pub fn prepared(&self) -> Arc<PreparedGraph> {
        Arc::clone(&self.prepared)
    }

    /// A single-worker executor borrowing this session's structure (for
    /// callers that want explicit control over worker lifetime).
    pub fn executor(&self) -> Executor<'_> {
        Executor::new(&self.prepared)
    }
}

/// Every [`PreparedGraph`] accessor, [`PreparedGraph::run`] and
/// [`PreparedGraph::run_batch`] are reached through the session directly.
impl std::ops::Deref for Session {
    type Target = PreparedGraph;

    fn deref(&self) -> &PreparedGraph {
        &self.prepared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcgt_graph::gen::toys;
    use gcgt_graph::refalgo;

    /// The kernel-side view of [`RunStats`]: exchange counters zeroed, so a
    /// sharded run can be compared bitwise against its serial oracle.
    fn sans_exchange(stats: RunStats) -> RunStats {
        RunStats {
            exchange_ms: 0.0,
            boundary_nodes: 0,
            sync_steps: 0,
            ..stats
        }
    }

    fn figure1_session(kind: EngineKind) -> Session {
        Session::builder()
            .graph(toys::figure1())
            .engine(kind)
            .build()
            .unwrap()
    }

    #[test]
    fn every_engine_kind_matches_the_oracle() {
        let want = refalgo::bfs(&toys::figure1(), 0);
        for kind in EngineKind::GPU_COMPARISON {
            let run = figure1_session(kind).run(Bfs::from(0));
            assert_eq!(run.output.depth, want.depth, "{}", kind.name());
        }
        for strategy in Strategy::LADDER {
            let run = figure1_session(EngineKind::Gcgt(strategy)).run(Bfs::from(0));
            assert_eq!(run.output.depth, want.depth, "{strategy:?}");
        }
    }

    #[test]
    fn prepared_graph_is_send_sync_and_shared_by_clones() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedGraph>();
        assert_send_sync::<Arc<PreparedGraph>>();
        assert_send_sync::<Session>();

        let session = figure1_session(EngineKind::Gcgt(Strategy::Full));
        let clone = session.clone();
        assert!(Arc::ptr_eq(&session.prepared(), &clone.prepared()));
    }

    #[test]
    fn decode_tables_are_built_once_and_shared_across_prepared_graphs() {
        // Two independent prepared graphs over the same VLC code probe the
        // SAME table allocation (the process-wide shared cache) — the serve
        // pool's workers therefore share it too. CSR engines carry none.
        let a = figure1_session(EngineKind::Gcgt(Strategy::Full));
        let b = Session::builder()
            .graph(toys::binary_tree(5))
            .engine(EngineKind::Gcgt(Strategy::Full))
            .build()
            .unwrap();
        let ta = a.prepared().cgr().unwrap().table_shared();
        let tb = b.prepared().cgr().unwrap().table_shared();
        assert!(Arc::ptr_eq(&ta, &tb), "one table per code per process");
        assert_eq!(
            ta.code(),
            gcgt_cgr::CgrConfig::paper_default().code,
            "paper-default sessions decode zeta3"
        );
        assert!(a.prepared().decode_table().is_some());
        let csr = figure1_session(EngineKind::GpuCsr);
        assert!(csr.prepared().decode_table().is_none());
    }

    #[test]
    fn executor_stats_are_bitwise_those_of_a_serial_run() {
        let g = gcgt_graph::gen::web_graph(&gcgt_graph::gen::WebParams::uk2002_like(700), 11);
        let session = Session::builder().graph(g).build().unwrap();
        let mut worker = session.executor();
        // History independence: interleave other queries, then re-ask.
        let first = worker.run(Bfs::from(3));
        let _ = worker.run(Bfs::from(0));
        let _ = worker.run(Pagerank::default());
        let again = worker.run(Bfs::from(3));
        assert_eq!(first.output, again.output);
        assert_eq!(first.stats, again.stats);
        // And identical to the serial session path.
        let serial = session.run(Bfs::from(3));
        assert_eq!(serial.output, first.output);
        assert_eq!(serial.stats, first.stats);
        assert_eq!(worker.queries_served(), 4);
        assert!(worker.busy_ms() > 0.0);
    }

    #[test]
    fn executor_returns_to_baseline_between_queries() {
        let session = figure1_session(EngineKind::Gcgt(Strategy::Full));
        let mut worker = session.executor();
        assert_eq!(worker.baseline(), session.structure_bytes());
        for source in [0u32, 3, 5] {
            let _ = worker.run(Bfs::from(source));
            assert_eq!(worker.allocated(), worker.baseline());
        }
    }

    #[test]
    fn streaming_executor_drops_partitions_between_queries() {
        let g = gcgt_graph::gen::web_graph(&gcgt_graph::gen::WebParams::uk2002_like(2_000), 5);
        let incore = Session::builder().graph(g.clone()).build().unwrap();
        let session = Session::builder()
            .graph(g)
            .memory_budget(incore.footprint() * 7 / 10)
            .engine(EngineKind::OutOfCore {
                inner: Strategy::Full,
            })
            .build()
            .unwrap();
        assert!(session.is_streaming());
        let mut worker = session.executor();
        assert_eq!(worker.baseline(), 0);
        let a = worker.run(Bfs::from(0));
        assert!(a.stats.partition_faults > 0);
        assert_eq!(worker.allocated(), 0, "partitions released at query end");
        // Cold cache each query: fault statistics repeat bitwise.
        let b = worker.run(Bfs::from(0));
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn missing_graph_is_rejected() {
        assert_eq!(
            Session::builder().build().unwrap_err(),
            SessionError::MissingGraph
        );
    }

    #[test]
    fn empty_graph_is_rejected() {
        let err = Session::builder()
            .graph(Csr::from_edges(0, &[]))
            .build()
            .unwrap_err();
        assert_eq!(err, SessionError::EmptyGraph);
    }

    #[test]
    fn layout_mismatch_is_rejected_not_panicking() {
        // paper_default is segmented; TwoPhase traverses the unsegmented
        // layout. The old API panicked here — the builder returns an error.
        let err = Session::builder()
            .graph(toys::figure1())
            .engine(EngineKind::Gcgt(Strategy::TwoPhase))
            .compress(CgrConfig::paper_default())
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err,
                SessionError::LayoutMismatch {
                    strategy: Strategy::TwoPhase,
                    config_segmented: true,
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("cannot traverse"));
    }

    #[test]
    fn compress_with_csr_engines_is_rejected_not_ignored() {
        for kind in [EngineKind::GpuCsr, EngineKind::Gunrock] {
            let err = Session::builder()
                .graph(toys::figure1())
                .compress(CgrConfig::paper_default())
                .engine(kind)
                .build()
                .unwrap_err();
            assert_eq!(err, SessionError::CompressUnsupported { engine: kind });
            assert!(err.to_string().contains(kind.name()));
        }
    }

    #[test]
    fn oom_is_reported_with_sizes() {
        let device = DeviceConfig {
            mem_capacity: 16,
            ..DeviceConfig::default()
        };
        let err = Session::builder()
            .graph(toys::figure1())
            .device(device)
            .build()
            .unwrap_err();
        match err {
            SessionError::Oom(oom) => assert_eq!(oom.capacity, 16),
            other => panic!("expected Oom, got {other:?}"),
        }
    }

    #[test]
    fn reordered_session_answers_in_original_ids() {
        let g = toys::binary_tree(6);
        let want = refalgo::bfs(&g, 0);
        let session = Session::builder()
            .graph(g)
            .reorder(Reordering::DegSort)
            .build()
            .unwrap();
        assert!(session.permutation().is_some());
        let run = session.run(Bfs::from(0));
        assert_eq!(run.output.depth, want.depth);
    }

    #[test]
    fn out_of_core_streams_when_the_graph_does_not_fit() {
        let g = gcgt_graph::gen::web_graph(&gcgt_graph::gen::WebParams::uk2002_like(2_000), 5);
        let incore = Session::builder().graph(g.clone()).build().unwrap();
        let want = incore.run(Bfs::from(0));
        // A capacity below the in-core footprint: the plain GCGT engine
        // OOMs, the out-of-core engine builds and streams.
        let capacity = incore.footprint() * 7 / 10;
        let device = DeviceConfig::titan_v_scaled(capacity);
        let err = Session::builder()
            .graph(g.clone())
            .device(device)
            .build()
            .unwrap_err();
        assert!(matches!(err, SessionError::Oom(_)));

        let session = Session::builder()
            .graph(g)
            .device(device)
            .memory_budget(capacity)
            .engine(EngineKind::OutOfCore {
                inner: Strategy::Full,
            })
            .build()
            .unwrap();
        assert!(session.is_streaming());
        assert!(session.num_partitions().unwrap() > 1);
        assert_eq!(session.upload_ms(), 0.0);
        let run = session.run(Bfs::from(0));
        assert_eq!(run.output.depth, want.output.depth);
        assert!(run.stats.partition_faults >= 1);
        assert!(run.stats.partition_evictions >= 1);
        assert!(run.stats.transfer_ms > 0.0);
        assert!(run.total_ms() > run.stats.est_ms);
    }

    #[test]
    fn out_of_core_degenerates_to_in_core_when_it_fits() {
        let g = toys::grid(12, 12);
        let incore = Session::builder()
            .graph(g.clone())
            .engine(EngineKind::Gcgt(Strategy::Full))
            .build()
            .unwrap();
        let ooc = Session::builder()
            .graph(g)
            .engine(EngineKind::OutOfCore {
                inner: Strategy::Full,
            })
            .build()
            .unwrap();
        assert!(!ooc.is_streaming());
        assert_eq!(ooc.num_partitions(), None);
        let a = incore.run(Bfs::from(0));
        let b = ooc.run(Bfs::from(0));
        assert_eq!(a.output.depth, b.output.depth);
        assert_eq!(a.stats.est_ms.to_bits(), b.stats.est_ms.to_bits());
        assert_eq!(b.stats.partition_faults, 0);
        assert_eq!(b.stats.transfer_ms, 0.0);
        assert_eq!(a.upload_ms, b.upload_ms);
    }

    #[test]
    fn memory_budget_tightens_in_core_engines_too() {
        let g = toys::grid(12, 12);
        let footprint = Session::builder()
            .graph(g.clone())
            .build()
            .unwrap()
            .footprint();
        let err = Session::builder()
            .graph(g)
            .memory_budget(footprint - 1)
            .build()
            .unwrap_err();
        match err {
            SessionError::Oom(oom) => assert_eq!(oom.capacity, footprint - 1),
            other => panic!("expected Oom, got {other:?}"),
        }
    }

    #[test]
    fn hopeless_budget_is_rejected_not_panicking() {
        let g = toys::grid(12, 12);
        let err = Session::builder()
            .graph(g)
            .memory_budget(64) // smaller than even the per-query scratch
            .engine(EngineKind::OutOfCore {
                inner: Strategy::Full,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, SessionError::Oom(_)));
    }

    #[test]
    fn pull_on_an_asymmetric_graph_is_a_typed_error() {
        let err = Session::builder()
            .graph(toys::binary_tree(4)) // edges point away from the root
            .direction(DirectionMode::Pull)
            .build()
            .unwrap_err();
        assert_eq!(err, SessionError::AsymmetricPull);
        assert!(err.to_string().contains("symmetrize"), "{err}");
        // Symmetrizing fixes it, and the effective direction sticks.
        let session = Session::builder()
            .graph(toys::binary_tree(4))
            .symmetrize(true)
            .direction(DirectionMode::Pull)
            .build()
            .unwrap();
        assert_eq!(session.direction(), DirectionMode::Pull);
        let want = refalgo::bfs(&toys::binary_tree(4).symmetrized(), 0);
        assert_eq!(session.run(Bfs::from(0)).output.depth, want.depth);
    }

    #[test]
    fn adaptive_degrades_to_push_on_asymmetric_graphs() {
        let session = Session::builder()
            .graph(toys::binary_tree(4))
            .direction(DirectionMode::Adaptive)
            .build()
            .unwrap();
        assert_eq!(session.direction(), DirectionMode::Push);
        let run = session.run(Bfs::from(0));
        assert_eq!(
            run.output.depth,
            refalgo::bfs(&toys::binary_tree(4), 0).depth
        );
        assert_eq!(run.stats.pull_steps, 0);
    }

    /// A long (symmetric) path: every frontier is one node, so the adaptive
    /// heuristic never fires — and then an adaptive run must be **bitwise**
    /// a push run on every engine kind: outputs and `RunStats` alike.
    #[test]
    fn adaptive_is_bitwise_push_on_every_engine_kind_when_push_wins() {
        let n = 500usize;
        let edges: Vec<(NodeId, NodeId)> = (0..n as NodeId - 1)
            .flat_map(|i| [(i, i + 1), (i + 1, i)])
            .collect();
        let g = Arc::new(Csr::from_edges(n, &edges));
        let mut kinds = vec![
            EngineKind::Gcgt(Strategy::Full),
            EngineKind::Gcgt(Strategy::TwoPhase),
            EngineKind::GpuCsr,
            EngineKind::Gunrock,
        ];
        kinds.push(EngineKind::OutOfCore {
            inner: Strategy::Full,
        });
        for kind in kinds {
            let build = |direction: DirectionMode| {
                let mut b = Session::builder()
                    .graph_shared(Arc::clone(&g))
                    .engine(kind)
                    .direction(direction);
                if matches!(kind, EngineKind::OutOfCore { .. }) {
                    // Tight enough to really stream on both sides.
                    let incore = Session::builder()
                        .graph_shared(Arc::clone(&g))
                        .build()
                        .unwrap();
                    let scratch = incore.footprint() - incore.structure_bytes();
                    b = b.memory_budget(scratch + (incore.structure_bytes() / 4).max(1));
                }
                b.build().unwrap()
            };
            let push = build(DirectionMode::Push).run(Bfs::from(0));
            let adaptive = build(DirectionMode::Adaptive).run(Bfs::from(0));
            assert_eq!(push.output, adaptive.output, "{}", kind.name());
            assert_eq!(push.stats, adaptive.stats, "{}", kind.name());
            assert_eq!(adaptive.stats.pull_steps, 0, "{}", kind.name());
        }
    }

    /// The direction-optimization payoff, end to end through the session:
    /// on a low-diameter social graph the adaptive schedule answers
    /// identically while expanding strictly fewer edges than pure push —
    /// in-core and streaming out-of-core alike.
    #[test]
    fn adaptive_expands_fewer_edges_on_low_diameter_graphs() {
        let g = gcgt_graph::gen::social_graph(&gcgt_graph::gen::SocialParams::twitter_like(900), 7);
        for kind in [
            EngineKind::Gcgt(Strategy::Full),
            EngineKind::GpuCsr,
            EngineKind::OutOfCore {
                inner: Strategy::Full,
            },
        ] {
            let build = |direction: DirectionMode| {
                let mut b = Session::builder()
                    .graph(g.clone())
                    .symmetrize(true)
                    .engine(kind)
                    .direction(direction);
                if matches!(kind, EngineKind::OutOfCore { .. }) {
                    let incore = Session::builder()
                        .graph(g.clone())
                        .symmetrize(true)
                        .build()
                        .unwrap();
                    let scratch = incore.footprint() - incore.structure_bytes();
                    b = b.memory_budget(scratch + (incore.structure_bytes() / 3).max(1));
                }
                b.build().unwrap()
            };
            let push = build(DirectionMode::Push).run(Bfs::from(0));
            let adaptive = build(DirectionMode::Adaptive).run(Bfs::from(0));
            assert_eq!(push.output.depth, adaptive.output.depth, "{}", kind.name());
            assert!(adaptive.stats.pull_steps >= 1, "{}", kind.name());
            let push_total = push.stats.pushed_edges + push.stats.pulled_edges;
            let adaptive_total = adaptive.stats.pushed_edges + adaptive.stats.pulled_edges;
            assert!(
                adaptive_total < push_total,
                "{}: adaptive {adaptive_total} vs push {push_total}",
                kind.name()
            );
        }
    }

    #[test]
    fn batch_reuses_one_residency() {
        let session = Session::builder()
            .graph(toys::grid(12, 12))
            .build()
            .unwrap();
        let sources: Vec<Bfs> = (0..8).map(Bfs::from).collect();
        let batch = session.run_batch(&sources);
        assert_eq!(batch.uploads, 1);
        assert_eq!(batch.outputs.len(), 8);
        // One residency: allocated bytes equal a single run's, not 8×.
        let single = session.run(Bfs::from(0));
        assert_eq!(batch.stats.allocated_bytes, single.stats.allocated_bytes);
        // The batch total is cheaper than eight standalone uploads.
        let standalone: f64 = (0..8).map(|s| session.run(Bfs::from(s)).total_ms()).sum();
        assert!(batch.total_ms() < standalone);
    }

    #[test]
    fn sharded_sessions_answer_bitwise_serial_and_charge_exchange() {
        let g = gcgt_graph::gen::web_graph(&gcgt_graph::gen::WebParams::uk2002_like(700), 11);
        let serial = Session::builder().graph(g.clone()).build().unwrap();
        let want = serial.run(Bfs::from(0));
        for devices in [1usize, 2, 4] {
            let session = Session::builder()
                .graph(g.clone())
                .shards(devices)
                .build()
                .unwrap();
            assert_eq!(session.num_shards(), Some(devices));
            assert_eq!(session.shard_plan().unwrap().devices(), devices);
            assert_eq!(session.interconnect(), Some(InterconnectConfig::default()));
            let run = session.run(Bfs::from(0));
            // The kernel side never changes: traversal results and modeled
            // execution are bitwise the serial run at any device count —
            // only the separate exchange counters move.
            assert_eq!(run.output.depth, want.output.depth, "{devices} devices");
            assert_eq!(run.output.reached, want.output.reached);
            assert_eq!(run.output.levels, want.output.levels);
            assert_eq!(
                sans_exchange(run.stats),
                sans_exchange(want.stats),
                "{devices} devices"
            );
            assert_eq!(
                run.stats.est_ms.to_bits(),
                want.stats.est_ms.to_bits(),
                "{devices} devices"
            );
            if devices == 1 {
                assert_eq!(run.stats.exchange_ms, 0.0);
                assert_eq!(run.stats.boundary_nodes, 0);
                assert_eq!(run.stats.sync_steps, 0);
                assert_eq!(run.total_ms(), want.total_ms());
            } else {
                assert!(run.stats.exchange_ms > 0.0, "{devices} devices");
                assert!(run.stats.boundary_nodes > 0, "{devices} devices");
                assert!(run.stats.sync_steps > 0, "{devices} devices");
                // And the exchange is part of the bill.
                assert!(run.total_ms() > want.total_ms(), "{devices} devices");
            }
        }
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let err = Session::builder()
            .graph(toys::figure1())
            .shards(0)
            .build()
            .unwrap_err();
        assert_eq!(err, SessionError::ZeroShards);
        assert!(err.to_string().contains("device"), "{err}");
    }

    #[test]
    fn sharded_kind_names_strategies_and_wrapping() {
        // Sharding is placement: `kind()` is the per-device engine,
        // `num_shards()` the device count.
        let shard = |kind: EngineKind, devices: usize| {
            Session::builder()
                .graph(toys::grid(12, 12))
                .engine(kind)
                .shards(devices)
                .build()
                .unwrap()
        };
        let session = shard(EngineKind::Gcgt(Strategy::Full), 4);
        assert_eq!(session.kind(), EngineKind::Gcgt(Strategy::Full));
        assert_eq!(session.kind().strategy(), Some(Strategy::Full));
        assert_eq!(session.num_shards(), Some(4));
        let ooc = shard(
            EngineKind::OutOfCore {
                inner: Strategy::TwoPhase,
            },
            2,
        );
        assert_eq!(ooc.kind().strategy(), Some(Strategy::TwoPhase));
        assert_eq!(ooc.num_shards(), Some(2));
        assert_eq!(shard(EngineKind::GpuCsr, 2).kind().strategy(), None);
    }

    #[test]
    fn sharding_composes_with_every_inner_engine_kind() {
        let g = toys::grid(12, 12);
        for kind in EngineKind::GPU_COMPARISON {
            let serial = Session::builder()
                .graph(g.clone())
                .engine(kind)
                .build()
                .unwrap()
                .run(Bfs::from(0));
            let sharded = Session::builder()
                .graph(g.clone())
                .engine(kind)
                .shards(3)
                .build()
                .unwrap()
                .run(Bfs::from(0));
            assert_eq!(serial.output.depth, sharded.output.depth, "{}", kind.name());
            assert_eq!(
                sans_exchange(serial.stats),
                sans_exchange(sharded.stats),
                "{}",
                kind.name()
            );
            assert_eq!(
                serial.stats.est_ms.to_bits(),
                sharded.stats.est_ms.to_bits(),
                "{}",
                kind.name()
            );
            assert!(sharded.stats.exchange_ms > 0.0, "{}", kind.name());
        }
    }

    #[test]
    fn sharded_executor_keeps_the_bitwise_serving_contract() {
        let g = gcgt_graph::gen::web_graph(&gcgt_graph::gen::WebParams::uk2002_like(500), 3);
        let session = Session::builder().graph(g).shards(4).build().unwrap();
        let mut worker = session.executor();
        let first = worker.run(Bfs::from(2));
        let second = worker.run(Bfs::from(0));
        let again = worker.run(Bfs::from(2));
        assert_eq!(first.output, again.output);
        assert_eq!(first.stats, again.stats);
        let serial = session.run(Bfs::from(2));
        assert_eq!(serial.stats, first.stats);
        // busy_ms bills the exchange on top of modeled execution.
        let est_sum = first.stats.est_ms + second.stats.est_ms + again.stats.est_ms;
        assert!(worker.busy_ms() > est_sum);
    }
}
