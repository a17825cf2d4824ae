//! The three workloads: seeded inputs, the set-up pipeline through the
//! public API, the query batch, and the serial oracle every answer is
//! checked against.

use std::sync::Arc;

use gcgt_cgr::io::{self, ValidationMode};
use gcgt_cgr::{CgrConfig, CgrGraph};
use gcgt_core::{memory, DirectionMode, Pagerank, Query, QueryOutput, Strategy};
use gcgt_graph::gen::{social_graph, web_graph, SocialParams, WebParams};
use gcgt_graph::order::{GorderConfig, LlpConfig};
use gcgt_graph::refalgo::{self, BcResult, CcResult, PagerankConfig};
use gcgt_graph::{Csr, NodeId, Reordering, VnodeConfig, VnodeGraph, UNREACHED};
use gcgt_serve::ServePool;
use gcgt_session::{EngineKind, PreparedGraph, SessionBuilder};

use crate::trace::Tracer;

/// Worker threads of every pool: one per core of the 2-core reference box.
pub const POOL_WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// uk-2007-like web graph, vnode + LLP, in-core GCGT, BFS batch.
    WebBfs,
    /// twitter-like social graph, symmetrized + Gorder, adaptive direction,
    /// two shards, mixed BFS/BC/CC/PageRank batch.
    SocialMixed,
    /// eu-2015-like boilerplate web graph, vnode + LLP, reference-compressed
    /// GCGR v3 bytes reloaded with deferred validation, out-of-core
    /// streaming under a tight budget, BFS batch.
    WebStream,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::WebBfs, Kind::SocialMixed, Kind::WebStream];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WebBfs => "web-bfs",
            Kind::SocialMixed => "social-mixed",
            Kind::WebStream => "web-stream",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Generated node count and batch size. `smoke` picks the tiny sizes of
    /// the smoke run. Batches of 128 leave 12 queries beyond the modeled
    /// p90. Graphs are small enough for over a dozen batches per run: pool
    /// wall time jitters by about 10% from batch to batch, and the median
    /// needs many batches to settle.
    pub fn size(self, smoke: bool) -> Size {
        match (self, smoke) {
            (Kind::WebBfs, false) => Size {
                nodes: 12_000,
                batch: 128,
            },
            (Kind::SocialMixed, false) => Size {
                nodes: 3_000,
                batch: 128,
            },
            (Kind::WebStream, false) => Size {
                nodes: 6_000,
                batch: 128,
            },
            (Kind::WebBfs | Kind::WebStream, true) => Size {
                nodes: 600,
                batch: 16,
            },
            (Kind::SocialMixed, true) => Size {
                nodes: 300,
                batch: 16,
            },
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub nodes: usize,
    pub batch: usize,
}

/// SplitMix64: the seed stream behind every generator seed and source pick.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Everything set-up produced: the ready pool plus what the oracle and the
/// metrics need.
pub struct Built {
    /// The exact CSR handed to the session (or encoded for it): the oracle
    /// runs on this graph.
    pub graph: Arc<Csr>,
    /// Real (non-virtual) nodes: `0..n_real` are the source candidates.
    pub n_real: usize,
    /// Edges before virtual-node compression: the base of the paper's
    /// compression rate.
    pub base_edges: usize,
    pub prepared: Arc<PreparedGraph>,
    pub pool: ServePool,
}

/// Seed → pool ready: generate, vnode or symmetrize, reorder, permute,
/// (encode, write, load), prepare.
pub fn build(kind: Kind, size: Size, seed: u64, tr: &mut Tracer) -> Built {
    let gen_seed = SplitMix::new(seed ^ 0x6752_4150_4853_4545).next_u64();
    tr.span("setup", |tr| {
        let (graph, n_real, base_edges) = match kind {
            Kind::WebBfs | Kind::WebStream => {
                let params = if kind == Kind::WebBfs {
                    WebParams::uk2007_like(size.nodes)
                } else {
                    WebParams::eu2015_like(size.nodes)
                };
                let raw = tr.span("graph.generate", |_| web_graph(&params, gen_seed));
                let vnode = tr.span("graph.vnode", |_| {
                    VnodeGraph::compress(&raw, &VnodeConfig::default())
                });
                let perm = tr.span("graph.reorder", |_| {
                    Reordering::Llp(LlpConfig::default()).compute(&vnode.graph)
                });
                let graph = tr.span("graph.permute", |_| vnode.graph.permuted(&perm));
                (graph, vnode.n_real, raw.num_edges())
            }
            Kind::SocialMixed => {
                let raw = tr.span("graph.generate", |_| {
                    social_graph(&SocialParams::twitter_like(size.nodes), gen_seed)
                });
                let sym = tr.span("graph.symmetrize", |_| raw.symmetrized());
                let perm = tr.span("graph.reorder", |_| {
                    Reordering::Gorder(GorderConfig::default()).compute(&sym)
                });
                let graph = tr.span("graph.permute", |_| sym.permuted(&perm));
                let edges = sym.num_edges();
                (graph, sym.num_nodes(), edges)
            }
        };
        // Reordering already happened above, so the permutation is not
        // handed to the session: the oracle and the session share one id
        // space.
        let graph = Arc::new(graph);
        let builder = match kind {
            Kind::WebBfs => SessionBuilder::default()
                .graph_shared(Arc::clone(&graph))
                .engine(EngineKind::Gcgt(Strategy::Full)),
            Kind::SocialMixed => SessionBuilder::default()
                .graph_shared(Arc::clone(&graph))
                .engine(EngineKind::Gcgt(Strategy::Full))
                .direction(DirectionMode::Adaptive)
                .shards(2),
            Kind::WebStream => {
                let config = Strategy::Full
                    .cgr_config(&CgrConfig::paper_default())
                    .with_ref_window(8);
                let cgr = tr.span("cgr.encode", |_| CgrGraph::encode(&graph, &config));
                let bytes = tr.span("cgr.write", |_| {
                    let mut bytes = Vec::new();
                    io::write_cgr(&cgr, &mut bytes).expect("writing to a Vec cannot fail");
                    bytes
                });
                let loaded = tr.span("cgr.load", |_| {
                    CgrGraph::from_bytes_with(&bytes, ValidationMode::Deferred)
                        .expect("a freshly written GCGR image loads")
                });
                let budget = memory::traversal_buffers_bytes(loaded.num_nodes())
                    + memory::gcgt_structure_bytes(&loaded) / 8;
                SessionBuilder::default()
                    .graph_compressed(loaded)
                    .engine(EngineKind::OutOfCore {
                        inner: Strategy::Full,
                    })
                    .memory_budget(budget)
            }
        };
        let prepared = tr.span("session.prepare", |_| {
            builder.prepare().expect("workload session builds")
        });
        let prepared = Arc::new(prepared);
        let pool = tr.span("serve.pool_new", |_| {
            ServePool::new(Arc::clone(&prepared), POOL_WORKERS).expect("two workers")
        });
        Built {
            graph,
            n_real,
            base_edges,
            prepared,
            pool,
        }
    })
}

/// The oracle's answer to one query.
pub enum Expected {
    /// BFS depths and the graph-defined traversed edges: the out-degree sum
    /// of the reached set.
    Bfs {
        depth: Vec<u32>,
        edges: u64,
    },
    Bc(BcResult),
    Cc(CcResult),
    Pagerank(Vec<f64>),
}

impl Expected {
    pub fn bfs_edges(&self) -> Option<u64> {
        match self {
            Expected::Bfs { edges, .. } => Some(*edges),
            _ => None,
        }
    }
}

/// The seeded batch: BFS sources (and BC sources on `social-mixed`) drawn
/// from real nodes with out-edges; `social-mixed` repeats the pattern
/// 10 BFS, 2 BC, 1 CC, 1 PageRank per 16 queries.
pub fn queries(kind: Kind, built: &Built, seed: u64, batch: usize) -> Vec<Query> {
    let mut rng = SplitMix::new(seed ^ 0x5155_4552_4945_5321);
    let graph = &built.graph;
    let mut source = || loop {
        let s = rng.below(built.n_real) as NodeId;
        if graph.degree(s) > 0 {
            return s;
        }
    };
    (0..batch)
        .map(|i| match kind {
            Kind::WebBfs | Kind::WebStream => Query::Bfs(source()),
            Kind::SocialMixed => match i % 16 {
                10 | 11 => Query::Bc(source()),
                12 => Query::Cc,
                13 => Query::Pagerank(Pagerank::default()),
                _ => Query::Bfs(source()),
            },
        })
        .collect()
}

/// Serial reference answers for `queries` on the session's exact CSR.
/// Whole-graph answers (CC, PageRank) are computed once and shared.
pub fn oracle(graph: &Csr, queries: &[Query]) -> Vec<Arc<Expected>> {
    let mut cc: Option<Arc<Expected>> = None;
    let mut pr: Option<Arc<Expected>> = None;
    queries
        .iter()
        .map(|q| match q {
            Query::Bfs(s) => {
                let depth = refalgo::bfs(graph, *s).depth;
                let edges = depth
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d != UNREACHED)
                    .map(|(u, _)| graph.degree(u as NodeId) as u64)
                    .sum();
                Arc::new(Expected::Bfs { depth, edges })
            }
            Query::Bc(s) => Arc::new(Expected::Bc(refalgo::betweenness_from_source(graph, *s))),
            Query::Cc => Arc::clone(cc.get_or_insert_with(|| {
                Arc::new(Expected::Cc(refalgo::connected_components(graph)))
            })),
            Query::Pagerank(p) => Arc::clone(pr.get_or_insert_with(|| {
                let config = PagerankConfig {
                    damping: p.damping,
                    max_iters: p.max_iters,
                    tolerance: p.tolerance,
                };
                Arc::new(Expected::Pagerank(refalgo::pagerank(graph, config).0))
            })),
            Query::LabelProp(_) => unreachable!("label propagation is not in any batch"),
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// Whether `got` answers like the oracle: BFS depths and CC components
/// exactly, BC within 1e-9 relative, PageRank within 1e-6.
pub fn matches(want: &Expected, got: &QueryOutput) -> bool {
    match (want, got) {
        (Expected::Bfs { depth, .. }, QueryOutput::Bfs(run)) => run.depth == *depth,
        (Expected::Bc(want), QueryOutput::Bc(run)) => {
            run.depth == want.depth
                && run.sigma.len() == want.sigma.len()
                && run
                    .sigma
                    .iter()
                    .zip(&want.sigma)
                    .all(|(&a, &b)| close(a, b))
                && run.delta.len() == want.delta.len()
                && run
                    .delta
                    .iter()
                    .zip(&want.delta)
                    .all(|(&a, &b)| close(a, b))
        }
        (Expected::Cc(want), QueryOutput::Cc(run)) => {
            run.component == want.component && run.count == want.count
        }
        (Expected::Pagerank(want), QueryOutput::Pagerank(run)) => {
            run.ranks.len() == want.len()
                && run
                    .ranks
                    .iter()
                    .zip(want)
                    .all(|(&a, &b)| (a - b).abs() < 1e-6)
        }
        _ => false,
    }
}

/// The application name of a query, for per-app host times.
pub fn app(query: &Query) -> &'static str {
    match query {
        Query::Bfs(_) => "bfs",
        Query::Bc(_) => "bc",
        Query::Cc => "cc",
        Query::Pagerank(_) => "pagerank",
        Query::LabelProp(_) => "labelprop",
    }
}
