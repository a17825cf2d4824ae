//! GCGR v2 end-to-end: zero-copy loading must be indistinguishable from a
//! fresh encode everywhere a graph can run.
//!
//! * Property tests: arbitrary graphs × arbitrary CGR configurations
//!   round-trip through the v2 buffer both **owned** (`read_cgr`) and
//!   **zero-copy** (`CgrGraph::from_bytes`), with the Elias–Fano offset
//!   index decoding bit-for-bit the same dense array the encoder produced
//!   — and the legacy v1 layout keeps round-tripping too.
//! * All five applications produce bitwise-identical `QueryOutput`s *and*
//!   `RunStats` whether the session encoded the graph itself or adopted a
//!   saved v2 buffer — in-core, streaming out-of-core, sharded across 4
//!   modeled devices, and through a `ServePool` whose workers share the
//!   one zero-copy allocation.
//! * The `graph_compressed` builder path rejects conflicting options with
//!   typed errors, and a deferred-validation load of a corrupt buffer
//!   fails at session build with `SessionError::CorruptGraph` — except on
//!   the single-device streamer, which defers it to first touch.

use gcgt::cgr::io;
use gcgt::prelude::{
    web_graph, CgrConfig, CgrGraph, Code, Csr, EngineKind, LabelProp, Pagerank, Query, Reordering,
    ServePool, Session, SessionError, Strategy, ValidationMode, WebParams,
};
use proptest::prelude::{prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;

/// An arbitrary small graph as (node count, edge list).
fn arb_graph() -> impl PropStrategy<Value = Csr> {
    (2usize..100).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..300)
            .prop_map(move |edges| Csr::from_edges(n, &edges))
    })
}

/// An arbitrary CGR configuration over the supported parameter space.
fn arb_config() -> impl PropStrategy<Value = CgrConfig> {
    (
        prop_oneof![
            Just(Code::Gamma),
            Just(Code::Delta),
            (1u8..6).prop_map(Code::Zeta),
        ],
        prop_oneof![Just(None), (1u32..12).prop_map(Some)],
        prop_oneof![
            Just(None),
            Just(Some(16u32)),
            Just(Some(32)),
            Just(Some(64))
        ],
    )
        .prop_map(|(code, min_interval_len, segment_len_bytes)| CgrConfig {
            code,
            min_interval_len,
            segment_len_bytes,
            ..CgrConfig::paper_default()
        })
}

/// Serializes `cgr` into an in-memory v2 buffer.
fn v2_buffer(cgr: &CgrGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    io::write_cgr(cgr, &mut buf).expect("in-memory v2 write");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn v2_round_trips_owned_and_zero_copy(graph in arb_graph(), config in arb_config()) {
        let cgr = CgrGraph::encode(&graph, &config);
        let buf = v2_buffer(&cgr);

        // Owned load (file-style reader) and zero-copy adoption must both
        // reproduce the encoder's output exactly: same config, same
        // payload bits, and an Elias–Fano index that decodes the same
        // dense offset array the encoder built from.
        // (A v2 `read_cgr` adopts the words it read into shared storage
        // too — the owned-vs-shared split is a v1-reader distinction.)
        let owned = io::read_cgr(&buf[..]).expect("owned v2 read");
        let zero = CgrGraph::from_bytes(&buf).expect("zero-copy v2 load");
        prop_assert!(zero.bits().is_shared(), "from_bytes must borrow, not copy");
        for loaded in [&owned, &zero] {
            prop_assert_eq!(loaded.config(), cgr.config());
            prop_assert_eq!(loaded.bits(), cgr.bits());
            prop_assert_eq!(loaded.offsets_dense(), cgr.offsets_dense());
            prop_assert_eq!(loaded.stats(), cgr.stats());
            prop_assert_eq!(gcgt::cgr::decode::decode_all(loaded), graph.clone());
        }

        // A deferred load converges to the same proven graph.
        let deferred = io::read_cgr_with(&buf[..], ValidationMode::Deferred)
            .expect("deferred v2 read");
        prop_assert!(deferred.validation_pending());
        deferred.ensure_validated_all().expect("clean buffer validates");
        prop_assert!(!deferred.validation_pending());
    }

    #[test]
    fn v1_layout_still_round_trips(graph in arb_graph(), config in arb_config()) {
        let cgr = CgrGraph::encode(&graph, &config);
        let mut buf = Vec::new();
        io::write_cgr_v1(&cgr, &mut buf).expect("in-memory v1 write");
        let loaded = io::read_cgr(&buf[..]).expect("v1 read");
        prop_assert_eq!(loaded.bits(), cgr.bits());
        prop_assert_eq!(loaded.offsets_dense(), cgr.offsets_dense());
        prop_assert_eq!(gcgt::cgr::decode::decode_all(&loaded), graph);
    }
}

/// The traversal workload: a symmetrized generated web graph (Cc needs
/// symmetric adjacency) and the paper-default Full-strategy encoding.
fn workload() -> (Csr, CgrConfig) {
    let g = web_graph(&WebParams::uk2002_like(900), 77).symmetrized();
    (g, Strategy::Full.cgr_config(&CgrConfig::paper_default()))
}

/// One query per application.
fn five_apps(n: u32) -> Vec<Query> {
    vec![
        Query::Bfs(3 % n),
        Query::Cc,
        Query::Bc(5 % n),
        Query::Pagerank(Pagerank::default()),
        Query::LabelProp(LabelProp::default()),
    ]
}

#[test]
fn five_apps_bitwise_equal_in_core() {
    let (g, cfg) = workload();
    let buf = v2_buffer(&CgrGraph::encode(&g, &cfg));

    let baseline = Session::builder()
        .graph(g.clone())
        .compress(cfg)
        .engine(EngineKind::Gcgt(Strategy::Full))
        .build()
        .unwrap();
    let owned = Session::builder()
        .graph_compressed(io::read_cgr(&buf[..]).unwrap())
        .engine(EngineKind::Gcgt(Strategy::Full))
        .build()
        .unwrap();
    let zero = Session::builder()
        .graph_compressed(CgrGraph::from_bytes(&buf).unwrap())
        .engine(EngineKind::Gcgt(Strategy::Full))
        .build()
        .unwrap();

    for q in five_apps(g.num_nodes() as u32) {
        let want = baseline.run(q);
        for loaded in [&owned, &zero] {
            let got = loaded.run(q);
            assert_eq!(got.output, want.output, "{q:?}");
            assert_eq!(got.stats, want.stats, "{q:?}");
        }
    }
}

#[test]
fn five_apps_bitwise_equal_streaming_ooc() {
    let (g, cfg) = workload();
    let buf = v2_buffer(&CgrGraph::encode(&g, &cfg));

    // A budget that forces streaming: traversal scratch plus a quarter of
    // the compressed structure.
    let incore = Session::builder().graph(g.clone()).build().unwrap();
    let budget =
        (incore.footprint() - incore.structure_bytes()) + (incore.structure_bytes() / 4).max(1);

    let baseline = Session::builder()
        .graph(g.clone())
        .compress(cfg)
        .memory_budget(budget)
        .engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        })
        .build()
        .unwrap();
    assert!(baseline.is_streaming(), "budget must force streaming");
    // The deferred load is the one the OOC engine validates lazily,
    // partition by partition, inside `prepare_frontier`.
    let deferred = Session::builder()
        .graph_compressed(io::read_cgr_with(&buf[..], ValidationMode::Deferred).unwrap())
        .memory_budget(budget)
        .engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        })
        .build()
        .unwrap();
    assert!(deferred.is_streaming());

    for q in five_apps(g.num_nodes() as u32) {
        let want = baseline.run(q);
        let got = deferred.run(q);
        assert_eq!(got.output, want.output, "{q:?}");
        assert_eq!(got.stats, want.stats, "{q:?}");
    }
}

#[test]
fn five_apps_bitwise_equal_across_four_shards() {
    let (g, cfg) = workload();
    let buf = v2_buffer(&CgrGraph::encode(&g, &cfg));

    let baseline = Session::builder()
        .graph(g.clone())
        .compress(cfg)
        .engine(EngineKind::Gcgt(Strategy::Full))
        .shards(4)
        .build()
        .unwrap();
    let zero = Session::builder()
        .graph_compressed(CgrGraph::from_bytes(&buf).unwrap())
        .engine(EngineKind::Gcgt(Strategy::Full))
        .shards(4)
        .build()
        .unwrap();

    for q in five_apps(g.num_nodes() as u32) {
        let want = baseline.run(q);
        let got = zero.run(q);
        assert_eq!(got.output, want.output, "{q:?}");
        assert_eq!(got.stats, want.stats, "{q:?}");
    }
}

#[test]
fn serve_pool_workers_share_one_zero_copy_buffer() {
    let (g, cfg) = workload();
    let buf = v2_buffer(&CgrGraph::encode(&g, &cfg));

    let baseline = Session::builder()
        .graph(g.clone())
        .compress(cfg)
        .engine(EngineKind::Gcgt(Strategy::Full))
        .build()
        .unwrap();
    let prepared = Session::builder()
        .graph_compressed(CgrGraph::from_bytes(&buf).unwrap())
        .engine(EngineKind::Gcgt(Strategy::Full))
        .build()
        .unwrap()
        .prepared();
    assert!(
        prepared
            .cgr()
            .expect("GCGT sessions encode")
            .bits()
            .is_shared(),
        "the pool's shared PreparedGraph must keep the zero-copy storage"
    );

    let queries = five_apps(g.num_nodes() as u32);
    let report = ServePool::new(prepared, 3).unwrap().serve(&queries);
    for (i, q) in queries.iter().enumerate() {
        let want = baseline.run(*q);
        assert_eq!(report.outputs[i], Ok(want.output), "{q:?}");
        assert_eq!(report.per_query[i], want.stats, "{q:?}");
    }
}

#[test]
fn graph_compressed_conflicts_are_typed_errors() {
    let (g, cfg) = workload();
    let cgr = CgrGraph::encode(&g, &cfg);

    type Tweak = fn(gcgt::session::SessionBuilder) -> gcgt::session::SessionBuilder;
    let build = |f: Tweak, cgr: CgrGraph| f(Session::builder().graph_compressed(cgr)).build().err();
    let conflicts: [(Tweak, &str); 4] = [
        (
            |b| b.graph(web_graph(&WebParams::uk2002_like(64), 1)),
            "graph(..)",
        ),
        (|b| b.compress(CgrConfig::paper_default()), "compress(..)"),
        (|b| b.symmetrize(true), "symmetrize(true)"),
        (|b| b.reorder(Reordering::DegSort), "reorder(..)"),
    ];
    for (f, what) in conflicts {
        match build(f, cgr.clone()) {
            Some(SessionError::CompressedInputConflict { what: got }) => {
                assert_eq!(got, what);
            }
            other => panic!("expected CompressedInputConflict({what}), got {other:?}"),
        }
    }

    // Uncompressed engines cannot adopt a compressed input.
    let err = Session::builder()
        .graph_compressed(cgr.clone())
        .engine(EngineKind::GpuCsr)
        .build()
        .err();
    assert!(
        matches!(err, Some(SessionError::CompressUnsupported { .. })),
        "{err:?}"
    );

    // The baked-in layout faces the same strategy check as compress(..):
    // Full requires residual segmentation, an unsegmented encode is a
    // mismatch.
    let unsegmented = CgrGraph::encode(
        &g,
        &CgrConfig {
            segment_len_bytes: None,
            ..CgrConfig::paper_default()
        },
    );
    let err = Session::builder()
        .graph_compressed(unsegmented)
        .engine(EngineKind::Gcgt(Strategy::Full))
        .build()
        .err();
    assert!(
        matches!(err, Some(SessionError::LayoutMismatch { .. })),
        "{err:?}"
    );
}

/// A copy of `buf` with one payload bit flipped such that the deferred
/// load's structural header checks pass but full validation fails — the
/// same search the io unit tests use, over the real workload buffer.
fn deferred_only_corruption(buf: &[u8]) -> Vec<u8> {
    let payload_start = buf.len() - 64; // deep inside the payload section
    for byte in payload_start..buf.len() {
        for bit in 0..8u8 {
            let mut c = buf.to_vec();
            c[byte] ^= 1 << bit;
            if CgrGraph::from_bytes(&c).is_err()
                && io::read_cgr_with(&c[..], ValidationMode::Deferred).is_ok()
            {
                return c;
            }
        }
    }
    panic!("some payload flip is caught by validation only");
}

#[test]
fn deferred_corruption_surfaces_as_corrupt_graph_at_build() {
    let (g, cfg) = workload();
    let buf = v2_buffer(&CgrGraph::encode(&g, &cfg));
    let corrupt = deferred_only_corruption(&buf);
    let cgr = io::read_cgr_with(&corrupt[..], ValidationMode::Deferred).unwrap();

    // The session decodes a full CSR mirror, so the deferred graph is
    // proven at build — and the corruption becomes a typed error instead
    // of a traversal-time panic.
    let err = Session::builder().graph_compressed(cgr).build().err();
    assert!(
        matches!(err, Some(SessionError::CorruptGraph(_))),
        "{err:?}"
    );
}

/// Only the single-device streamer defers validation to first touch. A
/// sharded session's exchange accounting reads the CSR mirror's adjacency,
/// so a mirror that skipped a corrupt region would silently falsify it:
/// sharded streaming builds validate in full, at any device count.
#[test]
fn deferred_corruption_is_lazy_only_for_the_unsharded_streamer() {
    let (g, cfg) = workload();
    let buf = v2_buffer(&CgrGraph::encode(&g, &cfg));
    let corrupt = deferred_only_corruption(&buf);

    let incore = Session::builder().graph(g).build().unwrap();
    let budget =
        (incore.footprint() - incore.structure_bytes()) + (incore.structure_bytes() / 4).max(1);
    let build = |shards: Option<usize>| {
        let mut b = Session::builder()
            .graph_compressed(io::read_cgr_with(&corrupt[..], ValidationMode::Deferred).unwrap())
            .memory_budget(budget)
            .engine(EngineKind::OutOfCore {
                inner: Strategy::Full,
            });
        if let Some(devices) = shards {
            b = b.shards(devices);
        }
        b.build()
    };

    let lazy = build(None).expect("the unsharded streamer defers the corruption");
    assert!(lazy.is_streaming());
    for devices in [1, 2] {
        let err = build(Some(devices)).err();
        assert!(
            matches!(err, Some(SessionError::CorruptGraph(_))),
            "{devices} shards: {err:?}"
        );
    }
}
