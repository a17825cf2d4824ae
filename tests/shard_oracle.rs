//! Sharded-traversal oracle equivalence: every application, at every shard
//! count, over every inner engine kind — including streaming out-of-core
//! under a per-device budget — produces answers **bitwise identical** to
//! the serial single-device run, with identical kernel-side `RunStats`.
//! Sharding moves cost into the separate frontier-exchange counters
//! (`exchange_ms`, `boundary_nodes`, `sync_steps`); it never changes what a
//! traversal computes or what the kernels are charged.

// Explicit imports: both `gcgt::prelude` and `proptest::prelude` export a
// `Strategy`, and glob-importing both is ambiguous.
use gcgt::prelude::{
    refalgo, social_graph, web_graph, Bfs, Csr, DeviceConfig, DirectionMode, EngineKind, LabelProp,
    Pagerank, Query, QueryOutput, Reordering, RunStats, ServePool, Session, SessionError,
    SocialParams, Strategy, WebParams,
};
use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;

fn graph() -> Csr {
    // Symmetrized so connected components are meaningful; big enough that
    // eight shards all own real work.
    web_graph(&WebParams::uk2002_like(1_200), 23).symmetrized()
}

fn mixed_queries() -> Vec<Query> {
    vec![
        Query::Bfs(0),
        Query::Cc,
        Query::Bc(5),
        Query::Pagerank(Pagerank::default()),
        Query::LabelProp(LabelProp::default()),
        Query::Bfs(311),
    ]
}

/// The kernel-side view of [`RunStats`]: exchange counters zeroed, so a
/// sharded run can be compared bitwise against its single-device oracle.
fn kernel_side(stats: RunStats) -> RunStats {
    RunStats {
        exchange_ms: 0.0,
        boundary_nodes: 0,
        sync_steps: 0,
        ..stats
    }
}

/// Compares the application answers of two query outputs, ignoring the
/// embedded per-run statistics (which legitimately differ by the exchange
/// counters between sharded and serial runs).
fn assert_same_answer(a: &QueryOutput, b: &QueryOutput, ctx: &str) {
    match (a, b) {
        (QueryOutput::Bfs(p), QueryOutput::Bfs(q)) => {
            assert_eq!(p.depth, q.depth, "{ctx}");
            assert_eq!(p.reached, q.reached, "{ctx}");
            assert_eq!(p.levels, q.levels, "{ctx}");
        }
        (QueryOutput::Cc(p), QueryOutput::Cc(q)) => {
            assert_eq!(p.component, q.component, "{ctx}");
            assert_eq!(p.count, q.count, "{ctx}");
        }
        (QueryOutput::Bc(p), QueryOutput::Bc(q)) => {
            assert_eq!(p.depth, q.depth, "{ctx}");
            assert_eq!(p.sigma, q.sigma, "{ctx}");
            assert_eq!(p.delta, q.delta, "{ctx}");
        }
        (QueryOutput::Pagerank(p), QueryOutput::Pagerank(q)) => {
            assert_eq!(p.ranks, q.ranks, "{ctx}");
            assert_eq!(p.iterations, q.iterations, "{ctx}");
        }
        (QueryOutput::LabelProp(p), QueryOutput::LabelProp(q)) => {
            assert_eq!(p.labels, q.labels, "{ctx}");
            assert_eq!(p.communities, q.communities, "{ctx}");
        }
        _ => panic!("{ctx}: mismatched output variants"),
    }
}

#[test]
fn every_app_matches_serial_at_every_shard_count() {
    let g = graph();
    let serial = Session::builder().graph(g.clone()).build().unwrap();
    let mut boundary_by_devices = Vec::new();
    for devices in [1usize, 2, 4, 8] {
        let sharded = Session::builder()
            .graph(g.clone())
            .shards(devices)
            .build()
            .unwrap();
        assert_eq!(sharded.num_shards(), Some(devices));
        let mut boundary_total = 0u64;
        for (i, query) in mixed_queries().iter().enumerate() {
            let want = serial.run(*query);
            let got = sharded.run(*query);
            let ctx = format!("query {i} on {devices} devices");
            assert_same_answer(&got.output, &want.output, &ctx);
            // Kernel-side statistics — launches, tallies, est_ms, memory
            // traffic, direction counters — are bitwise the serial run's.
            assert_eq!(kernel_side(got.stats), kernel_side(want.stats), "{ctx}");
            assert_eq!(
                got.stats.est_ms.to_bits(),
                want.stats.est_ms.to_bits(),
                "{ctx}"
            );
            if devices == 1 {
                assert_eq!(got.stats.exchange_ms, 0.0, "{ctx}");
                assert_eq!(got.stats.boundary_nodes, 0, "{ctx}");
                assert_eq!(got.stats.sync_steps, 0, "{ctx}");
            } else {
                assert!(got.stats.exchange_ms > 0.0, "{ctx}");
                assert!(got.stats.boundary_nodes > 0, "{ctx}");
                assert!(got.stats.sync_steps > 0, "{ctx}");
            }
            boundary_total += got.stats.boundary_nodes;
        }
        boundary_by_devices.push(boundary_total);
    }
    // Nested shard boundaries: refining the placement only adds cut
    // points, so boundary traffic is monotone in the device count.
    assert_eq!(boundary_by_devices[0], 0);
    assert!(boundary_by_devices[1] > 0);
    for pair in boundary_by_devices.windows(2) {
        assert!(pair[0] <= pair[1], "{boundary_by_devices:?}");
    }
}

#[test]
fn directions_compose_with_sharded_ownership() {
    // Low diameter + symmetrized so the adaptive heuristic really pulls.
    let g = social_graph(&SocialParams::twitter_like(700), 23).symmetrized();
    for direction in [
        DirectionMode::Push,
        DirectionMode::Pull,
        DirectionMode::Adaptive,
    ] {
        let serial = Session::builder()
            .graph(g.clone())
            .direction(direction)
            .build()
            .unwrap();
        for devices in [2usize, 4] {
            let sharded = Session::builder()
                .graph(g.clone())
                .direction(direction)
                .shards(devices)
                .build()
                .unwrap();
            for source in [0u32, 5, 31] {
                let want = serial.run(Bfs::from(source));
                let got = sharded.run(Bfs::from(source));
                let ctx = format!("{direction:?} source {source} on {devices} devices");
                assert_eq!(got.output.depth, want.output.depth, "{ctx}");
                assert_eq!(kernel_side(got.stats), kernel_side(want.stats), "{ctx}");
                assert!(got.stats.exchange_ms > 0.0, "{ctx}");
                if direction == DirectionMode::Adaptive {
                    // The mode switch really happened under sharding.
                    assert_eq!(got.stats.pull_steps, want.stats.pull_steps, "{ctx}");
                }
            }
        }
        if direction == DirectionMode::Adaptive {
            assert!(
                serial.run(Bfs::from(0)).stats.pull_steps >= 1,
                "adaptive never pulled — the direction leg is vacuous"
            );
        }
    }
}

#[test]
fn every_inner_engine_kind_matches_its_serial_oracle() {
    let g = graph();
    for kind in [
        EngineKind::Gcgt(Strategy::Full),
        EngineKind::Gcgt(Strategy::TwoPhase),
        EngineKind::GpuCsr,
        EngineKind::Gunrock,
    ] {
        let serial = Session::builder()
            .graph(g.clone())
            .engine(kind)
            .build()
            .unwrap();
        let sharded = Session::builder()
            .graph(g.clone())
            .engine(kind)
            .shards(4)
            .build()
            .unwrap();
        for source in [0u32, 311] {
            let want = serial.run(Bfs::from(source));
            let got = sharded.run(Bfs::from(source));
            let ctx = format!("{} source {source}", kind.name());
            assert_eq!(got.output.depth, want.output.depth, "{ctx}");
            assert_eq!(kernel_side(got.stats), kernel_side(want.stats), "{ctx}");
            assert!(got.stats.exchange_ms > 0.0, "{ctx}");
        }
    }
}

#[test]
fn streaming_shards_match_serial_streaming_under_per_device_budgets() {
    let g = graph();
    let incore = Session::builder().graph(g.clone()).build().unwrap();
    let scratch = incore.footprint() - incore.structure_bytes();
    let budget = scratch + (incore.structure_bytes() / 8).max(1);
    let device = DeviceConfig::titan_v_scaled(1 << 30);
    let serial = Session::builder()
        .graph(g.clone())
        .device(device)
        .memory_budget(budget)
        .engine(EngineKind::OutOfCore {
            inner: Strategy::Full,
        })
        .build()
        .unwrap();
    assert!(serial.is_streaming());
    for devices in [1, 4] {
        let sharded = Session::builder()
            .graph(g.clone())
            .device(device)
            .memory_budget(budget)
            .engine(EngineKind::OutOfCore {
                inner: Strategy::Full,
            })
            .shards(devices)
            .build()
            .expect("aggregate of the per-device caches fits the pool");
        assert!(sharded.is_streaming());
        for query in [
            Query::Bfs(0),
            Query::Cc,
            Query::Pagerank(Pagerank::default()),
        ] {
            let want = serial.run(query);
            let got = sharded.run(query);
            let ctx = format!("{devices} streaming shard(s), {query:?}");
            assert_same_answer(&got.output, &want.output, &ctx);
            if devices == 1 {
                // One streaming shard is the serial streaming engine: same
                // faults, transfers and kernel time, and no exchange.
                assert_eq!(got.stats, want.stats, "{ctx}");
                continue;
            }
            // Decode cost-attribution survives the composition: streaming
            // and sharding both leave the modeled kernel time untouched.
            assert_eq!(got.stats.est_ms.to_bits(), want.stats.est_ms.to_bits());
            assert_eq!(got.stats.launches, want.stats.launches);
            assert!(got.stats.partition_faults > 0, "shards never faulted");
            assert!(got.stats.transfer_ms > 0.0);
            assert!(got.stats.exchange_ms > 0.0);
        }
    }
}

#[test]
fn sharded_streaming_verifies_the_aggregate_cache_capacity() {
    let g = graph();
    let incore = Session::builder().graph(g.clone()).build().unwrap();
    let scratch = incore.footprint() - incore.structure_bytes();
    let per_device = scratch + (incore.structure_bytes() / 8).max(1);
    // A pool that holds one per-device cache comfortably but not eight.
    let device = DeviceConfig::titan_v_scaled(scratch + incore.structure_bytes() / 4);
    let build = |devices: usize| {
        Session::builder()
            .graph(g.clone())
            .device(device)
            .memory_budget(per_device)
            .engine(EngineKind::OutOfCore {
                inner: Strategy::Full,
            })
            .shards(devices)
            .build()
    };
    assert!(build(1).is_ok(), "one per-device cache fits");
    let err = build(8).unwrap_err();
    assert!(
        matches!(err, SessionError::Oom(_)),
        "eight per-device caches must overflow the pool, got {err:?}"
    );
}

#[test]
fn reordered_sharded_session_answers_in_original_ids() {
    let g = graph();
    let want = refalgo::bfs(&g, 17);
    let session = Session::builder()
        .graph(g)
        .reorder(Reordering::DegSort)
        .shards(4)
        .build()
        .unwrap();
    let run = session.run(Bfs::from(17));
    assert_eq!(run.output.depth, want.depth);
    assert!(run.stats.exchange_ms > 0.0);
}

#[test]
fn serve_pools_compose_with_sharding_bitwise() {
    // Workers × devices: a 4-worker pool over a 4-shard prepared graph —
    // every per-query report must be bitwise the sharded serial run,
    // exchange counters included.
    let g = graph();
    let prepared = Session::builder()
        .graph(g)
        .shards(4)
        .build()
        .unwrap()
        .prepared();
    let queries = mixed_queries();
    let one = ServePool::new(prepared.clone(), 1).unwrap().serve(&queries);
    let four = ServePool::new(prepared.clone(), 4).unwrap().serve(&queries);
    for (i, query) in queries.iter().enumerate() {
        let oracle = prepared.run(*query);
        assert_eq!(one.outputs[i], Ok(oracle.output.clone()), "query {i} (1w)");
        assert_eq!(four.outputs[i], Ok(oracle.output), "query {i} (4w)");
        assert_eq!(one.per_query[i], oracle.stats, "query {i} (1w)");
        assert_eq!(four.per_query[i], oracle.stats, "query {i} (4w)");
        assert!(four.per_query[i].exchange_ms > 0.0, "query {i}");
    }
    assert_eq!(one.outputs, four.outputs);
    assert_eq!(one.per_query, four.per_query);
    // The exchange is billed into the aggregate serving statistics and the
    // deterministic dispatch timeline.
    assert!(four.stats.exchange_ms > 0.0);
    assert_eq!(
        one.stats.exchange_ms.to_bits(),
        four.stats.exchange_ms.to_bits()
    );
    let serial_cost: f64 = four
        .per_query
        .iter()
        .map(|s| s.est_ms + s.transfer_ms + s.exchange_ms)
        .sum();
    assert!((one.stats.makespan_ms - serial_cost).abs() < 1e-12);
}

/// An arbitrary small graph as (node count, edge list).
fn arb_graph() -> impl PropStrategy<Value = Csr> {
    (2usize..120).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..400)
            .prop_map(move |edges| Csr::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_graph_any_shard_count_matches_serial(
        graph in arb_graph(),
        devices in 1usize..9,
        source_seed in 0u32..1000,
    ) {
        let source = source_seed % graph.num_nodes() as u32;
        let serial = Session::builder()
            .graph(graph.clone())
            .build()
            .unwrap()
            .run(Bfs::from(source));
        let sharded = Session::builder()
            .graph(graph)
            .shards(devices)
            .build()
            .unwrap()
            .run(Bfs::from(source));
        prop_assert_eq!(&sharded.output.depth, &serial.output.depth);
        prop_assert_eq!(sharded.output.reached, serial.output.reached);
        prop_assert_eq!(kernel_side(sharded.stats), kernel_side(serial.stats));
    }
}
