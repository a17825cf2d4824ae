//! Metric derivation, the determinism guard and the result line.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;

use gcgt_core::{Query, QueryOutput};
use gcgt_serve::{percentile, ServeReport};
use gcgt_simt::tally::ALL_CLASSES;
use gcgt_simt::{MemStats, RunStats, Tally};

use crate::trace::Tracer;
use crate::workload::{self, Built, Expected};

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Host wall and process CPU seconds of one pool batch.
#[derive(Clone, Copy, Debug)]
pub struct Batch {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// The host the numbers were measured on.
pub struct HostEnv {
    pub nproc: usize,
    pub available_parallelism: usize,
    pub pool_workers: usize,
}

impl HostEnv {
    pub fn describe(&self) -> String {
        format!(
            "host: nproc {} available_parallelism {} pool_workers {}; \
             gcgt_simt::parallel_warps spawns available_parallelism ({}) scoped threads \
             per kernel launch of more than 8 warps, so a batch runs up to {} host threads",
            self.nproc,
            self.available_parallelism,
            self.pool_workers,
            self.available_parallelism,
            self.pool_workers * self.available_parallelism
        )
    }
}

/// The end-to-end metrics that come from the modeled clock or the encoding.
pub const E2E_MODELED: [&str; 5] = [
    "modeled_makespan_ms",
    "modeled_service_p50_ms",
    "modeled_service_p90_ms",
    "modeled_mteps",
    "compression_rate",
];

const APPS: [&str; 4] = ["bfs", "bc", "cc", "pagerank"];

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Every number that must repeat bit for bit for one binary and seed: the
/// modeled end-to-end metrics and every per-layer count, all taken from
/// the first (warm-up) batch. Later batches are compared against it.
pub fn modeled(
    built: &Built,
    queries: &[Query],
    expected: &[Arc<Expected>],
    report: &ServeReport<QueryOutput>,
) -> Vec<Metric> {
    let stats = &report.stats;
    let per_query = &report.per_query;
    let prepared = &built.prepared;
    let mut out = Vec::new();

    // End-to-end, modeled clock.
    out.push(Metric::new("modeled_makespan_ms", "ms", stats.makespan_ms));
    out.push(Metric::new(
        "modeled_service_p50_ms",
        "ms",
        stats.service_p50_ms,
    ));
    let service = sorted(stats.service_ms.clone());
    out.push(Metric::new(
        "modeled_service_p90_ms",
        "ms",
        percentile(&service, 0.90),
    ));
    let (mut bfs_edges, mut bfs_service_ms) = (0u64, 0.0f64);
    for (i, want) in expected.iter().enumerate() {
        if let Some(edges) = want.bfs_edges() {
            bfs_edges += edges;
            bfs_service_ms += stats.service_ms[i];
        }
    }
    out.push(Metric::new(
        "modeled_mteps",
        "MTEPS",
        bfs_edges as f64 / (bfs_service_ms * 1e-3) / 1e6,
    ));
    // The paper's rate: 32 bits per pre-vnode edge over the resident
    // compressed bits, from the encoded graph itself (a streaming session
    // reports zero structure bytes).
    let cgr = prepared.cgr().expect("every workload runs a GCGT engine");
    let cgr_bits = 8.0 * cgr.size_bytes() as f64;
    out.push(Metric::new(
        "compression_rate",
        "ratio",
        32.0 * built.base_edges as f64 / cgr_bits,
    ));

    // graph / cgr / session.
    out.push(Metric::new(
        "graph.vnode_edge_ratio",
        "ratio",
        built.graph.num_edges() as f64 / built.base_edges as f64,
    ));
    let cs = cgr.stats();
    out.push(Metric::new(
        "cgr.bits_per_edge",
        "bit/edge",
        cgr_bits / built.base_edges as f64,
    ));
    out.push(Metric::new(
        "cgr.interval_edge_share",
        "fraction",
        cs.interval_edges as f64 / cs.edges.max(1) as f64,
    ));
    out.push(Metric::new(
        "cgr.ref_node_share",
        "fraction",
        cs.ref_nodes as f64 / cs.nodes.max(1) as f64,
    ));
    out.push(Metric::new(
        "session.footprint_bytes",
        "bytes",
        prepared.footprint() as f64,
    ));
    out.push(Metric::new("session.upload_ms", "ms", prepared.upload_ms()));

    // simt: sums over the batch.
    let mut tally = Tally::default();
    let mut mem = MemStats::default();
    for s in per_query {
        tally.merge(&s.tally);
        mem.merge(&s.mem);
    }
    let sum_u = |f: fn(&RunStats) -> u64| per_query.iter().map(f).sum::<u64>() as f64;
    let sum_f = |f: fn(&RunStats) -> f64| per_query.iter().map(f).sum::<f64>();
    out.push(Metric::new("simt.launches", "count", sum_u(|s| s.launches)));
    out.push(Metric::new("simt.kernel_ms", "ms", sum_f(|s| s.est_ms)));
    out.push(Metric::new("simt.cycles", "cycles", sum_f(|s| s.cycles)));
    out.push(Metric::new(
        "simt.lane_utilization",
        "fraction",
        tally.utilization(),
    ));
    out.push(Metric::new(
        "simt.mem_transactions",
        "count",
        mem.transactions as f64,
    ));
    out.push(Metric::new(
        "simt.cache_hit_rate",
        "fraction",
        mem.cache_hit_rate(),
    ));
    out.push(Metric::new(
        "simt.lines_per_step",
        "lines",
        mem.lines_per_step(),
    ));
    for class in ALL_CLASSES {
        out.push(Metric::new(
            format!("simt.issues.{}", class.name()),
            "count",
            tally.issues[class as usize] as f64,
        ));
    }

    // core: direction counters.
    out.push(Metric::new(
        "core.pushed_edges",
        "count",
        sum_u(|s| s.pushed_edges),
    ));
    out.push(Metric::new(
        "core.pulled_edges",
        "count",
        sum_u(|s| s.pulled_edges),
    ));
    out.push(Metric::new(
        "core.push_steps",
        "count",
        sum_u(|s| s.push_steps),
    ));
    out.push(Metric::new(
        "core.pull_steps",
        "count",
        sum_u(|s| s.pull_steps),
    ));

    // serve: the deterministic FIFO timeline.
    out.push(Metric::new(
        "serve.utilization",
        "fraction",
        stats.utilization(),
    ));
    out.push(Metric::new(
        "serve.queue_wait_p50_ms",
        "ms",
        stats.queue_p50_ms,
    ));
    out.push(Metric::new(
        "serve.completed_share",
        "fraction",
        stats.completed as f64 / queries.len() as f64,
    ));

    // ooc and shard: zero on the workloads that bypass them.
    let busy = stats.work_ms + stats.transfer_ms + stats.exchange_ms;
    out.push(Metric::new(
        "ooc.partitions",
        "count",
        prepared.num_partitions().unwrap_or(0) as f64,
    ));
    out.push(Metric::new(
        "ooc.partition_faults",
        "count",
        sum_u(|s| s.partition_faults),
    ));
    out.push(Metric::new(
        "ooc.partition_evictions",
        "count",
        sum_u(|s| s.partition_evictions),
    ));
    out.push(Metric::new("ooc.transfer_ms", "ms", stats.transfer_ms));
    out.push(Metric::new(
        "ooc.transfer_share",
        "fraction",
        stats.transfer_ms / busy,
    ));
    out.push(Metric::new("shard.exchange_ms", "ms", stats.exchange_ms));
    out.push(Metric::new(
        "shard.boundary_nodes",
        "count",
        sum_u(|s| s.boundary_nodes),
    ));
    out.push(Metric::new(
        "shard.sync_steps",
        "count",
        sum_u(|s| s.sync_steps),
    ));
    out.push(Metric::new(
        "shard.exchange_share",
        "fraction",
        stats.exchange_ms / busy,
    ));
    out
}

/// What the traced pass hands to [`per_layer`].
pub struct LayerInputs<'a> {
    pub built: &'a Built,
    pub queries: &'a [Query],
    pub expected: &'a [Arc<Expected>],
    pub modeled: &'a [Metric],
    pub tracer: &'a Tracer,
    /// Host seconds of each query run serially through one `Executor`.
    pub serial_s: &'a [f64],
    pub plain: &'a [Batch],
    pub traced: &'a [Batch],
    pub setup_plain_s: f64,
    pub setup_traced_s: f64,
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Every per-layer metric: the modeled counts plus the host times of the
/// traced pass.
pub fn per_layer(inp: &LayerInputs) -> Vec<Metric> {
    let mut out: Vec<Metric> = inp
        .modeled
        .iter()
        .filter(|m| !E2E_MODELED.contains(&m.name.as_str()))
        .cloned()
        .collect();
    let span_s = |name: &str| inp.tracer.durations_s(name).iter().sum::<f64>();
    for (metric, span) in [
        ("graph.generate_s", "graph.generate"),
        ("graph.vnode_s", "graph.vnode"),
        ("graph.symmetrize_s", "graph.symmetrize"),
        ("graph.reorder_s", "graph.reorder"),
        ("graph.permute_s", "graph.permute"),
        ("cgr.encode_s", "cgr.encode"),
        ("cgr.write_s", "cgr.write"),
        ("cgr.load_s", "cgr.load"),
        ("session.prepare_s", "session.prepare"),
    ] {
        out.push(Metric::new(metric, "s", span_s(span)));
    }

    // core: serial per-query host times.
    let mut by_app: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut bfs_edges, mut bfs_host_s) = (0u64, 0.0f64);
    for (i, q) in inp.queries.iter().enumerate() {
        by_app
            .entry(workload::app(q))
            .or_default()
            .push(inp.serial_s[i] * 1e3);
        if let Some(edges) = inp.expected[i].bfs_edges() {
            bfs_edges += edges;
            bfs_host_s += inp.serial_s[i];
        }
    }
    for app in APPS {
        let times = sorted(by_app.remove(app).unwrap_or_default());
        out.push(Metric::new(
            format!("core.{app}.host_ms_p50"),
            "ms",
            percentile(&times, 0.5),
        ));
        out.push(Metric::new(
            format!("core.{app}.host_ms_p90"),
            "ms",
            percentile(&times, 0.9),
        ));
    }
    let serial_total_s: f64 = inp.serial_s.iter().sum();
    let modeled_total_ms = value(inp.modeled, "simt.kernel_ms")
        + value(inp.modeled, "ooc.transfer_ms")
        + value(inp.modeled, "shard.exchange_ms");
    out.push(Metric::new(
        "core.host_mteps",
        "MTEPS",
        bfs_edges as f64 / bfs_host_s / 1e6,
    ));
    out.push(Metric::new(
        "core.host_ms_per_modeled_ms",
        "ratio",
        serial_total_s * 1e3 / modeled_total_ms,
    ));

    // serve: host side of the pool batches.
    let walls: Vec<f64> = inp.plain.iter().map(|b| b.wall_s).collect();
    let cpus: Vec<f64> = inp.plain.iter().map(|b| b.cpu_s).collect();
    let per_wall: Vec<f64> = inp.plain.iter().map(|b| b.cpu_s / b.wall_s).collect();
    let wall = median(&walls);
    out.push(Metric::new("serve.host_cpu_s", "s", median(&cpus)));
    out.push(Metric::new(
        "serve.host_cpu_per_wall",
        "ratio",
        median(&per_wall),
    ));
    out.push(Metric::new(
        "serve.host_parallel_efficiency",
        "ratio",
        serial_total_s / (inp.built.pool.workers() as f64 * wall),
    ));

    // trace: overhead against the untraced runs, and root-span self times.
    let traced_walls: Vec<f64> = inp.traced.iter().map(|b| b.wall_s).collect();
    out.push(Metric::new(
        "trace.overhead_setup_s",
        "s",
        inp.setup_traced_s - inp.setup_plain_s,
    ));
    out.push(Metric::new(
        "trace.overhead_serve_s",
        "s",
        median(&traced_walls) - wall,
    ));
    let summary = inp.tracer.summary();
    let self_s = |name: &str| summary.get(name).map_or(0.0, |s| s.self_s);
    out.push(Metric::new("trace.setup_self_s", "s", self_s("setup")));
    out.push(Metric::new(
        "trace.serial_self_s",
        "s",
        self_s("core.serial"),
    ));
    out
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// Compares the modeled numbers of this run with those an earlier run of
/// the same executable recorded for the same key (workload, seed, size),
/// bit for bit, and records them when no earlier run exists. The record
/// lives next to the executable, so a rebuilt program starts afresh.
pub fn guard(key: &str, modeled: &[Metric]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let image = std::fs::read(&exe).map_err(|e| format!("reading the executable: {e}"))?;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    image.hash(&mut hasher);
    let dir: PathBuf = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("perfbench-guard");
    let path = dir.join(format!("{:016x}-{key}.txt", hasher.finish()));
    let now: String = modeled
        .iter()
        .map(|m| format!("{} {:016x}\n", m.name, m.value.to_bits()))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(before) if before == now => Ok(()),
        Ok(before) => {
            let old: BTreeMap<&str, &str> =
                before.lines().filter_map(|l| l.split_once(' ')).collect();
            let differing: Vec<String> = now
                .lines()
                .filter_map(|l| l.split_once(' '))
                .filter(|(name, bits)| old.get(name) != Some(bits))
                .map(|(name, _)| name.to_string())
                .collect();
            Err(format!(
                "modeled numbers differ from an earlier run of this binary: {}",
                differing.join(", ")
            ))
        }
        Err(_) => {
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&tmp, &now))
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| format!("recording {}: {e}", path.display()))
        }
    }
}

/// The result line: one JSON object with every metric by name and unit.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
