//! The decode fast-path experiment: what table-driven VLC decoding buys,
//! measured both ways.
//!
//! * **Host throughput** — wall-clock decode rate of residual-gap-shaped
//!   streams per Figure 11 code, broadword slow path vs single-probe table
//!   vs multi-gap packed probes (the `crates/bits/benches/codes.rs`
//!   microbench run inline, so `repro -- decode` needs no bench harness).
//!   The acceptance bar: ≥2× for ζ3 residual streams, table vs slow.
//! * **Modeled traversal time** — per dataset, the same GCGT BFS with the
//!   device's table-decode cost model off vs on: identical step schedule,
//!   decode slots charged as one shared-memory probe instead of a serial
//!   bit-scan, `est_ms` strictly lower, answers bitwise identical.

use std::sync::Arc;
use std::time::Instant;

use super::{sources_for, ExperimentContext};
use crate::table::{fmt_ms, Table};
use gcgt_bits::{residual_gap_values, BitVec, BitWriter, Code, DecodeTable};
use gcgt_core::Strategy;
use gcgt_session::{Bfs, EngineKind, Session};
use gcgt_simt::{DeviceConfig, OpClass};

/// One host-throughput measurement for one VLC code.
#[derive(Clone, Debug)]
pub struct HostRow {
    /// Code name (`gamma`, `zeta3`, ...).
    pub code: String,
    /// Codewords decoded per measurement.
    pub codewords: usize,
    /// Broadword slow path, million codewords per second.
    pub slow_melems: f64,
    /// Single-probe table path, million codewords per second.
    pub table_melems: f64,
    /// Multi-gap packed table path, million codewords per second.
    pub packed_melems: f64,
}

impl HostRow {
    /// Table-vs-slow speedup (the packed probe is the table path a
    /// residual stream actually takes).
    pub fn speedup(&self) -> f64 {
        self.packed_melems / self.slow_melems
    }
}

/// One modeled measurement for one dataset.
#[derive(Clone, Debug)]
pub struct ModeledRow {
    /// Dataset name.
    pub dataset: String,
    /// Mean BFS `est_ms` with the serial bit-scan cost model.
    pub serial_ms: f64,
    /// Mean BFS `est_ms` with the table-decode cost model.
    pub table_ms: f64,
    /// `OpClass::TableDecode` slots charged across the batch.
    pub table_probes: u64,
}

impl ModeledRow {
    /// Modeled speedup of table decoding.
    pub fn speedup(&self) -> f64 {
        if self.table_ms == 0.0 {
            1.0
        } else {
            self.serial_ms / self.table_ms
        }
    }
}

/// The shared residual-gap workload ([`residual_gap_values`]), encoded
/// under `code`.
fn gap_stream(code: Code, n: usize) -> BitVec {
    let mut w = BitWriter::new();
    for v in residual_gap_values(n) {
        code.encode(&mut w, v);
    }
    w.into_bitvec()
}

/// Best-of-`reps` wall-clock seconds of `f`.
fn time_best<F: FnMut() -> u64>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    std::hint::black_box(sink);
    best
}

/// Host-throughput sweep over the Figure 11 codes. `codewords` scales with
/// the context so `--smoke` stays fast.
pub fn host_rows(ctx: &ExperimentContext) -> Vec<HostRow> {
    let n = ((100_000.0 * ctx.scale.0) as usize).clamp(5_000, 400_000);
    let reps = 3;
    Code::FIGURE11_SWEEP
        .iter()
        .map(|&code| {
            let bits = gap_stream(code, n);
            let table = DecodeTable::shared(code);
            let slow = time_best(reps, || {
                let mut pos = 0usize;
                let mut acc = 0u64;
                for _ in 0..n {
                    let (v, p) = code.decode_at(&bits, pos).expect("valid stream");
                    acc = acc.wrapping_add(v);
                    pos = p;
                }
                acc
            });
            let single = time_best(reps, || {
                let mut pos = 0usize;
                let mut acc = 0u64;
                for _ in 0..n {
                    let (v, p) = table.decode_at(&bits, pos).expect("valid stream");
                    acc = acc.wrapping_add(v);
                    pos = p;
                }
                acc
            });
            let packed = time_best(reps, || {
                let mut pos = 0usize;
                let mut cnt = 0usize;
                let mut acc = 0u64;
                while cnt < n {
                    let run = table.decode_packed_at(&bits, pos);
                    if run.is_empty() {
                        let (v, p) = table.decode_at(&bits, pos).expect("valid stream");
                        acc = acc.wrapping_add(v);
                        pos = p;
                        cnt += 1;
                        continue;
                    }
                    let take = run.len().min(n - cnt);
                    for i in 0..take {
                        acc = acc.wrapping_add(run.value(i));
                    }
                    pos += run.end(take - 1);
                    cnt += take;
                }
                acc
            });
            let melems = |secs: f64| n as f64 / secs / 1e6;
            HostRow {
                code: code.name(),
                codewords: n,
                slow_melems: melems(slow),
                table_melems: melems(single),
                packed_melems: melems(packed),
            }
        })
        .collect()
}

/// Modeled sweep: GCGT Full BFS per dataset, table-decode cost model off
/// vs on, answers asserted identical.
pub fn modeled_rows(ctx: &ExperimentContext) -> Vec<ModeledRow> {
    ctx.datasets
        .iter()
        .map(|ds| {
            let graph = Arc::new(ds.graph.clone());
            let sources = sources_for(ds, ctx.sources);
            let run_with = |table_decode: bool| {
                let session = Session::builder()
                    .graph_shared(Arc::clone(&graph))
                    .device(DeviceConfig {
                        table_decode,
                        ..ctx.device
                    })
                    .engine(EngineKind::Gcgt(Strategy::Full))
                    .build()
                    .expect("experiment graphs fit the device");
                let queries: Vec<Bfs> = sources.iter().copied().map(Bfs::from).collect();
                session.run_batch(&queries)
            };
            let serial = run_with(false);
            let table = run_with(true);
            for (a, b) in serial.outputs.iter().zip(&table.outputs) {
                assert_eq!(a.depth, b.depth, "decode cost model changed an answer");
            }
            ModeledRow {
                dataset: ds.id.name().to_string(),
                serial_ms: serial.mean_query_ms(),
                table_ms: table.mean_query_ms(),
                table_probes: table.stats.tally.issues[OpClass::TableDecode as usize],
            }
        })
        .collect()
}

/// Renders the host-throughput table.
pub fn render_host(rows: &[HostRow]) -> Table {
    let mut t = Table::new(
        "Decode fast path — host throughput, broadword slow path vs decode-table probes \
         (residual-gap streams, Mcodewords/s)",
        &["Code", "Codewords", "Slow", "Table", "Packed", "Speedup"],
    );
    for r in rows {
        t.row(vec![
            r.code.clone(),
            r.codewords.to_string(),
            format!("{:.0}", r.slow_melems),
            format!("{:.0}", r.table_melems),
            format!("{:.0}", r.packed_melems),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    t
}

/// Renders the modeled table.
pub fn render_modeled(rows: &[ModeledRow]) -> Table {
    let mut t = Table::new(
        "Decode fast path — modeled BFS time per dataset, serial bit-scan vs table-decode \
         cost model (GCGT Full; identical answers, same step schedule)",
        &[
            "Dataset",
            "Serial ms",
            "Table ms",
            "Speedup",
            "Table probes",
        ],
    );
    for r in rows {
        t.row(vec![
            r.dataset.clone(),
            fmt_ms(r.serial_ms),
            fmt_ms(r.table_ms),
            format!("{:.2}x", r.speedup()),
            r.table_probes.to_string(),
        ]);
    }
    t
}

/// Convenience: run + render the modeled sweep (the experiment's headline
/// table; `repro` prints the host table alongside).
pub fn run(ctx: &ExperimentContext) -> Table {
    render_modeled(&modeled_rows(ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Scale;

    #[test]
    fn modeled_table_decoding_is_strictly_cheaper_with_identical_answers() {
        let ctx = ExperimentContext::new(Scale::TEST, 1);
        let rows = modeled_rows(&ctx);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.table_ms < r.serial_ms,
                "{}: table {} vs serial {}",
                r.dataset,
                r.table_ms,
                r.serial_ms
            );
            assert!(r.table_probes > 0, "{} charged no probes", r.dataset);
            assert!(r.speedup() > 1.0);
        }
    }

    #[test]
    fn host_rows_cover_the_figure11_codes() {
        // Wall-clock ratios are machine-dependent, so only shape and
        // plausibility are asserted here; the ≥2x zeta3 bar is checked by
        // the release-mode repro run.
        let ctx = ExperimentContext::new(Scale::TEST, 1);
        let rows = host_rows(&ctx);
        assert_eq!(rows.len(), Code::FIGURE11_SWEEP.len());
        for r in &rows {
            assert!(r.slow_melems > 0.0, "{}", r.code);
            assert!(r.table_melems > 0.0, "{}", r.code);
            assert!(r.packed_melems > 0.0, "{}", r.code);
        }
    }
}
