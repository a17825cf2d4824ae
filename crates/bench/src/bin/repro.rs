//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [EXPERIMENT...] [--scale F] [--sources N] [--smoke]
//!
//! EXPERIMENT: table1 table3 fig8 fig9 fig11 fig12 fig13 fig14 fig15
//!             ooc serve shard direction decode ablations load chaos ref
//!             all   (default: all)
//!             bench-json  (runs the whole suite, times each experiment,
//!                          and writes the machine-readable BENCH.json
//!                          perf baseline: per-experiment modeled ms +
//!                          host wall-clock)
//!             trace       (runs the fixed observability smoke workload,
//!                          writes the canonical Chrome trace to
//!                          trace.json, and prints the per-engine latency
//!                          decompositions + metrics snapshot)
//! --scale F   dataset scale factor   (default: 1.0)
//! --sources N BFS sources averaged   (default: 3)
//! --smoke     CI smoke mode: tiny scale, one source (overrides both)
//! ```

use gcgt_bench::bench_json;
use gcgt_bench::datasets::Scale;
use gcgt_bench::experiments::{
    ablations, chaos, decode, direction, fig11, fig12, fig13, fig14, fig15, fig8, fig9, load, ooc,
    refs, serve, shard, table1, table3, ExperimentContext,
};

/// Every experiment name `repro` accepts.
const EXPERIMENTS: &str = "table1 table3 fig8 fig9 fig11 fig12 fig13 fig14 fig15 ooc serve shard \
                           direction decode ablations load chaos ref all bench-json trace";

const USAGE: &str = "repro [EXPERIMENT...] [--scale F] [--sources N] [--smoke]";

/// What a command line asks `repro` to do.
#[derive(Debug, PartialEq)]
enum Command {
    Help,
    Run {
        scale: f64,
        sources: usize,
        wanted: Vec<String>,
    },
}

/// Parses the arguments after the program name. Unknown experiment names,
/// unknown flags and missing or malformed flag values are errors, so a typo
/// never runs nothing and exits 0.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut scale = 1.0f64;
    let mut sources = 3usize;
    let mut smoke = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--scale needs a float")?;
            }
            "--sources" => {
                sources = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--sources needs an integer")?;
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => return Ok(Command::Help),
            name if EXPERIMENTS.split_whitespace().any(|e| e == name) => {
                wanted.push(name.to_string());
            }
            other => return Err(format!("unknown experiment or flag `{other}`")),
        }
    }
    // Smoke mode wins regardless of flag order, as the help text promises.
    if smoke {
        scale = Scale::TEST.0;
        sources = 1;
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    Ok(Command::Run {
        scale,
        sources,
        wanted,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, sources, wanted) = match parse_args(&args) {
        Ok(Command::Run {
            scale,
            sources,
            wanted,
        }) => (scale, sources, wanted),
        Ok(Command::Help) => {
            println!(
                "{USAGE}\n\
                 experiments: {EXPERIMENTS}\n\
                 bench-json: run the suite and write the BENCH.json perf baseline\n\
                 trace: run the observability smoke workload and write trace.json"
            );
            return;
        }
        Err(msg) => {
            eprintln!("repro: {msg}\nusage: {USAGE}");
            std::process::exit(2);
        }
    };
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    println!("GCGT reproduction — scale {scale}, {sources} BFS source(s) per measurement");
    println!(
        "Parameters (Table 2): VLC = zeta3, min interval length = 4, \
         reordering = LLP, residual segment length = 32 bytes\n"
    );

    // table3 needs no datasets.
    if want("table3") {
        println!("{}", table3::run().render());
    }
    // trace needs no datasets either — and deliberately ignores --scale /
    // --sources / --smoke: its workload is fixed so the exported trace can
    // be diffed byte-for-byte against the committed golden fixture. Runs
    // only when asked for by name (it writes trace.json to the cwd).
    if wanted.iter().any(|w| w == "trace") {
        let t = std::time::Instant::now();
        let report = gcgt_bench::trace::smoke(2);
        let path = std::path::Path::new("trace.json");
        std::fs::write(path, &report.trace_json).expect("write trace.json");
        for (label, table) in &report.explains {
            println!("== {label} ==\n{table}");
        }
        println!("== metrics ==\n{}", report.metrics);
        eprintln!(
            "[trace] wrote {} bytes to {} in {:.1}s",
            report.trace_json.len(),
            path.display(),
            t.elapsed().as_secs_f64()
        );
    }
    // Everything else builds the shared dataset context.
    let needs_ctx = EXPERIMENTS
        .split_whitespace()
        .filter(|e| !["table3", "trace", "all"].contains(e))
        .any(|e| wanted.iter().any(|w| w == e) || (all && e != "bench-json"));
    if !needs_ctx {
        return;
    }

    let t0 = std::time::Instant::now();
    eprintln!("building datasets (scale {scale}) ...");
    let ctx = ExperimentContext::new(Scale(scale), sources);
    eprintln!("datasets ready in {:.1}s\n", t0.elapsed().as_secs_f64());

    let run_one = |name: &str, f: &dyn Fn(&ExperimentContext) -> gcgt_bench::Table| {
        if want(name) {
            let t = std::time::Instant::now();
            let table = f(&ctx);
            println!("{}", table.render());
            eprintln!("[{name}] done in {:.1}s\n", t.elapsed().as_secs_f64());
        }
    };

    run_one("table1", &table1::run);
    run_one("fig8", &fig8::run);
    run_one("fig9", &fig9::run);
    run_one("fig11", &fig11::run);
    run_one("fig12", &fig12::run);
    run_one("fig13", &fig13::run);
    run_one("fig14", &fig14::run);
    run_one("fig15", &fig15::run);
    run_one("ooc", &ooc::run);
    run_one("serve", &serve::run);
    run_one("shard", &shard::run);
    run_one("direction", &direction::run);
    run_one("load", &load::run);
    run_one("chaos", &chaos::run);
    run_one("ref", &refs::run);
    if want("decode") {
        let t = std::time::Instant::now();
        println!("{}", decode::render_host(&decode::host_rows(&ctx)).render());
        println!("{}", decode::run(&ctx).render());
        eprintln!("[decode] done in {:.1}s\n", t.elapsed().as_secs_f64());
    }
    if want("ablations") {
        println!("{}", ablations::warp_width(&ctx).render());
        println!("{}", ablations::cache_size(&ctx).render());
        println!("{}", ablations::delta_code(&ctx).render());
    }
    // bench-json runs only when asked for by name ("all" excludes it: it
    // re-runs the whole suite with per-experiment timing).
    if wanted.iter().any(|w| w == "bench-json") {
        let t = std::time::Instant::now();
        eprintln!("running the bench-json suite ...");
        let entries = bench_json::run_suite(&ctx);
        let path = std::path::Path::new("BENCH.json");
        bench_json::write_file(path, &entries, scale, sources).expect("write BENCH.json");
        println!("{}", bench_json::render(&entries, scale, sources));
        eprintln!(
            "[bench-json] wrote {} entries to {} in {:.1}s",
            entries.len(),
            path.display(),
            t.elapsed().as_secs_f64()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn known_experiments_and_flags_parse() {
        assert_eq!(
            parse("fig8 fig9 --scale 0.05 --sources 1"),
            Ok(Command::Run {
                scale: 0.05,
                sources: 1,
                wanted: vec!["fig8".into(), "fig9".into()],
            })
        );
        assert_eq!(
            parse(""),
            Ok(Command::Run {
                scale: 1.0,
                sources: 3,
                wanted: vec!["all".into()],
            })
        );
        assert_eq!(parse("ooc --help"), Ok(Command::Help));
    }

    #[test]
    fn smoke_overrides_scale_and_sources_in_any_order() {
        let want = Ok(Command::Run {
            scale: Scale::TEST.0,
            sources: 1,
            wanted: vec!["trace".into()],
        });
        assert_eq!(parse("--smoke trace --scale 2 --sources 9"), want);
        assert_eq!(parse("--scale 2 trace --smoke"), want);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for line in [
            "fig88",
            "fig8 --bogus",
            "fig8 --scale",
            "--sources",
            "--scale x",
            "--sources -1",
        ] {
            assert!(parse(line).is_err(), "`{line}` must not parse");
        }
    }
}
