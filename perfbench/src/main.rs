//! Two-clock end-to-end benchmark of the gcgt workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload web-bfs --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` runs the end-to-end pass (no spans) and prints the
//! end-to-end metrics; `--trace 1` runs the traced pass and prints the
//! per-layer metrics. Either way every answer is checked against the serial
//! oracle, and the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! non-zero on any oracle mismatch, typed query error, or modeled number
//! that differs from an earlier run of the same binary and seed.
//! `--smoke` shrinks every workload to a size that runs in seconds.

mod metrics;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{median, Batch, Metric};
use trace::Tracer;
use workload::{Built, Kind};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if run(&args) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Answers checked against the oracle.
#[derive(Default)]
struct Tally {
    attempted: u64,
    errors: u64,
    mismatches: u64,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    /// Checks one pool report against the oracle, outside every timed region.
    fn check_report(
        &mut self,
        report: &gcgt_serve::ServeReport<gcgt_core::QueryOutput>,
        expected: &[std::sync::Arc<workload::Expected>],
    ) {
        for (i, outcome) in report.outputs.iter().enumerate() {
            self.check(i, outcome.as_ref().map_err(|e| e.to_string()), expected);
        }
    }

    fn check(
        &mut self,
        index: usize,
        outcome: Result<&gcgt_core::QueryOutput, String>,
        expected: &[std::sync::Arc<workload::Expected>],
    ) {
        self.attempted += 1;
        match outcome {
            Err(e) => {
                self.errors += 1;
                eprintln!("perfbench: query {index} failed: {e}");
            }
            Ok(out) if !workload::matches(&expected[index], out) => {
                self.mismatches += 1;
                eprintln!("perfbench: query {index} disagrees with the oracle");
            }
            Ok(_) => {}
        }
    }
}

/// Process CPU seconds (user + system, all threads) from `/proc/self/stat`.
fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Peak resident set (VmHWM) of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn online_cpus() -> usize {
    // "0-1", "0,2-3": count every listed CPU.
    let list = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    list.trim()
        .split(',')
        .filter(|r| !r.is_empty())
        .map(|r| match r.split_once('-') {
            Some((a, b)) => {
                (b.parse::<usize>().unwrap_or(0) + 1).saturating_sub(a.parse().unwrap_or(0))
            }
            None => 1,
        })
        .sum()
}

/// Times one pool batch: host wall and process CPU seconds.
fn serve_batch(
    built: &Built,
    queries: &[gcgt_core::Query],
) -> (gcgt_serve::ServeReport<gcgt_core::QueryOutput>, Batch) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let report = built.pool.serve(queries);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (report, Batch { wall_s, cpu_s })
}

/// The share of the end-to-end pass's measuring window that repeat set-ups
/// take, give or take one set-up. On the web workloads a set-up is much shorter than a
/// batch, so one runs after every batch; on `social-mixed` Gorder makes it
/// several batches long, so it runs every few batches.
const SETUP_SHARE: f64 = 0.3;

/// Runs one workload and prints the result line; false when any answer,
/// or any modeled number, fails its check.
fn run(args: &Args) -> bool {
    let size = args.kind.size(args.smoke);
    let run_id = u64::from(std::process::id()) << 32
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
    let mut tracer = Tracer::new(args.traced, run_id);
    let host = metrics::HostEnv {
        nproc: online_cpus(),
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pool_workers: workload::POOL_WORKERS,
    };
    println!("# {}", host.describe());

    // --- set-up, timed whole: seed → pool ready ---
    // The end-to-end pass sets up once here and again between the batches
    // of the measuring window, and keeps the median. The traced pass sets
    // up untraced, traced, untraced: the tracing overhead is the traced
    // set-up against the mean of its neighbours.
    let mut setup_s = Vec::new();
    let mut traced_setup_s = None;
    let mut built: Option<Built> = None;
    let rounds = if args.traced { 3 } else { 1 };
    for round in 0..rounds {
        let tracing = args.traced && round == 1;
        // Drop the previous build first, outside the timed region, so at
        // most one set-up is alive at a time.
        drop(built.take());
        let t0 = Instant::now();
        let b = if tracing {
            workload::build(args.kind, size, args.seed, &mut tracer)
        } else {
            workload::build(args.kind, size, args.seed, &mut Tracer::new(false, run_id))
        };
        let dt = t0.elapsed().as_secs_f64();
        if tracing {
            traced_setup_s = Some(dt);
        } else {
            setup_s.push(dt);
        }
        built = Some(b);
    }
    let built = built.expect("at least one set-up round");

    // --- queries, outside every timed region ---
    let queries = workload::queries(args.kind, &built, args.seed, size.batch);
    println!(
        "# graph: {} nodes ({} real), {} edges handed to the session, {} pre-vnode edges; {} queries per batch",
        built.graph.num_nodes(),
        built.n_real,
        built.graph.num_edges(),
        built.base_edges,
        queries.len()
    );

    // --- closed loop: one client, one batch at a time ---
    // Untimed warm-up.
    let (first, _) = serve_batch(&built, &queries);
    // Peak memory over a fixed amount of work: set-up plus one batch. Later
    // batches only add allocator drift that grows with the batch count. The
    // oracle's answers are computed after this reading, so they are not in it.
    let peak_rss = peak_rss_mib();
    let expected = workload::oracle(&built.graph, &queries);
    let mut tally = Tally::default();
    tally.check_report(&first, &expected);
    let mut plain = Vec::new();
    let mut traced_batches = Vec::new();
    let mut diverged = 0u64;
    let window = Instant::now();
    let min_batches = if args.smoke { 2 } else { 3 };
    let deadline = Duration::from_secs_f64(args.seconds);
    let mut repeat_setup_s = 0.0;
    while window.elapsed() < deadline || plain.len() + traced_batches.len() < min_batches {
        // The end-to-end pass repeats the set-up between batches, so its
        // samples come from the whole window rather than from a few seconds
        // of it: the host's speed shifts over seconds. Repeat set-ups take
        // about `SETUP_SHARE` of the window; each one is dropped at once.
        if !args.traced && repeat_setup_s < SETUP_SHARE * window.elapsed().as_secs_f64() {
            let t0 = Instant::now();
            let b = workload::build(args.kind, size, args.seed, &mut Tracer::new(false, run_id));
            let dt = t0.elapsed().as_secs_f64();
            drop(b);
            setup_s.push(dt);
            repeat_setup_s += dt;
        }
        // The traced pass alternates plain and traced batches so both see
        // the same machine state.
        let tracing = args.traced && plain.len() > traced_batches.len();
        let (report, batch) = if tracing {
            tracer.span("serve.serve", |_| serve_batch(&built, &queries))
        } else {
            serve_batch(&built, &queries)
        };
        tally.check_report(&report, &expected);
        if report.stats != first.stats || report.per_query != first.per_query {
            diverged += 1;
        }
        if tracing {
            traced_batches.push(batch);
        } else {
            plain.push(batch);
        }
    }
    let modeled = metrics::modeled(&built, &queries, &expected, &first);
    let mut out = if args.traced {
        // Serial per-query host times through one executor.
        let mut serial = Vec::with_capacity(queries.len());
        tracer.span("core.serial", |tr| {
            let mut executor = tr.span("session.executor_new", |_| {
                gcgt_session::Executor::new(&built.prepared)
            });
            for (i, q) in queries.iter().enumerate() {
                let t0 = Instant::now();
                let run = tr.span("core.executor_run", |_| executor.run(*q));
                serial.push(t0.elapsed().as_secs_f64());
                tally.check(i, Ok(&run.output), &expected);
                // A serial run costs bitwise what the pool reported.
                if run.stats != first.per_query[i] {
                    diverged += 1;
                }
            }
        });
        print_spans(&tracer);
        write_spans(args, &tracer);
        metrics::per_layer(&metrics::LayerInputs {
            built: &built,
            queries: &queries,
            expected: &expected,
            modeled: &modeled,
            tracer: &tracer,
            serial_s: &serial,
            plain: &plain,
            traced: &traced_batches,
            setup_plain_s: (setup_s[0] + setup_s[1]) / 2.0,
            setup_traced_s: traced_setup_s.expect("traced pass sets up traced"),
        })
    } else {
        let walls: Vec<f64> = plain.iter().map(|b| b.wall_s).collect();
        println!("# setup_s samples {setup_s:?}; host_serve_s samples {walls:?}");
        let mut out = vec![
            Metric::new("setup_s", "s", median(&setup_s)),
            Metric::new("host_serve_s", "s", median(&walls)),
            Metric::new("host_peak_rss_mb", "MiB", peak_rss),
        ];
        out.extend(
            modeled
                .iter()
                .filter(|m| metrics::E2E_MODELED.contains(&m.name.as_str()))
                .cloned(),
        );
        out
    };
    if diverged > 0 {
        eprintln!(
            "perfbench: {diverged} runs reported modeled numbers that differ from the first batch"
        );
    }

    // --- determinism guard: modeled numbers must repeat bit for bit ---
    let key = format!(
        "{}-seed{}{}",
        args.kind.name(),
        args.seed,
        if args.smoke { "-smoke" } else { "" }
    );
    let guard = metrics::guard(&key, &modeled);
    if let Err(e) = &guard {
        eprintln!("perfbench: determinism guard: {e}");
    }

    let correct = tally.failed() == 0 && diverged == 0 && guard.is_ok();
    // The success rate counts every answer, including the serial pass.
    let ok_rate = 1.0 - tally.failed() as f64 / tally.attempted as f64;
    if !args.traced {
        out.push(Metric::new("query_success_rate", "fraction", ok_rate));
    }
    println!(
        "{}",
        metrics::result_json(correct, tally.attempted, tally.failed(), &out)
    );
    correct
}

fn print_spans(tracer: &Tracer) {
    for (name, s) in tracer.summary() {
        println!(
            "# span {name:<22} count {:>4} total_s {:.6} self_s {:.6}",
            s.count, s.total_s, s.self_s
        );
    }
}

/// Writes the run's spans next to the benchmark executable (inside the
/// build directory), one JSON line per span.
fn write_spans(args: &Args, tracer: &Tracer) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("perfbench-traces")))
    else {
        return;
    };
    let path = dir.join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}
