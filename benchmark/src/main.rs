//! `cologne_benchmark`: the repository benchmark.
//!
//! ```text
//! cologne_benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! cologne_benchmark [--seed N] [--seconds S] [--trace]                 every workload
//! cologne_benchmark --check [--seed N] [--seconds S]                   every workload twice
//! ```
//!
//! One run measures one workload in this process (so its peak memory is that
//! workload's) and prints its metrics, the last line as one JSON object.
//! Without `--workload` the binary runs itself once per workload and gathers
//! the results. See `README.md` beside this crate for the tables.

mod fixtures;
mod json;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use json::Json;
use report::{Measured, END_TO_END, PER_LAYER};
use trace::{self_times, spans_json, Span, Trace};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15,
        trace: false,
        check: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it, or the bare flag
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                };
            }
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Where run artifacts go: beside the executable, inside the build directory.
fn artifact(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .expect("the executable is in a directory")
        .join(name)
}

/// The result line of one run, as the contract words it.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> Json {
    Json::object([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::object(metrics.iter().map(|&(name, unit, value)| {
                (
                    name,
                    Json::object([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })),
        ),
    ])
}

/// Measure one workload in this process for about `seconds`.
fn run_one(name: &str, seed: u64, seconds: u64, traced_run: bool) -> Result<Json, String> {
    let mut workload =
        workloads::build(name, seed, None).ok_or(format!("unknown workload {name}"))?;
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut rounds: Vec<Measured> = Vec::new();
    let mut first_trace: Option<Vec<Span>> = None;
    // A traced run measures every input round twice: untraced for the
    // baseline, then traced through the staged calls.
    let passes: &[bool] = if traced_run { &[false, true] } else { &[false] };
    for input in 0.. {
        for &traced in passes {
            let t = Instant::now();
            workload.setup(input, traced);
            let setup_ns = t.elapsed().as_nanos() as u64;
            let mut trace = Trace::new(start).numbered_from(input << 24);
            let round = if traced {
                workload.run_traced(&mut trace)
            } else {
                workload.run()
            };
            rounds.push(Measured {
                traced,
                setup_ns,
                round,
                self_ns: self_times(&trace.spans),
            });
            if traced && first_trace.is_none() {
                first_trace = Some(trace.spans);
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }

    let errors: Vec<&String> = rounds.iter().flat_map(|m| &m.round.errors).collect();
    for e in errors.iter().take(20) {
        eprintln!("{name}: output check failed: {e}");
    }
    let attempted: u64 = rounds.iter().map(|m| m.round.op_ns.len() as u64).sum();
    let failed: u64 = rounds.iter().map(|m| m.round.failed).sum();
    let metrics = if traced_run {
        report::per_layer(&rounds)
    } else {
        report::end_to_end(&rounds, report::peak_rss_mb())
    };
    if let Some(spans) = first_trace {
        let path = artifact(&format!("benchmark-trace-{name}.json"));
        std::fs::write(&path, spans_json(&spans).write())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "{} spans of the first traced round in {}",
            spans.len(),
            path.display()
        );
    }
    println!(
        "{name} ({}): seed {seed}, {} rounds, {attempted} operations, {failed} failed, {} check violations",
        if traced_run { "traced" } else { "end to end" },
        rounds.len(),
        errors.len()
    );
    let p50s: Vec<String> = rounds
        .iter()
        .filter(|m| !m.traced)
        .map(|m| format!("{:.3}", m.p(50.0)))
        .collect();
    println!("  op_ms_p50 of each untraced round: {}", p50s.join(" "));
    for (name, unit, value) in &metrics {
        // per-layer values a workload has no source for stay out of the table
        if *value != 0.0 {
            println!("  {name:<28} {value:>16.4} {unit}");
        }
    }
    Ok(result_json(errors.is_empty(), attempted, failed, &metrics))
}

/// Run one workload in a child process, pass its table on and parse its
/// result line.
fn run_child(name: &str, args: &Args, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {name} run: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {name} run exited with {}", output.status));
    }
    // the run's own table, then its result line
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("the {name} run printed no result line"))?;
    println!("{table}");
    Json::parse(last).map_err(|e| format!("the {name} run's result line: {e}"))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were measured on, so two result files are comparable or
/// visibly not.
fn environment(args: &Args) -> Json {
    Json::object([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("rustc", Json::from(first_line("rustc", &["--version"]))),
        (
            "commit",
            Json::from(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        (
            "timestamp",
            Json::from(
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs()),
            ),
        ),
    ])
}

/// Every workload, each in its own child process; `passes` full sets.
fn run_all(args: &Args, passes: usize, traced: bool) -> Result<Vec<Vec<(String, Json)>>, String> {
    let kinds: &[bool] = if traced { &[false, true] } else { &[false] };
    let mut sets = Vec::new();
    for pass in 1..=passes {
        let mut set = Vec::new();
        for name in workloads::NAMES {
            for &traced in kinds {
                println!("pass {pass}:");
                let result = run_child(name, args, traced)?;
                let key = format!("{name}{}", if traced { ".traced" } else { "" });
                set.push((key, result));
            }
        }
        sets.push(set);
    }
    Ok(sets)
}

/// True when every run passed its output checks without a failed operation.
fn all_clean(sets: &[Vec<(String, Json)>]) -> bool {
    sets.iter().flatten().all(|(_, r)| {
        r.get("correct").and_then(Json::as_bool) == Some(true)
            && r.get("failed").and_then(Json::as_f64) == Some(0.0)
    })
}

/// `--check`: two sets of runs of the same code must agree — exact metrics
/// and counters to the digit, wall-clock metrics within their bounds.
fn disagreements(first: &[(String, Json)], second: &[(String, Json)]) -> Vec<String> {
    let mut rows = Vec::new();
    for ((key, a), (_, b)) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (metric(a, m.name), metric(b, m.name)) else {
                continue;
            };
            let worse = if m.better == "lower" {
                y / x - 1.0
            } else {
                x / y - 1.0
            };
            if worse.abs() > m.bound {
                rows.push(format!(
                    "{key} {}: {x} then {y} {}, apart by more than {}",
                    m.name, m.unit, m.bound
                ));
            }
        }
        for l in PER_LAYER.iter().filter(|l| l.exact) {
            let (x, y) = (metric(a, l.name), metric(b, l.name));
            if x != y {
                rows.push(format!(
                    "{key} {}: {x:?} then {y:?}, must be identical",
                    l.name
                ));
            }
        }
    }
    rows
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cologne_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => run_one(name, args.seed, args.seconds, args.trace).map(|result| {
            println!("{}", result.write());
            true
        }),
        None => run_all(
            &args,
            if args.check { 2 } else { 1 },
            args.trace || args.check,
        )
        .and_then(|sets| {
            let mut ok = all_clean(&sets);
            if args.check {
                let rows = disagreements(&sets[0], &sets[1]);
                for row in &rows {
                    println!("MISMATCH {row}");
                }
                println!(
                    "check: {} mismatches between the two sets of runs",
                    rows.len()
                );
                ok &= rows.is_empty();
            }
            let path = artifact("benchmark-results.json");
            let doc = Json::object([
                ("environment", environment(&args)),
                (
                    "runs",
                    Json::Array(sets.into_iter().map(Json::object).collect()),
                ),
            ]);
            std::fs::write(&path, doc.write())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("results in {}", path.display());
            Ok(ok)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cologne_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
