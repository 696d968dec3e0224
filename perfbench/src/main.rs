//! Served-stream benchmark of the rtim server.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sic-deep --seed 1 --seconds 16 --trace 0
//! ```
//!
//! One run generates the workload's trace from `--seed`, drives a server
//! process (this binary's `serve` role) over one loopback connection
//! through a capacity phase, an open-loop freshness phase and a
//! kill-and-restart recovery phase, checks every served answer against an
//! offline replay, and prints the metrics.  `--trace 1` adds the traced
//! in-process replay and prints the per-layer metrics instead.
//! `--repeat N` reruns the workload N times on consecutive seeds and
//! prints each metric's median and quartile spread.  See README.md.

mod replay;
mod report;
mod served;
mod workload;

use report::{mean, median, mid_mean, percentile, quartiles, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

/// Where runs keep their scratch files: inside this package's directory
/// of the checkout they were built in.
fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Open-loop sender lateness beyond which a run is invalid and fails: a
/// sender that left a tenth of its pairs this late did not offer the
/// workload's load, so the schedule, not the server, set the freshness
/// figures.  (Rarer lateness, such as a stall of the whole machine, is
/// counted in the samples anyway: they run from the scheduled send time.)
const LATE_LIMIT_MS: f64 = 5.0;
const LATE_LIMIT_QUANTILE: f64 = 0.9;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--repeat <n>]\n       perfbench serve <workload> [persistence-dir]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut repeat) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(matches!(value.as_str(), "1")),
            "--repeat" => repeat = Some(value.parse::<usize>().map_err(|_| bad())?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        repeat: repeat.filter(|&n| n >= 2),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        let Some(w) = args.get(1).and_then(|n| Workload::by_name(n)) else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        served::serve(w, args.get(2).map(Path::new));
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return self_check(&args, n);
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// One benchmark run.  Prints the result line last; returns whether every
/// check passed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let work = work_root().join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = run_in(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: &Args, work: &Path) -> Result<bool, String> {
    let w = args.workload;
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    println!(
        "# fingerprint {}",
        report::fingerprint(repo_root, w.threads, served::pinning(), work)
    );

    // Inputs first: nothing below is timed until the trace exists.
    let t = Instant::now();
    let plan = w.plan(args.seconds);
    let frames = w.frames(&plan, args.seed);
    let wire = served::Wire::encode(&frames);
    let actions: usize = frames.iter().map(Vec::len).sum();
    println!(
        "# workload {} seed {}: {} frames, {} actions, generated in {:.2}s",
        w.name,
        args.seed,
        frames.len(),
        actions,
        t.elapsed().as_secs_f64()
    );

    let steal0 = report::steal_jiffies();
    // The gate replay first: its answers and, on a workload without
    // persistence, the recovery directory then exist during the served
    // run, which restarts on that directory after each capacity leg.
    let durable = w.snapshot_every.is_some();
    let queried = w.queried(&plan);
    let recovery_dir = if durable {
        work.join("serve")
    } else {
        let dir = work.join("offline");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        dir
    };
    let t = Instant::now();
    let gate = replay::gate(
        w,
        &plan,
        &frames,
        &queried,
        (!durable).then_some(recovery_dir.as_path()),
    )?;
    let gate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mid_run_recovery = (!durable).then_some((recovery_dir.as_path(), &gate.final_answer));
    let mut s = served::run(w, &plan, &wire, work, args.trace, mid_run_recovery)?;
    let served_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    if durable {
        served::recover(w, &recovery_dir, &gate.final_answer, work, &mut s)?;
    }
    println!(
        "# wall time (s): gate replay {gate_s:.1}, served run {served_s:.1}, recovery tail {:.1}",
        t.elapsed().as_secs_f64()
    );
    let mismatches = gate.check(&s.answers);
    for m in &mismatches {
        eprintln!("perfbench: served answer differs from the offline replay: {m}");
    }
    for e in &s.errors {
        eprintln!("perfbench: failed operation: {e}");
    }
    if s.recovered_differently {
        eprintln!("perfbench: a restarted server answered differently from the replay");
    }
    // The mean over every checked answer: the last answer alone varies by
    // up to a third from seed to seed on sic-pool-small.
    let values: Vec<f64> = s.answers.iter().map(|(_, a)| a.value).collect();
    let final_value = mean(&values);
    let late_p99 = percentile(&s.late_ms, 0.99);
    let late_limit = percentile(&s.late_ms, LATE_LIMIT_QUANTILE);
    let on_schedule = late_limit <= LATE_LIMIT_MS;
    if !on_schedule {
        eprintln!(
            "perfbench: run invalid: the open-loop sender fell behind its schedule \
             ({late_limit:.1} ms late at p{:.0}, limit {LATE_LIMIT_MS} ms)",
            100.0 * LATE_LIMIT_QUANTILE
        );
    }
    let correct = mismatches.is_empty() && !s.recovered_differently && s.failed == 0 && on_schedule;
    println!(
        "# phases: setup {} starts, {} rounds of a {}-frame capacity leg and {} freshness pairs \
         at {}/s, suffix {} frames, recovery {} restarts; late p50/p90/p99/max {:.3}/{late_limit:.3}/{late_p99:.3}/{:.3} ms",
        s.setup_s.len(),
        workload::ROUNDS,
        plan.leg_frames,
        plan.segment_frames,
        w.fresh_rate,
        plan.suffix_frames,
        s.recover_s.len(),
        percentile(&s.late_ms, 0.5),
        percentile(&s.late_ms, 1.0),
    );

    // Per round, so a slow stretch of the machine spoils one round's
    // figure, not the run's.
    let segment_p50s: Vec<f64> = s.fresh_ms.chunks(plan.segment_frames).map(median).collect();
    let by_phase: Vec<String> = s
        .by_phase
        .iter()
        .map(|(phase, attempted, failed)| format!("{phase} {attempted}/{failed}"))
        .collect();
    println!(
        "# requests attempted/failed by phase: {}",
        by_phase.join(", ")
    );
    println!("# capacity legs (actions/s): {:?}", s.capacity_legs);
    println!("# freshness segment p50s (ms): {segment_p50s:?}");
    println!("# restarts (s): {:?}", s.recover_s);
    let steal1 = report::steal_jiffies();
    println!(
        "# host steal over the run: {:.1}% of CPU time",
        100.0 * (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64
    );

    let metrics = if !args.trace {
        vec![
            Metric {
                name: "capacity_actions_per_s",
                unit: "actions/s",
                value: s.capacity,
            },
            Metric {
                name: "fresh_p50_ms",
                unit: "ms",
                value: mean(&segment_p50s),
            },
            Metric {
                name: "final_value",
                unit: "users",
                value: final_value,
            },
            Metric {
                name: "cpu_us_per_action",
                unit: "us",
                value: s.cpu_us_per_action,
            },
            Metric {
                name: "rss_peak_mib",
                unit: "MiB",
                value: s.rss_peak_mib,
            },
            Metric {
                name: "recover_s",
                unit: "s",
                value: mean(&s.recover_s),
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: mid_mean(&s.setup_s),
            },
        ]
    } else {
        let spans_path = work_root().join(format!("{}.spans.jsonl", w.name));
        let traced = replay::traced(w, &frames, &queried, &recovery_dir, work, &spans_path)?;
        let baseline = if w.threads == 1 {
            traced.untraced_rate
        } else {
            replay::replay_rate(w.sim_config().with_threads(1), w.kind, &frames, &queried)
        };
        let mut layers = traced.metrics;
        println!("# spans written to {}", spans_path.display());
        layers.extend([
            Metric {
                name: "engine.replay_actions_per_s",
                unit: "actions/s",
                value: baseline,
            },
            Metric {
                name: "server.ack_rtt_p50_us",
                unit: "us",
                value: median(&s.ack_rtt_us),
            },
            Metric {
                name: "server.query_rtt_p50_us",
                unit: "us",
                value: median(&s.query_rtt_us),
            },
            Metric {
                name: "server.bytes_per_action",
                unit: "bytes",
                value: s.bytes_per_action,
            },
            Metric {
                name: "handle.max_queue_depth",
                unit: "count",
                value: s.max_queue_depth as f64,
            },
            Metric {
                name: "handle.window_full_ms",
                unit: "ms",
                value: s.window_full_ms,
            },
            Metric {
                name: "process.involuntary_switches_per_s",
                unit: "1/s",
                value: s.involuntary_per_s,
            },
            Metric {
                name: "fresh.p95_ms",
                unit: "ms",
                value: percentile(&s.fresh_ms, 0.95),
            },
            Metric {
                name: "gen.late_p99_ms",
                unit: "ms",
                value: late_p99,
            },
            Metric {
                name: "trace.overhead_pct",
                unit: "%",
                value: traced.overhead_pct,
            },
        ]);
        layers
    };
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_line(correct, s.attempted, s.failed, &metrics)
    );
    Ok(correct)
}

/// Reruns the workload `n` times on seeds `seed..seed+n` (fresh processes)
/// and prints each metric's median and quartile spread.
fn self_check(args: &Args, n: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let mut runs: Vec<report::ParsedMetrics> = Vec::new();
    for i in 0..n as u64 {
        let seed = args.seed + i;
        let output = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn benchmark run");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed = stdout.lines().last().and_then(report::parse_result_line);
        match parsed {
            Some((true, metrics)) if output.status.success() => {
                if i == 0 {
                    if let Some(line) = stdout.lines().find(|l| l.starts_with("# fingerprint")) {
                        println!("{line}");
                    }
                }
                println!("# seed {seed}: ok");
                // The run's own notes: its phases, per-round figures and
                // the host steal it saw.
                for line in stdout.lines().filter(|l| l.starts_with("# ")) {
                    if !line.starts_with("# fingerprint") {
                        println!("#   {}", &line[2..]);
                    }
                }
                runs.push(metrics);
            }
            _ => {
                println!("# seed {seed}: FAILED (exit {:?})", output.status.code());
                return ExitCode::from(1);
            }
        }
    }
    println!(
        "# {} x {} runs; spread = (q3 - q1) / median",
        args.workload.name, n
    );
    for (k, (name, _, unit)) in runs[0].iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|r| r[k].1).collect();
        let (q1, q2, q3) = quartiles(&values);
        let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
        let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "{name:40} median {q2:>14.4} {unit:10} q1 {q1:>14.4} q3 {q3:>14.4} spread {spread:.4}  [{}]",
            each.join(" ")
        );
    }
    ExitCode::SUCCESS
}
