//! The model-checker benchmark binary.
//!
//! ```text
//! mcbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Sets the workload up, runs the oracle's reference exploration where
//! one is needed, then explores the workload to a verdict again and
//! again for `S` seconds, checking every verdict against its pin. Cold
//! set-ups in fresh processes are timed before the first exploration
//! and between explorations; their median is `setup_s`. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced explorations and reports the
//! per-layer metrics of the traced exploration with the median time to
//! verdict, plus the tracing overhead. The last line of standard output
//! is the JSON result; the exit code is nonzero when any exploration
//! missed its pin.
//!
//! Two modes serve the benchmark itself: `--serve-worker --seed N` is
//! the `aba_fleet` worker process, and `--setup-only --workload NAME
//! --seed N` is one cold set-up.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mcbench::report::{self, median};
use mcbench::workloads::{self, Prepared, Sample, Workload};

/// Cold set-ups timed before the first exploration, and after each
/// untraced exploration; `setup_s` is their median.
const COLD_SETUPS_FIRST: usize = 3;
const COLD_SETUPS_BETWEEN: usize = 2;

/// One cold set-up: a fresh `mcbench --setup-only` process sets the
/// workload up and exits, timed from spawn to exit. Fresh processes
/// make the median independent of this process's allocator and cache
/// state, and spreading them over the run samples the host the way the
/// explorations do.
fn cold_setup(exe: &Path, workload: Workload, seed: u64) -> Result<f64, String> {
    let start = Instant::now();
    let status = Command::new(exe)
        .args(["--setup-only", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawning a cold set-up: {e}"))?;
    let elapsed = start.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("cold set-up exited with {status}"));
    }
    Ok(elapsed)
}

/// The `--setup-only` process: one set-up, then exit.
fn setup_only(workload: Workload, seed: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let scratch = workloads::default_scratch().join(format!("setup-{}", std::process::id()));
    let prepared = Prepared::setup(workload, seed, &scratch, &exe);
    let _ = std::fs::remove_dir_all(&scratch);
    prepared.map(drop)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_worker: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_worker: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                v => return Err(format!("bad --trace {v:?} (0 or 1)")),
            },
            "--serve-worker" => args.serve_worker = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next reading
/// covers only what ran since.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcbench: {e}");
            eprintln!("usage: mcbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if args.serve_worker {
        return match workloads::serve_fleet_worker(args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("mcbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload.as_deref().and_then(Workload::parse) else {
        eprintln!(
            "mcbench: --workload must be one of {:?}",
            Workload::ALL.map(Workload::name)
        );
        return ExitCode::from(2);
    };
    if args.setup_only {
        return match setup_only(workload, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("mcbench set-up: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(workload, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one benchmark run; `Ok(false)` when an exploration missed its
/// pin (the result is still printed).
fn run(workload: Workload, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let scratch =
        workloads::default_scratch().join(format!("{}-{}", workload.name(), std::process::id()));
    let mut prepared = Prepared::setup(workload, args.seed, &scratch, &exe)?;
    let mut setups = Vec::new();
    for _ in 0..COLD_SETUPS_FIRST {
        setups.push(cold_setup(&exe, workload, args.seed)?);
    }
    let mut misses = prepared.compute_reference();
    let mut attempted = usize::from(matches!(
        workload,
        Workload::AbaMixedPar2 | Workload::AbaFleet
    ));
    let mut failed = usize::from(!misses.is_empty());

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    loop {
        if !reset_peak_rss() {
            return Err("cannot reset VmHWM through /proc/self/clear_refs".into());
        }
        untraced.push(prepared.sample(false));
        peaks.push(peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?);
        for _ in 0..COLD_SETUPS_BETWEEN {
            setups.push(cold_setup(&exe, workload, args.seed)?);
        }
        if args.trace {
            traced.push(prepared.sample(true));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    for s in untraced.iter().chain(&traced) {
        attempted += 1;
        if !s.misses.is_empty() {
            failed += 1;
            misses.extend(s.misses.iter().cloned());
        }
    }
    for m in &misses {
        eprintln!("ORACLE MISS {m}");
    }
    let ttv: Vec<f64> = untraced.iter().map(|s| s.ttv_s).collect();
    let rates: Vec<f64> = untraced
        .iter()
        .map(|s| s.schedules as f64 / s.explore_s)
        .collect();
    let ttv_median = median(&ttv);
    println!(
        "mcbench {} seed={} trace={}: {attempted} explorations attempted, {failed} failed \
         (failed_frac {:.4})",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        failed as f64 / attempted as f64,
    );
    println!(
        "time_to_verdict_s median {ttv_median:.4} over {} untraced samples (min {:.4}, max {:.4}); \
         setup_s median {:.6} over {}",
        ttv.len(),
        ttv.iter().copied().fold(f64::INFINITY, f64::min),
        ttv.iter().copied().fold(0.0, f64::max),
        median(&setups),
        setups.len(),
    );
    println!(
        "untraced time_to_verdict_s samples: {}",
        ttv.iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let metrics = if args.trace {
        let traced_ttv: Vec<f64> = traced.iter().map(|s| s.ttv_s).collect();
        let overhead = median(&traced_ttv) / ttv_median;
        // The traced exploration with the median time to verdict (the
        // upper middle one for even counts), so its layers add up to a
        // time that was actually measured.
        let mut order: Vec<&Sample> = traced.iter().collect();
        order.sort_by(|a, b| a.ttv_s.total_cmp(&b.ttv_s));
        let layers = order[order.len() / 2]
            .layers
            .as_ref()
            .expect("traced samples carry layers");
        let threads = workload.threads() as f64;
        for line in report::layer_table(layers, threads, overhead) {
            println!("{line}");
        }
        report::per_layer(layers, overhead)
    } else {
        // The first timed exploration's peak: later explorations start
        // from whatever the earlier ones left resident, so their peaks
        // depend on how many ran before (printed, not reported).
        println!(
            "peak_rss_mb per exploration: {}",
            peaks
                .iter()
                .map(|p| format!("{p:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        report::end_to_end(ttv_median, median(&rates), peaks[0], median(&setups))
    };
    let correct = failed == 0;
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}
