//! hlbench: the hoploc benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hlbench/Cargo.toml -- \
//!     --workload <offchip|resident|shared-page|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes one
//! separate pass that reports the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `hlbench/README.md` for the workloads and the metric map.

mod cell;
mod layers;
mod report;
mod servewl;
mod simwl;
mod stats;

use std::process::{Command, ExitCode};

use report::{json_str, Outcome};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// First line of a command's output, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    // Keep git from searching above the working directory: the benchmark
    // reads only inside its checkout.
    if let Ok(cwd) = std::env::current_dir() {
        if let Some(parent) = cwd.parent() {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    match cmd.output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .trim()
            .to_string(),
        _ => "unknown".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, config: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\": {{\"cpu\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"commit\": {}, \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"config\": {config}}}}}",
        json_str(&cpu_model()),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// Pins glibc's mmap threshold at its 128 KiB default. glibc otherwise raises
/// the threshold each time a large block is freed, after which large blocks
/// come from the heap and stay resident once freed, so the high-water mark
/// would depend on the order the cells ran in rather than on what they hold.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two plain integers and only changes allocator
    // tuning; it runs once, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hlbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sim = match args.workload.as_str() {
        "offchip" => Some(&simwl::OFFCHIP),
        "resident" => Some(&simwl::RESIDENT),
        "shared-page" => Some(&simwl::SHARED_PAGE),
        "serve-mixed" => None,
        other => {
            eprintln!(
                "hlbench: unknown workload {other:?} \
                 (offchip, resident, shared-page, serve-mixed)"
            );
            return ExitCode::from(2);
        }
    };
    let config = sim.map_or_else(servewl::config_echo, |w| w.config_echo());
    println!("{}", provenance(&args, &config));
    let outcome: Outcome = match (sim, args.trace) {
        (Some(w), false) => simwl::run(w, args.seed, args.seconds),
        (Some(w), true) => layers::run(w, args.seed),
        (None, false) => servewl::run(args.seed, args.seconds),
        (None, true) => servewl::run_traced(args.seed),
    };
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
