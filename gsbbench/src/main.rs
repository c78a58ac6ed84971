//! One benchmark for gsb: warm serving (`serve-hit`), store fill
//! (`serve-fill`) and cold solving (`solve-cold`), measured end to end
//! and, in a separate traced run, layer by layer. See README.md.
//!
//! ```text
//! gsb-e2e-bench --workload W --seed N --seconds S --trace 0|1 --gsb PATH
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.

mod cold;
mod keys;
mod layers;
mod oracle;
mod serve;
mod server;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Setups per run whose median is reported as `setup_s`.
pub const SETUPS: usize = 3;

/// The end-to-end metrics every untraced run reports: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("geomean_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Where a run keeps its files, and what it was asked to do.
#[derive(Debug)]
pub struct Ctx {
    /// The `gsb` binary of the checkout.
    pub gsb: PathBuf,
    /// Scratch directory of this run, removed when the run ends.
    pub tmp: PathBuf,
    /// Workload seed: it fixes every order the run asks its keys in.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase(s).
    pub attempted: u64,
    /// Operations that returned an error instead of a verdict.
    pub failed: u64,
    /// Correctness violations found by the post-run checks.
    pub violations: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Removes the run's scratch directory however the run ends.
struct TmpGuard(PathBuf);

impl Drop for TmpGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    gsb: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        values.insert(name, value);
    }
    let get = |name: &str| {
        values
            .get(name)
            .copied()
            .ok_or_else(|| format!("--{name} is required"))
    };
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("workload")?.to_string(),
        seed: number("seed")?,
        seconds: seconds as f64,
        trace,
        gsb: PathBuf::from(get("gsb")?),
    })
}

fn render(outcome: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    if !args.gsb.is_file() {
        return Err(format!("no gsb binary at {}", args.gsb.display()));
    }
    let root = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_tmp");
    let tmp = root.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let _guard = TmpGuard(tmp.clone());
    let ctx = Ctx {
        gsb: args.gsb.clone(),
        tmp,
        seed: args.seed,
        seconds: args.seconds,
    };
    let trace_path = args
        .trace
        .then(|| root.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed)));
    let outcome = match args.workload.as_str() {
        "serve-hit" => serve::serve_hit(&ctx, trace_path.as_deref())?,
        "serve-fill" => serve::serve_fill(&ctx, trace_path.as_deref())?,
        "solve-cold" => cold::solve_cold(&ctx, trace_path.as_deref())?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (serve-hit, serve-fill, solve-cold)"
            ))
        }
    };
    for (i, violation) in outcome.violations.iter().enumerate().take(20) {
        eprintln!("violation {}: {violation}", i + 1);
    }
    if outcome.violations.len() > 20 {
        eprintln!("… {} violations in all", outcome.violations.len());
    }
    if let Some(path) = &trace_path {
        println!("spans written to {}", path.display());
        render(&outcome, &layers::PER_LAYER)
    } else {
        render(&outcome, &END_TO_END)
    }
}

fn main() -> ExitCode {
    // Two threads everywhere: the portfolio, the server's workers, and
    // any rayon fan-out in this process (read before rayon starts).
    std::env::set_var("RAYON_NUM_THREADS", server::THREADS.to_string());
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--cold-setup") {
        // Child mode of `solve-cold`: one first pass in a fresh process.
        println!("{}", cold::first_pass(&keys::cold_queries()).0);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gsb-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gsb-e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
