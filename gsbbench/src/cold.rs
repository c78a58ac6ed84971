//! `solve-cold`: round-bounded questions answered in-process by
//! `Query::run_with`, each on a fresh `EngineCache` with the evidence
//! check on, so construction, expansion, CDCL and replay carry the
//! whole load with no cache reuse and no serve layer.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gsb_engine::{EngineCache, Query, Verdict};

use crate::keys;
use crate::layers::{self, Layers};
use crate::oracle::Book;
use crate::server::{peak_rss_mb, thread_cpu_s, THREADS};
use crate::stats::{geomean, median, quantile, samples_needed, TAIL};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, SETUPS};

/// One pass over `queries` in a fresh process — the pass that fills the
/// process-wide memos: its wall seconds and its verdicts.
pub fn first_pass(queries: &[Query]) -> (f64, Vec<gsb_engine::Result<Verdict>>) {
    let started = Instant::now();
    let verdicts = queries
        .iter()
        .map(|q| q.run_with(&EngineCache::new()))
        .collect();
    (started.elapsed().as_secs_f64(), verdicts)
}

/// `SETUPS − 1` first passes in child processes, plus this process's
/// own `first`.
fn setups(first: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = vec![first];
    for _ in 1..SETUPS {
        let out = Command::new(&exe)
            .arg("--cold-setup")
            .env("RAYON_NUM_THREADS", THREADS.to_string())
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let seconds = text
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("set-up child failed ({}): {text}", out.status))?;
        samples.push(seconds);
    }
    Ok(samples)
}

/// Runs seeded whole passes until `phase` has elapsed and the tail
/// percentile has enough samples beyond it; returns the wall times in
/// µs of each query, indexed like `queries`.
fn timed_passes(
    queries: &[Query],
    phase: Duration,
    state: &mut u64,
    mut tracer: Option<&mut Tracer>,
    book: &mut Book,
    outcome: &mut Outcome,
) -> Vec<Vec<f64>> {
    let mut walls = vec![Vec::new(); queries.len()];
    let started = Instant::now();
    while started.elapsed() < phase
        || walls.iter().map(Vec::len).sum::<usize>() < samples_needed(TAIL)
    {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        keys::shuffle(&mut order, state);
        for key in order {
            outcome.attempted += 1;
            let cache = EngineCache::new();
            let span = tracer.as_deref_mut().map(|t| t.begin("engine.run", None));
            let begun = Instant::now();
            let verdict: Result<Verdict, _> = queries[key].run_with(&cache);
            let us = begun.elapsed().as_secs_f64() * 1e6;
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.end(id);
            }
            match verdict {
                Ok(verdict) => {
                    walls[key].push(us);
                    book.add(key, &verdict);
                }
                Err(e) => {
                    outcome.failed += 1;
                    eprintln!("query failed: {}: {e}", queries[key]);
                }
            }
        }
    }
    walls
}

/// `solve-cold`: cold verdicts in-process.
pub fn solve_cold(ctx: &Ctx, trace: Option<&Path>) -> Result<Outcome, String> {
    let queries = keys::cold_queries();
    let mut outcome = Outcome::default();
    let mut book = Book::new(&queries);
    let (first, verdicts) = first_pass(&queries);
    for (key, verdict) in verdicts.into_iter().enumerate() {
        let verdict = verdict.map_err(|e| format!("set-up pass: {}: {e}", queries[key]))?;
        book.add(key, &verdict);
    }
    let setups = setups(first)?;
    let mut state = ctx.seed;
    let phase = Duration::from_secs_f64(if trace.is_some() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let cpu0 = thread_cpu_s();
    let per_query = timed_passes(&queries, phase, &mut state, None, &mut book, &mut outcome);
    let client_cpu = thread_cpu_s() - cpu0;
    let walls: Vec<f64> = per_query.concat();
    let p50 = median(&walls).ok_or("no verdicts")?;

    let Some(trace) = trace else {
        book.check(&mut outcome);
        // Throughput and geomean come from each query's median wall
        // time: the two-member portfolio makes single solves of the
        // heaviest queries swing by ±20 %, and the three heaviest take over
        // half of a pass.
        let typical: Vec<f64> = per_query
            .iter()
            .map(|w| median(w).ok_or("a query never answered"))
            .collect::<Result<_, _>>()?;
        let pass_s = typical.iter().sum::<f64>() * 1e-6;
        outcome
            .metrics
            .insert("setup_s", median(&setups).ok_or("no setup")?);
        outcome
            .metrics
            .insert("ops_per_s", queries.len() as f64 / pass_s);
        outcome.metrics.insert("p50_us", p50);
        outcome.metrics.insert(
            "p90_us",
            quantile(&walls, TAIL).ok_or("too few samples for the tail")?,
        );
        outcome
            .metrics
            .insert("geomean_us", geomean(&typical).ok_or("no verdicts")?);
        outcome
            .metrics
            .insert("peak_rss_mb", peak_rss_mb("/proc/self/status")?);
        println!("{} verdicts over {} keys", walls.len(), queries.len());
        return Ok(outcome);
    };
    let mut tracer = Tracer::default();
    let traced = timed_passes(
        &queries,
        phase,
        &mut state,
        Some(&mut tracer),
        &mut book,
        &mut outcome,
    )
    .concat();
    book.check(&mut outcome);
    let mut layers = Layers::default();
    layers::engine_sweep(&mut tracer, &mut layers, &queries, None)?;
    layers::topology_sweep(&mut tracer, &mut layers, &queries)?;
    layers.set("client.cpu_s", client_cpu);
    let traced_p50 = median(&traced).ok_or("no traced verdicts")?;
    layers.set("trace.overhead_pct", (traced_p50 - p50) / p50 * 100.0);
    outcome.metrics = layers.finish();
    layers::report(&tracer, &outcome.metrics, trace)?;
    Ok(outcome)
}
