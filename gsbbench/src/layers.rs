//! The per-layer half of a traced run: spans around the public calls of
//! each layer, replayed in-process over the workload's own keys and
//! recorded request stream, reduced to one figure per layer.
//!
//! Figures named `_us` are the median self time of one call; `_ms` and
//! `_s` are totals over the workload's distinct keys (or, for
//! `client.cpu_s` and `server.worker_cpu_s`, over the untraced timed
//! phase); counts are totals over the distinct keys. A layer the
//! workload never reaches reads 0.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gsb_core::GsbSpec;
use gsb_engine::{Batch, EngineCache, Query, Question, Verdict};
use gsb_serve::proto::{self, Request};
use gsb_serve::VerdictStore;
use gsb_topology::{CdclConfig, ConstraintSystem, SearchMode, SymmetricSearch};

use crate::stats::median;
use crate::trace::Tracer;

/// Every per-layer metric a traced run reports: name and unit.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("client.cpu_s", "s"),
    ("proto.parse_us", "us"),
    ("proto.key_us", "us"),
    ("proto.response_us", "us"),
    ("store.lookup_us", "us"),
    ("store.insert_us", "us"),
    ("store.load_s", "s"),
    ("store.compact_s", "s"),
    ("store.file_bytes", "bytes"),
    ("server.worker_cpu_s", "s"),
    ("server.transport_us", "us"),
    ("server.served_engine", "count"),
    ("server.miss_p50_ms", "ms"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.batch_s", "s"),
    ("engine.check_ms", "ms"),
    ("engine.render_us", "us"),
    ("engine.parse_us", "us"),
    ("engine.query_ms", "ms"),
    ("topology.build_ms", "ms"),
    ("topology.stamped_rows", "count"),
    ("topology.solve_ms", "ms"),
    ("topology.conflicts", "count"),
    ("topology.propagations", "count"),
    ("topology.race_ms", "ms"),
    ("topology.local_steps", "count"),
    ("topology.replay_ms", "ms"),
    ("core.classify_us", "us"),
    ("core.witness_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Solves per round-bounded instance in the topology sweep; counters
/// and times are the median of these (the two-member portfolio races).
const SOLVE_REPEATS: usize = 3;

/// Per-layer figures being assembled for one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Figures by metric name; names never set read 0.
    pub values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Sets one figure.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Sets the median self time, in µs, of every span named `span`.
    pub fn set_median_us(&mut self, name: &'static str, tracer: &Tracer, span: &str) {
        let value = tracer
            .self_times()
            .get(span)
            .and_then(|times| median(times))
            .map_or(0.0, |s| s * 1e6);
        self.set(name, value);
    }

    /// Sets the total self time, in `scale` units per second, of every
    /// span named `span`.
    pub fn set_total(&mut self, name: &'static str, tracer: &Tracer, span: &str, scale: f64) {
        let total: f64 = tracer
            .self_times()
            .get(span)
            .map_or(0.0, |t| t.iter().sum());
        self.set(name, total * scale);
    }

    /// Every per-layer metric, 0 where unset.
    #[must_use]
    pub fn finish(self) -> BTreeMap<&'static str, f64> {
        PER_LAYER
            .iter()
            .map(|&(name, _)| (name, self.values.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Replays recorded request lines through the server's per-request
/// functions against `store`: parse, canonical key, store lookup and
/// response rendering, one span each under a `replay` span.
pub fn replay_requests(
    tracer: &mut Tracer,
    lines: &[String],
    store: &VerdictStore,
) -> Result<(), String> {
    for line in lines {
        let root = tracer.begin("replay", None);
        let request = tracer.span("proto.parse", Some(root), || proto::parse_request(line))?;
        let Request::Query { id, query, .. } = request else {
            return Err(format!("recorded line is not a query: {line}"));
        };
        std::hint::black_box(tracer.span("proto.key", Some(root), || proto::canonical_key(&query)));
        let found = tracer
            .span("store.lookup", Some(root), || store.lookup(&query))
            .ok_or_else(|| format!("replayed key missing from the store: {line}"))?;
        std::hint::black_box(tracer.span("proto.response", Some(root), || {
            proto::response::verdict(id, "store", &found)
        }));
        tracer.end(root);
    }
    Ok(())
}

/// The engine, core and store sweep over a workload's distinct queries:
/// a shared-cache batch, then per query a cold unchecked run, its
/// evidence check, rendering and parsing; per spec the closed-form
/// calls. With `store_dir`, every verdict is also inserted into a fresh
/// disk store there, which is then compacted and reopened.
pub fn engine_sweep(
    tracer: &mut Tracer,
    layers: &mut Layers,
    queries: &[Query],
    store_dir: Option<&Path>,
) -> Result<(), String> {
    let mut batch = Batch::new();
    for query in queries {
        batch.push(query.clone());
    }
    let batch_id = tracer.begin("engine.batch", None);
    let results = batch.run_with(&EngineCache::new());
    tracer.end(batch_id);
    for result in results {
        result.map_err(|e| format!("batch query failed: {e}"))?;
    }
    layers.set_total("engine.batch_s", tracer, "engine.batch", 1.0);

    let mut verdicts: Vec<Verdict> = Vec::with_capacity(queries.len());
    for query in queries {
        let mut unchecked = query.clone();
        unchecked.opts_mut().check_evidence = false;
        let verdict = tracer
            .span("engine.query", None, || {
                unchecked.run_with(&EngineCache::new())
            })
            .map_err(|e| format!("{query}: {e}"))?;
        tracer
            .span("engine.check", None, || verdict.check())
            .map_err(|e| format!("{query}: evidence rejected: {e}"))?;
        let rendered = tracer.span("engine.render", None, || {
            verdict.to_json_value().render_compact()
        });
        tracer
            .span("engine.parse", None, || Verdict::from_json(&rendered))
            .map_err(|e| format!("{query}: rendering does not parse: {e}"))?;
        verdicts.push(verdict);
    }
    layers.set_total("engine.query_ms", tracer, "engine.query", 1e3);
    layers.set_total("engine.check_ms", tracer, "engine.check", 1e3);
    layers.set_median_us("engine.render_us", tracer, "engine.render");
    layers.set_median_us("engine.parse_us", tracer, "engine.parse");

    let mut specs: Vec<&GsbSpec> = queries.iter().filter_map(Query::spec).collect();
    specs.sort_by_key(|spec| spec.to_string());
    specs.dedup();
    for spec in specs {
        std::hint::black_box(tracer.span("core.classify", None, || spec.classify()));
        std::hint::black_box(tracer.span("core.witness", None, || spec.no_communication_witness()));
    }
    layers.set_median_us("core.classify_us", tracer, "core.classify");
    layers.set_median_us("core.witness_us", tracer, "core.witness");

    if let Some(dir) = store_dir {
        let path = dir.join("layers.jsonl");
        let store =
            VerdictStore::open_with(&path, None).map_err(|e| format!("{}: {e}", path.display()))?;
        for (query, verdict) in queries.iter().zip(&verdicts) {
            tracer.span("store.insert", None, || store.insert(query, verdict));
        }
        let report = tracer
            .span("store.compact", None, || store.compact())
            .map_err(|e| format!("compaction: {e}"))?;
        drop(store);
        let reopened = tracer
            .span("store.load", None, || VerdictStore::open_with(&path, None))
            .map_err(|e| format!("reopen: {e}"))?;
        if reopened.stats().entries != queries.len() {
            return Err(format!(
                "reopened store holds {} entries, {} inserted",
                reopened.stats().entries,
                queries.len()
            ));
        }
        layers.set_median_us("store.insert_us", tracer, "store.insert");
        layers.set_total("store.compact_s", tracer, "store.compact", 1.0);
        layers.set_total("store.load_s", tracer, "store.load", 1.0);
        layers.set("store.file_bytes", report.bytes as f64);
    }
    Ok(())
}

/// The topology sweep over the distinct round-bounded instances among
/// `queries`: a fresh streamed constraint system per instance, CDCL
/// (or race, for raced queries) solves on it, and a facet-by-facet
/// replay of every SAT map.
pub fn topology_sweep(
    tracer: &mut Tracer,
    layers: &mut Layers,
    queries: &[Query],
) -> Result<(), String> {
    let mut seen: Vec<(GsbSpec, usize, SearchMode)> = Vec::new();
    let (mut stamped, mut conflicts, mut propagations, mut local_steps) = (0.0, 0.0, 0.0, 0.0);
    let (mut solve_s, mut race_s) = (0.0, 0.0);
    for query in queries {
        let (Some(spec), Question::SolvableInRounds { rounds } | Question::Certificate { rounds }) =
            (query.spec(), query.question())
        else {
            continue;
        };
        let instance = (spec.clone(), *rounds, query.opts().mode);
        if seen.contains(&instance) {
            continue;
        }
        seen.push(instance.clone());
        let (spec, rounds, mode) = instance;
        let (system, build) = tracer.span("topology.build", None, || {
            ConstraintSystem::streamed(spec.n(), rounds)
        });
        stamped += build.stamped_rows as f64;
        let search = SymmetricSearch::with_system(spec.clone(), Some(rounds), Arc::new(system));
        let config = CdclConfig::default();
        let span = if mode == SearchMode::Race {
            "topology.race"
        } else {
            "topology.solve"
        };
        let mut runs = Vec::with_capacity(SOLVE_REPEATS);
        for _ in 0..SOLVE_REPEATS {
            let started = Instant::now();
            let (result, stats) = tracer.span(span, None, || search.solve_mode_with(&config, mode));
            runs.push((started.elapsed().as_secs_f64(), result, stats));
        }
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (seconds, result, stats) = runs.swap_remove(SOLVE_REPEATS / 2);
        let result = result.ok_or_else(|| format!("{spec} r={rounds}: no verdict"))?;
        let mid = |f: &dyn Fn(&gsb_topology::SearchStats) -> u64| -> f64 {
            let mut xs: Vec<u64> = runs.iter().map(|r| f(&r.2)).chain([f(&stats)]).collect();
            xs.sort_unstable();
            xs[xs.len() / 2] as f64
        };
        if mode == SearchMode::Race {
            race_s += seconds;
            local_steps += mid(&|s| s.local_steps);
        } else {
            solve_s += seconds;
            conflicts += mid(&|s| s.conflicts);
            propagations += mid(&|s| s.propagations);
        }
        if let Some(map) = search.decision_map(&result) {
            tracer
                .span("topology.replay", None, || map.check(&spec))
                .map_err(|e| format!("{spec} r={rounds}: replay rejected the map: {e}"))?;
        }
    }
    layers.set_total("topology.build_ms", tracer, "topology.build", 1e3);
    layers.set_total("topology.replay_ms", tracer, "topology.replay", 1e3);
    layers.set("topology.stamped_rows", stamped);
    layers.set("topology.solve_ms", solve_s * 1e3);
    layers.set("topology.race_ms", race_s * 1e3);
    layers.set("topology.conflicts", conflicts);
    layers.set("topology.propagations", propagations);
    layers.set("topology.local_steps", local_steps);
    Ok(())
}

/// Writes the spans and prints every per-layer figure as a table.
pub fn report(
    tracer: &Tracer,
    values: &BTreeMap<&'static str, f64>,
    path: &Path,
) -> Result<(), String> {
    tracer
        .write(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{:<24} {:>16} unit", "layer metric", "value");
    for &(name, unit) in &PER_LAYER {
        println!("{name:<24} {:>16.4} {unit}", values[name]);
    }
    Ok(())
}
