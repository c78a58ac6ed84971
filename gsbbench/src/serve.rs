//! The two serve workloads. Each drives the real `gsb serve` child over
//! loopback TCP in a closed loop: one connection, one request in
//! flight, one load thread.
//!
//! * `serve-hit` asks, in seeded rounds, every key of a store built by
//!   `gsb store build --atlas 10`; every answer must come from the store.
//! * `serve-fill` starts each pass on an empty disk-backed store and
//!   asks every fill key six times in seeded order; the first ask runs
//!   the engine and appends, the rest are store hits.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gsb_engine::{Json, Query, Verdict};
use gsb_serve::{proto, Client, Served, ServedBy, VerdictStore};

use crate::keys::{self, ATLAS_DEPTH, FILL_ASKS};
use crate::layers::{self, Layers};
use crate::oracle::Book;
use crate::server::{thread_cpu_s, ServeProcess, THREADS};
use crate::stats::{median, windowed, TAIL_WINDOW};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, SETUPS};

/// Runs one `gsb` subcommand to completion.
fn gsb(ctx: &Ctx, args: &[&str], path: &Path) -> Result<(), String> {
    let out = Command::new(&ctx.gsb)
        .args(args)
        .arg(path)
        .env("RAYON_NUM_THREADS", THREADS.to_string())
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("gsb {}: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "gsb {} failed ({}): {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

/// Every `key → verdict` entry of a disk store, read line by line from
/// its newest generation file and its append log (log entries win).
fn store_entries(store: &Path) -> Result<BTreeMap<String, String>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(store.parent().expect("store has a directory"))
        .map_err(|e| e.to_string())?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let base = store.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.strip_prefix(base)
                .and_then(|rest| rest.strip_prefix(".g"))
                .is_some_and(|digits| digits.bytes().all(|b| b.is_ascii_digit()))
        })
        .collect();
    files.sort();
    let mut sources: Vec<PathBuf> = files.pop().into_iter().collect();
    sources.push(store.to_path_buf());
    let mut entries = BTreeMap::new();
    for source in sources {
        let text =
            std::fs::read_to_string(&source).map_err(|e| format!("{}: {e}", source.display()))?;
        for line in text.lines() {
            let value = Json::parse(line).map_err(|e| format!("{}: {e}", source.display()))?;
            if let (Some(key), Some(verdict)) = (value.get("key"), value.get("verdict")) {
                entries.insert(key.render_compact(), verdict.render_compact());
            }
        }
    }
    Ok(entries)
}

/// The traced client: the steps of `Client::query` (render the request,
/// one line out and one line back, parse the response and its verdict)
/// taken one at a time, each inside its own span.
struct TracedConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Every request line sent, for the in-process replay.
    lines: Vec<String>,
    /// Whole round trips, µs.
    round_trips: Vec<f64>,
}

impl TracedConn {
    fn connect(addr: &str) -> Result<TracedConn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(TracedConn {
            writer,
            reader,
            next_id: 0,
            lines: Vec::new(),
            round_trips: Vec::new(),
        })
    }

    fn ask(&mut self, tracer: &mut Tracer, query: &Query) -> Result<Served, String> {
        let started = Instant::now();
        let root = tracer.begin("request", None);
        let id = self.next_id;
        self.next_id += 1;
        let line = tracer.span("client.encode", Some(root), || {
            proto::render_query_attempt(query, Some(id), 0)
        });
        let (writer, reader) = (&mut self.writer, &mut self.reader);
        let response = tracer
            .span("transport", Some(root), || -> std::io::Result<String> {
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                let mut response = String::new();
                reader.read_line(&mut response)?;
                Ok(response)
            })
            .map_err(|e| format!("transport: {e}"))?;
        let served = tracer.span("client.decode", Some(root), || decode(&response))?;
        tracer.end(root);
        self.round_trips.push(started.elapsed().as_secs_f64() * 1e6);
        self.lines.push(line);
        Ok(served)
    }
}

/// Parses a verdict response line the way `Client::query` does.
fn decode(line: &str) -> Result<Served, String> {
    let value = Json::parse(line.trim_end()).map_err(|e| e.to_string())?;
    if value.get("kind").and_then(Json::as_str) != Some("verdict") {
        return Err(format!("not a verdict: {}", line.trim_end()));
    }
    let served_by = match value.get("served_by").and_then(Json::as_str) {
        Some("store") => ServedBy::Store,
        Some("engine") => ServedBy::Engine,
        other => return Err(format!("unknown served_by {other:?}")),
    };
    let payload = value.get("verdict").ok_or("verdict payload missing")?;
    let verdict = Verdict::from_json(&payload.render_compact()).map_err(|e| e.to_string())?;
    Ok(Served { verdict, served_by })
}

/// One connection in either mode.
enum Conn<'t> {
    Plain(Client),
    Traced(TracedConn, &'t mut Tracer),
}

impl Conn<'_> {
    fn ask(&mut self, query: &Query) -> Result<Served, String> {
        match self {
            Conn::Plain(client) => client.query(query).map_err(|e| e.to_string()),
            Conn::Traced(conn, tracer) => conn.ask(tracer, query),
        }
    }
}

/// Latencies of one session, split by who answered.
#[derive(Debug, Default)]
struct Latencies {
    store_us: Vec<f64>,
    engine_us: Vec<f64>,
}

impl Latencies {
    fn all(&self) -> Vec<f64> {
        self.store_us
            .iter()
            .chain(&self.engine_us)
            .copied()
            .collect()
    }

    /// Every window's samples in one.
    fn pooled(windows: &[Latencies]) -> Latencies {
        Latencies {
            store_us: windows
                .iter()
                .flat_map(|w| w.store_us.iter().copied())
                .collect(),
            engine_us: windows
                .iter()
                .flat_map(|w| w.engine_us.iter().copied())
                .collect(),
        }
    }
}

/// Per-session answer bookkeeping: the first verdict per key, checked
/// for who answered, and every later answer compared with it.
struct Session {
    first: Vec<Option<Verdict>>,
    /// Whether first asks are expected from the engine (`serve-fill`).
    fill: bool,
}

impl Session {
    fn new(keys: usize, fill: bool) -> Session {
        Session {
            first: vec![None; keys],
            fill,
        }
    }

    /// Sends every key of `order` in turn and books the answers. Timing
    /// covers the round trip only, not the bookkeeping around it.
    fn run(
        &mut self,
        conn: &mut Conn<'_>,
        queries: &[Query],
        order: &[usize],
        lat: &mut Latencies,
        outcome: &mut Outcome,
    ) {
        for &key in order {
            outcome.attempted += 1;
            let started = Instant::now();
            let answer = conn.ask(&queries[key]);
            let us = started.elapsed().as_secs_f64() * 1e6;
            let served = match answer {
                Ok(served) => served,
                Err(e) => {
                    outcome.failed += 1;
                    eprintln!("request failed: {}: {e}", queries[key]);
                    continue;
                }
            };
            let expected = if self.fill && self.first[key].is_none() {
                ServedBy::Engine
            } else {
                ServedBy::Store
            };
            if served.served_by != expected {
                outcome.violations.push(format!(
                    "{}: served by {:?}, expected {expected:?}",
                    queries[key], served.served_by
                ));
            }
            match served.served_by {
                ServedBy::Store => lat.store_us.push(us),
                ServedBy::Engine => lat.engine_us.push(us),
            }
            match &self.first[key] {
                None => self.first[key] = Some(served.verdict),
                Some(first) if *first != served.verdict => {
                    outcome.violations.push(format!(
                        "{}: two different answers in one session",
                        queries[key]
                    ));
                }
                Some(_) => {}
            }
        }
    }

    /// Compares every first answer with the store entry the run built
    /// for it, and hands the answers to the oracle book.
    fn settle(
        &self,
        queries: &[Query],
        store: &Path,
        book: &mut Book,
        outcome: &mut Outcome,
    ) -> Result<(), String> {
        let entries = store_entries(store)?;
        if entries.len() != queries.len() {
            outcome.violations.push(format!(
                "store holds {} entries for {} keys",
                entries.len(),
                queries.len()
            ));
        }
        for (key, (query, verdict)) in queries.iter().zip(&self.first).enumerate() {
            let Some(verdict) = verdict else { continue };
            match entries
                .get(&proto::canonical_key(query))
                .map(|e| Verdict::from_json(e))
            {
                Some(Ok(stored)) if stored == *verdict => {}
                Some(Ok(_)) => outcome.violations.push(format!(
                    "{query}: served verdict differs from the store entry"
                )),
                Some(Err(e)) => outcome
                    .violations
                    .push(format!("{query}: store entry does not parse: {e}")),
                None => outcome.violations.push(format!("{query}: no store entry")),
            }
            book.add(key, verdict);
        }
        Ok(())
    }
}

/// A seeded order of whole rounds: every key `asks` times per round.
fn round_order(keys: usize, asks: usize, state: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys)
        .flat_map(|k| std::iter::repeat_n(k, asks))
        .collect();
    keys::shuffle(&mut order, state);
    order
}

/// Server-side counters from the `metrics` response.
fn server_counts(addr: &str) -> Result<(f64, f64, f64, f64), String> {
    let metrics = Client::connect(addr)
        .and_then(|mut client| client.metrics())
        .map_err(|e| format!("metrics: {e}"))?;
    let num = |path: &[&str]| {
        let mut value = &metrics;
        for part in path {
            value = value.get(part)?;
        }
        value.as_f64()
    };
    let get = |path: &[&str]| {
        num(path).ok_or_else(|| format!("metrics response lacks {}", path.join(".")))
    };
    Ok((
        get(&["server", "served_store"])?,
        get(&["server", "served_engine"])?,
        get(&["cache", "hits"])?,
        get(&["cache", "misses"])?,
    ))
}

/// End-to-end figures common to both serve workloads, from per-window
/// latencies; percentiles are read from store-served round trips.
fn serve_metrics(
    outcome: &mut Outcome,
    setups: &[f64],
    windows: &[Latencies],
    peak_mb: f64,
) -> Result<(), String> {
    let pairs: Vec<(Vec<f64>, Vec<f64>)> = windows
        .iter()
        .map(|w| (w.all(), w.store_us.clone()))
        .collect();
    let figures = windowed(&pairs).ok_or("a window without samples, or too few for the tail")?;
    outcome
        .metrics
        .insert("setup_s", median(setups).ok_or("no setup")?);
    outcome.metrics.insert("ops_per_s", figures.ops_per_s);
    outcome.metrics.insert("p50_us", figures.p50_us);
    outcome.metrics.insert("p90_us", figures.p90_us);
    outcome.metrics.insert("geomean_us", figures.geomean_us);
    outcome.metrics.insert("peak_rss_mb", peak_mb);
    let (store, engine) = windows.iter().fold((0, 0), |(s, e), w| {
        (s + w.store_us.len(), e + w.engine_us.len())
    });
    println!(
        "{} windows; {store} store and {engine} engine round trips",
        windows.len()
    );
    Ok(())
}

/// The traced half's figures shared by both serve workloads: client
/// steps, the in-process replay, and transport as the remainder.
fn serve_layers(
    tracer: &mut Tracer,
    layers: &mut Layers,
    conn: &TracedConn,
    store: &Path,
    untraced_p50_us: f64,
) -> Result<(), String> {
    let served =
        VerdictStore::open_with(store, None).map_err(|e| format!("{}: {e}", store.display()))?;
    layers::replay_requests(tracer, &conn.lines, &served)?;
    layers.set_median_us("client.encode_us", tracer, "client.encode");
    layers.set_median_us("client.decode_us", tracer, "client.decode");
    layers.set_median_us("proto.parse_us", tracer, "proto.parse");
    layers.set_median_us("proto.key_us", tracer, "proto.key");
    layers.set_median_us("store.lookup_us", tracer, "store.lookup");
    layers.set_median_us("proto.response_us", tracer, "proto.response");
    let traced_p50 = median(&conn.round_trips).ok_or("no traced round trips")?;
    let v = &layers.values;
    let accounted = [
        "client.encode_us",
        "client.decode_us",
        "proto.parse_us",
        "store.lookup_us",
        "proto.response_us",
    ]
    .iter()
    .map(|name| v[name])
    .sum::<f64>();
    layers.set("server.transport_us", traced_p50 - accounted);
    layers.set(
        "trace.overhead_pct",
        (traced_p50 - untraced_p50_us) / untraced_p50_us * 100.0,
    );
    Ok(())
}

/// `serve-hit`: warm answers from a prebuilt store.
pub fn serve_hit(ctx: &Ctx, trace: Option<&Path>) -> Result<Outcome, String> {
    let queries = keys::classify_and_witness(&keys::atlas_specs(ATLAS_DEPTH));
    let mut outcome = Outcome::default();
    let depth = ATLAS_DEPTH.to_string();

    // Set-up: store build, compaction, then server start (which reopens
    // the store) until it answers a ping; several times, median kept.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live: Option<(ServeProcess, PathBuf)> = None;
    for i in 0..SETUPS {
        let dir = ctx.tmp.join(format!("hit-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let store = dir.join("store.jsonl");
        let started = Instant::now();
        gsb(ctx, &["store", "build", "--atlas", &depth, "--out"], &store)?;
        gsb(ctx, &["store", "compact"], &store)?;
        let (server, _) = ServeProcess::start(&ctx.gsb, &store, &dir.join("serve.log"))?;
        setups.push(started.elapsed().as_secs_f64());
        if let Some((previous, _)) = live.replace((server, store)) {
            previous.stop()?;
        }
    }
    let (server, store) = live.expect("at least one setup");

    let mut state = ctx.seed;
    let mut session = Session::new(queries.len(), false);
    let mut windows: Vec<Latencies> = Vec::new();
    let phase = Duration::from_secs_f64(if trace.is_some() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let mut client = Conn::Plain(Client::connect(server.addr()).map_err(|e| e.to_string())?);
    let (cpu0, worker0) = (thread_cpu_s(), server.worker_cpu_s());
    let started = Instant::now();
    while started.elapsed() < phase || windows.len() < SETUPS {
        let order = round_order(queries.len(), 1, &mut state);
        // Host stalls come in bursts of a few ms: windows this short
        // keep them to a minority of windows.
        for chunk in order.chunks(TAIL_WINDOW) {
            let mut window = Latencies::default();
            session.run(&mut client, &queries, chunk, &mut window, &mut outcome);
            windows.push(window);
        }
    }
    let (client_cpu, worker_cpu) = (thread_cpu_s() - cpu0, server.worker_cpu_s() - worker0);
    drop(client);

    let mut traced = None;
    if trace.is_some() {
        let mut tracer = Tracer::default();
        let mut conn = Conn::Traced(TracedConn::connect(server.addr())?, &mut tracer);
        let mut traced_lat = Latencies::default();
        let started = Instant::now();
        while started.elapsed() < phase {
            let order = round_order(queries.len(), 1, &mut state);
            session.run(&mut conn, &queries, &order, &mut traced_lat, &mut outcome);
        }
        let Conn::Traced(conn, _) = conn else {
            unreachable!()
        };
        traced = Some((tracer, conn));
    }
    let (served_store, served_engine, cache_hits, cache_misses) = server_counts(server.addr())?;
    if served_engine != 0.0 || served_store != (outcome.attempted - outcome.failed) as f64 {
        outcome.violations.push(format!(
            "server counted {served_store} store and {served_engine} engine answers for {} requests",
            outcome.attempted - outcome.failed
        ));
    }
    let peak_mb = server.peak_rss_mb()?;
    server.stop()?;

    let mut book = Book::new(&queries);
    session.settle(&queries, &store, &mut book, &mut outcome)?;
    book.check(&mut outcome);

    let Some((mut tracer, conn)) = traced else {
        serve_metrics(&mut outcome, &setups, &windows, peak_mb)?;
        return Ok(outcome);
    };
    let mut layers = Layers::default();
    let untraced_p50 = median(&Latencies::pooled(&windows).store_us).ok_or("no samples")?;
    serve_layers(&mut tracer, &mut layers, &conn, &store, untraced_p50)?;
    layers::engine_sweep(&mut tracer, &mut layers, &queries, Some(&ctx.tmp))?;
    layers.set("client.cpu_s", client_cpu);
    layers.set("server.worker_cpu_s", worker_cpu);
    layers.set("server.served_engine", served_engine);
    layers.set("engine.cache_hits", cache_hits);
    layers.set("engine.cache_misses", cache_misses);
    outcome.metrics = layers.finish();
    layers::report(&tracer, &outcome.metrics, trace.expect("traced run"))?;
    Ok(outcome)
}

/// What one `serve-fill` pass measured.
struct Pass {
    setup_s: f64,
    peak_mb: f64,
    worker_cpu_s: f64,
    counts: (f64, f64, f64, f64),
}

/// One `serve-fill` pass: a fresh server on an empty store, every key
/// asked `FILL_ASKS` times, then the books checked against the log.
#[allow(clippy::too_many_arguments)]
fn fill_pass(
    ctx: &Ctx,
    index: usize,
    queries: &[Query],
    state: &mut u64,
    tracer: Option<&mut Tracer>,
    lat: &mut Latencies,
    book: &mut Book,
    outcome: &mut Outcome,
) -> Result<(Pass, Option<TracedConn>, PathBuf), String> {
    let dir = ctx.tmp.join(format!("fill-{index}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let store = dir.join("store.jsonl");
    let (server, setup_s) = ServeProcess::start(&ctx.gsb, &store, &dir.join("serve.log"))?;
    let order = round_order(queries.len(), FILL_ASKS, state);
    let mut session = Session::new(queries.len(), true);
    let worker0 = server.worker_cpu_s();
    let conn = match tracer {
        Some(tracer) => {
            let mut conn = Conn::Traced(TracedConn::connect(server.addr())?, tracer);
            session.run(&mut conn, queries, &order, lat, outcome);
            let Conn::Traced(conn, _) = conn else {
                unreachable!()
            };
            Some(conn)
        }
        None => {
            let mut conn = Conn::Plain(Client::connect(server.addr()).map_err(|e| e.to_string())?);
            session.run(&mut conn, queries, &order, lat, outcome);
            None
        }
    };
    let worker_cpu_s = server.worker_cpu_s() - worker0;
    let counts = server_counts(server.addr())?;
    let keys = queries.len() as f64;
    if counts.1 != keys || counts.0 != keys * (FILL_ASKS - 1) as f64 {
        outcome.violations.push(format!(
            "pass {index}: server counted {} store and {} engine answers for {} keys asked {FILL_ASKS} times",
            counts.0, counts.1, keys
        ));
    }
    let peak_mb = server.peak_rss_mb()?;
    server.stop()?;
    session.settle(queries, &store, book, outcome)?;
    let pass = Pass {
        setup_s,
        peak_mb,
        worker_cpu_s,
        counts,
    };
    Ok((pass, conn, store))
}

/// `serve-fill`: engine misses filling an empty store, beside store hits.
pub fn serve_fill(ctx: &Ctx, trace: Option<&Path>) -> Result<Outcome, String> {
    let queries = keys::fill_queries();
    let mut outcome = Outcome::default();
    let mut book = Book::new(&queries);
    let mut state = ctx.seed;
    let mut windows: Vec<Latencies> = Vec::new();
    let mut passes = Vec::new();
    let phase = Duration::from_secs_f64(if trace.is_some() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let mut client_cpu = thread_cpu_s();
    let started = Instant::now();
    while started.elapsed() < phase || passes.len() < SETUPS {
        let mut window = Latencies::default();
        let (pass, _, _) = fill_pass(
            ctx,
            passes.len(),
            &queries,
            &mut state,
            None,
            &mut window,
            &mut book,
            &mut outcome,
        )?;
        passes.push(pass);
        windows.push(window);
    }
    client_cpu = thread_cpu_s() - client_cpu;

    let Some(trace) = trace else {
        book.check(&mut outcome);
        let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
        let peaks: Vec<f64> = passes.iter().map(|p| p.peak_mb).collect();
        serve_metrics(
            &mut outcome,
            &setups,
            &windows,
            median(&peaks).ok_or("no pass")?,
        )?;
        return Ok(outcome);
    };
    let mut tracer = Tracer::default();
    let mut traced_lat = Latencies::default();
    let mut first = None;
    let started = Instant::now();
    let mut traced_passes = 0;
    while started.elapsed() < phase || traced_passes == 0 {
        let index = passes.len() + traced_passes;
        let (pass, conn, store) = fill_pass(
            ctx,
            index,
            &queries,
            &mut state,
            Some(&mut tracer),
            &mut traced_lat,
            &mut book,
            &mut outcome,
        )?;
        if traced_passes == 0 {
            first = Some((pass, conn.expect("traced pass"), store));
        } else if let Some((_, previous, _)) = first.as_mut() {
            let conn = conn.expect("traced pass");
            previous.round_trips.extend(conn.round_trips);
        }
        traced_passes += 1;
    }
    book.check(&mut outcome);
    let (first_traced, conn, store) = first.expect("one traced pass");
    let mut layers = Layers::default();
    // Like with like: every round trip of the untraced passes against
    // every round trip of the traced ones, hits and misses alike.
    let lat = Latencies::pooled(&windows);
    let untraced_p50 = median(&lat.all()).ok_or("no samples")?;
    serve_layers(&mut tracer, &mut layers, &conn, &store, untraced_p50)?;
    layers::engine_sweep(&mut tracer, &mut layers, &queries, Some(&ctx.tmp))?;
    layers::topology_sweep(&mut tracer, &mut layers, &queries)?;
    let worker_cpu: f64 = passes.iter().map(|p| p.worker_cpu_s).sum();
    layers.set("client.cpu_s", client_cpu);
    layers.set("server.worker_cpu_s", worker_cpu);
    layers.set("server.served_engine", first_traced.counts.1);
    layers.set("engine.cache_hits", first_traced.counts.2);
    layers.set("engine.cache_misses", first_traced.counts.3);
    layers.set(
        "server.miss_p50_ms",
        median(&lat.engine_us).ok_or("no engine answers")? * 1e-3,
    );
    outcome.metrics = layers.finish();
    layers::report(&tracer, &outcome.metrics, trace)?;
    Ok(outcome)
}
