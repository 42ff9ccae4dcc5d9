//! The two workloads: set-up, the measured loop, the correctness oracle,
//! and (with `--trace 1`) the replay that splits the time by layer.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use assess_core::AssessRunner;
use olap_engine::Engine;
use serde::Value;

use crate::load::{self, closed_loop, LoopOut, Op, Sample};
use crate::metrics::{metric, Metric};
use crate::oracle::{self, Patched};
use crate::replay::{self, Replay, Replayed, Tracer, ROWS};
use crate::rng::Rng;
use crate::setup::{self, Env, Phases};
use crate::stats::{self, median};
use crate::stream::{self, text_hash, Explore, Stmt};
use crate::wire::{self, append_line, run_line, subscribe_line, Conn, Format, ROW_LIMIT};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 2] = ["explore", "sharded"];

/// Client sessions (connections and threads) of the closed loop.
const SESSIONS: usize = 2;
/// Explore statements run during set-up, before the measured window.
const WARM_STATEMENTS: usize = 40;
/// Served replies checked against a cold execution, at most.
const ORACLE_CHECKS: usize = 40;
/// Sharded statements also compared as whole CSVs with the unsharded run.
const CSV_CHECKS: usize = 12;
/// Stretches of a run whose p99s `latency_p99_ms` takes the median of.
const P99_CHUNKS: usize = 5;
/// Replay time of a traced run's reads, as a share of the run length.
const REPLAY_SHARE: f64 = 0.2;
/// Append batches of the traced run, and their rows.
const APPENDS: usize = 12;
const APPEND_ROWS: usize = 2;

/// The subscriptions of the traced run's appends: appends land in every cell
/// group of the first, and only rarely in the second (one nation, one
/// year).
pub const SUB_HIT: &str = "with SSB\nby c_region, year\nassess revenue against 100000000\n\
     using ratio(revenue, 100000000)\nlabels {[0, 0.9): low, [0.9, 1.1]: par, (1.1, inf]: high}";
pub const SUB_MISS: &str = "with SSB\nfor c_nation = 'JAPAN', year = '1998'\nby c_city, year\n\
     assess revenue against 2000000\nusing ratio(revenue, 2000000)\n\
     labels {[0, 0.9): low, [0.9, 1.1]: par, (1.1, inf]: high}";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub mismatches: Vec<String>,
    /// End-to-end metrics every workload reports (the `--trace 0` line).
    pub e2e: Vec<Metric>,
    /// Printed beside the end-to-end metrics, not part of the result line.
    pub extra: Vec<Metric>,
    /// Per-layer metrics of the traced run (the `--trace 1` line).
    pub layers: Vec<Metric>,
    /// The printed waterfall.
    pub waterfall: Vec<String>,
    /// Spans of the traced run as JSON lines.
    pub spans: String,
}

fn shards_of(workload: &str) -> usize {
    if workload == "sharded" {
        setup::SHARDS
    } else {
        0
    }
}

/// Set-ups timed before and after the measured window, in child
/// processes (`perfbench setup-probe`), besides the run's own; `setup_s`
/// is the median of all of them. Spreading them over the run keeps one
/// slow stretch of a shared host from moving the median, and child
/// processes keep the measured process's memory to exactly one set-up.
const SETUPS_BEFORE: usize = 2;
const SETUPS_AFTER: usize = 2;
const SETUPS: usize = SETUPS_BEFORE + 1 + SETUPS_AFTER;

/// The child set-ups before the run's own, then the run's own (kept).
fn setups(args: &Args) -> (Env, Vec<Phases>) {
    let mut phases: Vec<Phases> = (0..SETUPS_BEFORE).map(|_| setup_in_child(args)).collect();
    let env = setup_once(args);
    phases.push(env.phases);
    (env, phases)
}

fn setup_once(args: &Args) -> Env {
    let mut env = setup::boot(shards_of(&args.workload));
    let t = Instant::now();
    warm_up(args, &env);
    env.phases.warm_s = t.elapsed().as_secs_f64();
    env
}

const PROBE_PREFIX: &str = "setup-probe:";

/// `perfbench setup-probe`: one set-up, its phase times on stdout.
pub fn setup_probe(args: &Args) {
    let env = setup_once(args);
    let p = env.phases;
    env.server.shutdown();
    println!(
        "{PROBE_PREFIX} {} {} {} {} {}",
        p.generate_s, p.views_s, p.shard_s, p.boot_s, p.warm_s
    );
}

/// Runs one `setup-probe` child and waits for it (killing it after a
/// minute, which fails the run).
fn setup_in_child(args: &Args) -> Phases {
    let exe = std::env::current_exe().expect("own executable");
    let mut child = std::process::Command::new(exe)
        .args(["setup-probe", "--workload", &args.workload, "--seed", &args.seed.to_string()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("set-up child starts");
    let t0 = Instant::now();
    while child.try_wait().expect("set-up child status").is_none() {
        if t0.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("set-up child did not finish within 60s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("set-up child output");
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().find_map(|l| l.strip_prefix(PROBE_PREFIX));
    let v: Vec<f64> = line
        .map(|l| l.split_whitespace().filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_default();
    assert!(out.status.success() && v.len() == 5, "set-up child failed: {text}");
    Phases { generate_s: v[0], views_s: v[1], shard_s: v[2], boot_s: v[3], warm_s: v[4] }
}

/// Warm-up before the first measured request: explore statements outside
/// the measured stream.
fn warm_up(args: &Args, env: &Env) {
    let mut conn = Conn::connect(env.server.addr()).expect("warm-up connects");
    for (i, stmt) in warm_statements(args.seed).iter().enumerate() {
        let id = 1 + i as u64;
        let reply = conn
            .call(&run_line(id, &stmt.text, Format::Cells(ROW_LIMIT), true), id)
            .expect("warm-up request");
        assert!(wire::scan(&reply).ok, "set-up request failed: {}", &reply[..reply.len().min(300)]);
    }
}

fn warm_statements(seed: u64) -> Vec<Stmt> {
    Explore::new(Rng::new(seed).fork(99), 0, 1, HashSet::new()).take(WARM_STATEMENTS).collect()
}

/// The explore stream of one run, one generator per session. The
/// sessions never share a statement, nor send a warm-up one.
fn explore_sessions(seed: u64) -> Vec<Explore> {
    let warm: HashSet<u64> = warm_statements(seed).iter().map(|s| text_hash(&s.text)).collect();
    (0..SESSIONS)
        .map(|s| Explore::new(Rng::new(seed).fork(1 + s as u64), s, SESSIONS, warm.clone()))
        .collect()
}

/// Whether request `index` is one the oracle samples.
fn sampled(seed: u64, index: usize) -> bool {
    let mut r = Rng::new(seed ^ 0x0AC1E).fork(index as u64);
    r.below(48) == 0
}

pub fn run(args: &Args) -> Outcome {
    let (env, mut phases) = setups(args);
    let before = env.server.cache_stats();
    let mut outcome = Outcome::default();
    let seed = args.seed;
    let out = load::with_watchdog(Duration::from_secs(args.seconds + 60), "explore loop", || {
        closed_loop(env.server.addr(), explore_sessions(seed), ROW_LIMIT, args.seconds as f64, {
            move |i| sampled(seed, i)
        })
    });
    let after = env.server.cache_stats();
    let lookups = (after.hits + after.misses).saturating_sub(before.hits + before.misses);
    let hit_ratio = (after.hits - before.hits) as f64 / lookups.max(1) as f64;

    // Correctness.
    check_outputs(args, &env, &out, &mut outcome);

    // End-to-end metrics.
    let mut by_time: Vec<&Sample> = out.samples.iter().filter(|s| s.reply.ok).collect();
    by_time.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let ok_reads: Vec<f64> = by_time.iter().map(|s| s.latency_us / 1e3).collect();
    let errors = out.samples.len() - ok_reads.len();
    outcome.attempted = out.samples.len() + out.io_errors;
    outcome.failed = errors + outcome.mismatches.len() + out.io_errors;
    // p99: the median over up to five consecutive stretches of the run,
    // each with at least 1000 replies.
    let p99 = stats::chunked_percentile(&ok_reads, 0.99, P99_CHUNKS);
    if p99.is_none() {
        outcome.mismatches.push(format!(
            "only {} timed reads: too few for a p99 with {} beyond",
            ok_reads.len(),
            stats::MIN_BEYOND
        ));
    }
    let n = format!("n={}", ok_reads.len());
    // Throughput and median latency are medians over one-second windows,
    // so a few slow seconds of a shared host do not move them. A window
    // in which nothing completed counts as 0 req/s; it has no latency.
    let (windows, window_s) = windows(&out.samples, out.elapsed_s);
    let rates: Vec<f64> = windows.iter().map(|w| w.len() as f64 / window_s).collect();
    let medians: Vec<f64> = windows.iter().filter(|w| !w.is_empty()).map(|w| median(w)).collect();
    outcome.e2e = vec![
        metric("setup_s", 0.0, "s").with_note(format!("median of {SETUPS} set-ups")),
        metric("peak_rss_mb", setup::peak_rss_mb(), "MiB"),
        metric("throughput_rps", median(&rates), "req/s").with_note(format!(
            "median of {} {window_s:.3}s windows; {} runs in {:.2}s",
            windows.len(),
            ok_reads.len(),
            out.elapsed_s
        )),
        metric("latency_p50_ms", median(&medians), "ms")
            .with_note(format!("median of {} per-window medians; {n}", medians.len())),
        metric("latency_p99_ms", p99.map_or(f64::NAN, |p| p.0), "ms")
            .with_note(format!("median of {} stretch p99s; {n}", p99.map_or(0, |p| p.1))),
    ];
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.extra.push(metric("failed_ratio", failed_ratio, "fraction"));

    if args.trace {
        traced(args, &env, &out, hit_ratio, &mut outcome);
    }
    env.server.shutdown();
    phases.extend((0..SETUPS_AFTER).map(|_| setup_in_child(args)));
    let med = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    outcome.e2e[0].value = med(Phases::total);
    if args.trace {
        outcome.layers.extend([
            metric("ssb.generate_s", med(|p| p.generate_s), "s"),
            metric("ssb.views_s", med(|p| p.views_s), "s"),
            metric("ssb.shard_s", med(|p| p.shard_s), "s"),
        ]);
    }
    outcome
}

/// Latencies (ms) of the successful requests in each of the about
/// one-second windows the loop's run time divides into (by reply time),
/// with the window length in seconds. Windows in which nothing completed
/// are kept, empty.
fn windows(samples: &[Sample], elapsed_s: f64) -> (Vec<Vec<f64>>, f64) {
    let count = (elapsed_s.floor() as usize).max(1);
    let len = elapsed_s / count as f64;
    let mut out = vec![Vec::new(); count];
    for s in samples.iter().filter(|s| s.reply.ok) {
        if let Some(w) = out.get_mut((s.at_s / len) as usize) {
            w.push(s.latency_us / 1e3);
        }
    }
    (out, len)
}

/// The oracle: sampled replies against cold in-process runs on the same
/// catalog (the unsharded reference under `sharded`), and sharded CSVs
/// against the unsharded run.
fn check_outputs(args: &Args, env: &Env, out: &LoopOut, outcome: &mut Outcome) {
    let runner = AssessRunner::new(Engine::new(env.dataset.catalog.clone()));
    let mut checked = 0;
    for (index, (text, reply)) in out.kept.iter().take(ORACLE_CHECKS) {
        if let Err(e) = oracle::check_run(&runner, text, reply, ROW_LIMIT) {
            outcome.mismatches.push(format!("request {index}: {e}"));
        }
        checked += 1;
    }
    println!("oracle: {checked} served replies compared with cold in-process runs");
    if args.workload == "sharded" {
        let mut conn = Conn::connect(env.server.addr()).expect("oracle connects");
        let mut checked = 0;
        for (i, (index, (text, _))) in out.kept.iter().take(CSV_CHECKS).enumerate() {
            let id = 1 + i as u64;
            let reply = conn.call(&run_line(id, text, Format::Csv, false), id).unwrap_or_default();
            let expected = oracle::cold(&runner, text).map(|c| c.to_csv()).unwrap_or_default();
            if let Err(e) = oracle::check_csv(&reply, &expected) {
                outcome.mismatches.push(format!("request {index}: {e}"));
            }
            checked += 1;
        }
        println!("oracle: {checked} sharded CSVs compared byte-for-byte with the unsharded run");
    }
}

/// Untraced round-trip medians (µs) and counts per request class.
fn class_rtts(out: &LoopOut) -> BTreeMap<(Op, bool), (f64, usize)> {
    let mut by: BTreeMap<(Op, bool), Vec<f64>> = BTreeMap::new();
    for s in out.samples.iter().filter(|s| s.reply.ok) {
        by.entry((s.op, s.reply.cached)).or_default().push(s.latency_us);
    }
    by.into_iter().map(|(k, v)| (k, (median(&v), v.len()))).collect()
}

fn class_name((op, cached): (Op, bool)) -> String {
    match op {
        Op::Run(kind) => format!("{}/{}", kind.name(), if cached { "cached" } else { "uncached" }),
        Op::Append => "append".to_string(),
    }
}

/// The traced run: replays the measured reads in-process with spans, then
/// the append path (in-process and served); prints the per-class
/// waterfall and fills the per-layer metrics.
fn traced(args: &Args, env: &Env, out: &LoopOut, hit_ratio: f64, outcome: &mut Outcome) {
    let budget = Duration::from_secs_f64(args.seconds as f64 * REPLAY_SHARE);
    let shard_engines = env.shard_catalogs.iter().map(|c| Engine::new(c.clone())).collect();
    let cache_capacity = setup::server_config().cache_capacity;
    let mut rp = Replay::new(env.engine.clone(), shard_engines, cache_capacity, ROW_LIMIT);
    // Set-up, replayed without spans.
    let mut off = Tracer::new(false);
    rp.probe = false;
    for stmt in warm_statements(args.seed) {
        let _ = rp.run(&mut off, 0, Op::Run(stmt.kind), &stmt.text);
    }
    rp.replayed.clear();
    rp.probe = true;

    // The measured reads in the order their replies came, up to the time
    // budget. A session's replies come in the order it sent them, so its
    // statements are generated again from the seed as they are needed.
    let mut order: Vec<&Sample> = out.samples.iter().filter(|s| s.reply.ok).collect();
    order.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let mut sessions = explore_sessions(args.seed);
    let mut sent = [0usize; SESSIONS];
    let mut tracer = Tracer::new(true);
    let t0 = Instant::now();
    let mut reads = Vec::new();
    let mut requests = 0;
    for sample in &order {
        if t0.elapsed() > budget {
            break;
        }
        let (session, position) = (sample.index % SESSIONS, sample.index / SESSIONS);
        let skip = position.checked_sub(sent[session]).expect("a session replies in order");
        let stmt = sessions[session].nth(skip).expect("explore streams are unbounded");
        sent[session] = position + 1;
        let op = Op::Run(stmt.kind);
        if let Err(e) = rp.run(&mut tracer, requests as u32, op, &stmt.text) {
            outcome.mismatches.push(format!("replay of request {}: {e}", sample.index));
        }
        if reads.len() < TRACE_OVERHEAD_READS {
            reads.push((op, stmt.text));
        }
        requests += 1;
    }

    // The append path: seeded batches replayed in-process on a fresh
    // catalog, then sent to the server, last because they grow its catalog.
    let mut rng = Rng::new(args.seed).fork(200);
    let domains = setup::domains(&env.dataset);
    let batches: Vec<String> =
        (0..APPENDS).map(|_| stream::append_batch(&mut rng, domains, APPEND_ROWS)).collect();
    let append_rp = match replay_appends(args, &batches, &mut tracer, requests) {
        Ok(append_rp) => append_rp,
        Err(e) => {
            outcome.mismatches.push(format!("append replay: {e}"));
            return;
        }
    };
    let appended: Vec<&Replayed> = append_rp.replayed.iter().collect();
    let selfs = replay::self_times(&tracer.spans, requests + appended.len());
    outcome.spans = tracer.to_jsonl();

    // Trace overhead: the same reads with and without spans, alternating
    // which goes first, each side with its own cache.
    let overhead = trace_overhead(&env.engine, &reads);

    let served = served_appends(env, &batches).unwrap_or_else(|e| {
        outcome.mismatches.push(format!("served appends: {e}"));
        Served::default()
    });

    let replayed: Vec<&Replayed> = rp.replayed.iter().chain(appended.iter().copied()).collect();
    let (waterfall, unattributed_us) = waterfall(&replayed, &selfs, &class_rtts(out));
    outcome.waterfall = vec![format!(
        "waterfall ({} replayed of {} measured reads, then {} appends on a fresh catalog; rows \
         in µs, scaled so they sum to the class's median replayed time; unattributed = \
         untraced median - that sum)",
        rp.replayed.len(),
        order.len(),
        appended.len()
    )];
    outcome.waterfall.extend(waterfall);

    // Per-layer metrics: means per replayed read (per replayed append for
    // the append path) of the layer's self time.
    let reads_idx: Vec<usize> = rp.replayed.iter().map(|r| r.req as usize).collect();
    let row = |name: &str| {
        let k = ROWS.iter().position(|r| *r == name).expect("known row");
        stats::mean(&reads_idx.iter().map(|&i| selfs[i][k]).collect::<Vec<_>>())
    };
    // `core.exec_us` is all of `execute_plan`: its self time plus stages.
    let exec_rows: Vec<usize> = (0..ROWS.len())
        .filter(|&k| ROWS[k] == "core.exec" || ROWS[k].starts_with("core.stage."))
        .collect();
    let exec_incl = stats::mean(
        &reads_idx
            .iter()
            .map(|&i| exec_rows.iter().map(|&k| selfs[i][k]).sum())
            .collect::<Vec<_>>(),
    );
    let (p, a) = (&rp.probes, &append_rp.probes);
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let replies = &out.samples;
    let refused =
        replies.iter().filter(|s| s.reply.code.as_deref().is_some_and(wire::is_refusal)).count();
    let shed = replies.iter().filter(|s| s.reply.shed).count();
    let full = served
        .frames
        .iter()
        .filter(|f| f.get("full").and_then(Value::as_bool) == Some(true))
        .count();
    let changed: Vec<f64> = served
        .frames
        .iter()
        .map(|f| {
            let len = |k| f.get(k).and_then(Value::as_array).map_or(0, Vec::len);
            (len("changed") + len("removed")) as f64
        })
        .collect();
    let fact_tables: Vec<_> = if env.shard_catalogs.is_empty() {
        vec![env.dataset.catalog.table("lineorder").expect("fact table")]
    } else {
        env.shard_catalogs.iter().map(|c| c.table("lineorder").expect("fact table")).collect()
    };
    let fact_bytes: usize = fact_tables.iter().map(|t| t.byte_size()).sum();
    let fact_rows: usize = fact_tables.iter().map(|t| t.n_rows()).sum();
    outcome.layers = vec![
        metric("serve.protocol.decode_us", row("serve.protocol.decode"), "us"),
        metric("serve.encode_us", row("serve.encode"), "us"),
        metric("serve.response_bytes", stats::mean(&p.response_bytes), "B"),
        metric("serve.cache.lookup_us", stats::mean(&p.lookup_us), "us"),
        metric("serve.cache.hit_ratio", hit_ratio, "ratio"),
        metric(
            "serve.cache.patch_ratio",
            ratio(served.patched, served.patched + served.evicted),
            "ratio",
        ),
        metric(
            "serve.admission.refused_ratio",
            ratio(refused as f64, replies.len() as f64),
            "ratio",
        ),
        metric("serve.admission.shed_ratio", ratio(shed as f64, replies.len() as f64), "ratio"),
        metric("serve.unattributed_us", unattributed_us, "us"),
        metric("serve.subscribe.diff_us", stats::mean(&a.diff_us), "us"),
        metric("serve.subscribe.changed_cells", stats::mean(&changed), "cells"),
        metric(
            "serve.subscribe.full_frame_ratio",
            ratio(full as f64, served.frames.len() as f64),
            "ratio",
        ),
        metric("sql.parse_us", row("sql.parse"), "us"),
        metric("core.check_us", row("core.check"), "us"),
        metric("core.resolve_us", row("core.resolve"), "us"),
        metric("core.plan_us", row("core.plan"), "us"),
        metric("core.exec_us", exec_incl, "us"),
        metric("core.stage.get_c_us", row("core.stage.get_c"), "us"),
        metric("core.stage.get_b_us", row("core.stage.get_b"), "us"),
        metric("core.stage.get_cb_us", row("core.stage.get_cb"), "us"),
        metric("core.stage.transform_us", row("core.stage.transform"), "us"),
        metric("core.stage.join_us", row("core.stage.join"), "us"),
        metric("core.stage.compare_us", row("core.stage.compare"), "us"),
        metric("core.stage.label_us", row("core.stage.label"), "us"),
        metric("engine.get_us", stats::mean(&p.get_us), "us"),
        metric(
            "engine.rows_scanned_per_cell",
            ratio(p.rows_scanned as f64, p.cells as f64),
            "rows/cell",
        ),
        metric("engine.view_hit_ratio", ratio(p.view_hits as f64, p.get_us.len() as f64), "ratio"),
        metric("engine.dop", stats::mean(&p.dop), "threads"),
        metric("engine.morsels_per_get", stats::mean(&p.morsels), "morsels"),
        metric("engine.append_us", stats::mean(&a.append_us), "us"),
        metric(
            "engine.views_merged_ratio",
            ratio(a.views_merged as f64, (a.views_merged + a.views_rebuilt) as f64),
            "ratio",
        ),
        metric("shard.partial_max_us", stats::mean(&p.partial_max_us), "us"),
        metric("shard.partial_mean_us", stats::mean(&p.partial_mean_us), "us"),
        metric("shard.gather_us", stats::mean(&p.gather_us), "us"),
        metric("shard.rows_skew", stats::mean(&p.rows_skew), "ratio"),
        metric("storage.fact_bytes_per_row", ratio(fact_bytes as f64, fact_rows as f64), "B/row"),
        metric("bench.trace_overhead_pct", overhead, "%"),
    ];
    let replay_total =
        stats::mean(&reads_idx.iter().map(|&i| selfs[i].iter().sum::<f64>()).collect::<Vec<_>>());
    outcome.waterfall.push(format!(
        "  core.exec share of replayed read time: {:.1}% ({:.1} of {:.1} µs per read)",
        100.0 * ratio(exec_incl, replay_total),
        exec_incl,
        replay_total
    ));
    outcome.waterfall.push(
        "  not measured: bench.generator_lag_p99_ms (no workload has an open-loop sender)"
            .to_string(),
    );
}

/// The append path replayed in-process: a fresh deployment of the
/// workload's shape holding the two subscriptions, through which each
/// batch goes by `Engine::append`, the cache delta, and every
/// subscription's re-evaluation and diff. Request numbers continue from
/// `first_req`.
fn replay_appends(
    args: &Args,
    batches: &[String],
    tracer: &mut Tracer,
    first_req: usize,
) -> Result<Replay, String> {
    let mut phases = Phases::default();
    let dataset = setup::dataset(&mut phases);
    let (engine, _) = setup::engine(&dataset, shards_of(&args.workload), &mut phases);
    let cache_capacity = setup::server_config().cache_capacity;
    let mut rp = Replay::new(engine, Vec::new(), cache_capacity, ROW_LIMIT);
    for statement in [SUB_HIT, SUB_MISS] {
        rp.subscribe(statement)?;
    }
    for (k, batch) in batches.iter().enumerate() {
        rp.append(tracer, (first_req + k) as u32, batch)?;
    }
    Ok(rp)
}

/// What the served appends reported.
#[derive(Default)]
struct Served {
    /// Cache entries the appends patched forward and evicted, from the acks.
    patched: f64,
    evicted: f64,
    /// The diff frames pushed to the subscriptions.
    frames: Vec<Value>,
}

/// The append path as served, after the measured window: one connection
/// subscribes to [`SUB_HIT`] and [`SUB_MISS`] and sends `batches` as
/// `append`s against the cache the measured reads left. Each subscriber's
/// baseline, patched with its diff frames, must equal a cold uncached run
/// on the same server.
fn served_appends(env: &Env, batches: &[String]) -> Result<Served, String> {
    let mut conn = Conn::connect(env.server.addr()).map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    let mut id = 0;
    let mut call = |conn: &mut Conn, line: &dyn Fn(u64) -> String, events: &mut Vec<String>| {
        id += 1;
        let reply = conn.call_keeping_events(&line(id), id, events).map_err(|e| e.to_string())?;
        if wire::scan(&reply).ok {
            Ok(reply)
        } else {
            Err(reply)
        }
    };
    let mut subs = Vec::new();
    for statement in [SUB_HIT, SUB_MISS] {
        let reply = call(&mut conn, &|id| subscribe_line(id, statement), &mut events)?;
        subs.push(Patched::from_baseline(&reply)?);
    }
    let mut served = Served::default();
    for batch in batches {
        let ack = call(&mut conn, &|id| append_line(id, batch), &mut events)?;
        let ack: Value = serde_json::from_str(&ack).map_err(|e| e.to_string())?;
        let get = |k| ack.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        served.patched += get("cache_patched");
        served.evicted += get("cache_evicted");
    }
    let mut colds = Vec::new();
    for statement in [SUB_HIT, SUB_MISS] {
        let line = |id| run_line(id, statement, Format::Cells(1 << 30), false);
        colds.push(call(&mut conn, &line, &mut events)?);
    }
    for line in &events {
        let frame: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        for sub in &mut subs {
            sub.apply(&frame)?;
        }
        served.frames.push(frame);
    }
    for (sub, cold) in subs.iter().zip(&colds) {
        sub.check(cold)?;
    }
    println!(
        "oracle: {} subscriptions patched by {} served diff frames equal cold uncached runs",
        subs.len(),
        served.frames.len()
    );
    Ok(served)
}

/// The per-class waterfall lines, and the untraced-minus-replayed
/// remainder averaged over classes by their untraced request counts.
/// Classes with no untraced requests (the replayed appends) have no
/// remainder.
fn waterfall(
    replayed: &[&Replayed],
    selfs: &[[f64; ROWS.len()]],
    rtts: &BTreeMap<(Op, bool), (f64, usize)>,
) -> (Vec<String>, f64) {
    let mut by_class: BTreeMap<(Op, bool), Vec<[f64; ROWS.len()]>> = BTreeMap::new();
    for r in replayed {
        by_class.entry((r.op, r.cached)).or_default().push(selfs[r.req as usize]);
    }
    let mut lines = Vec::new();
    let (mut weighted, mut weight) = (0.0, 0.0);
    for (class, rows) in &by_class {
        let means: Vec<f64> = (0..ROWS.len())
            .map(|k| stats::mean(&rows.iter().map(|r| r[k]).collect::<Vec<_>>()))
            .collect();
        let totals: Vec<f64> = rows.iter().map(|r| r.iter().sum()).collect();
        let (mean_total, median_total) = (stats::mean(&totals), median(&totals));
        let scale = if mean_total > 0.0 { median_total / mean_total } else { 0.0 };
        let rtt = rtts.get(class).copied();
        let head = match rtt {
            Some((rtt, n)) => format!("untraced median {rtt:>10.1} µs (n={n})"),
            None => "in-process only, no untraced median".to_string(),
        };
        lines.push(format!(
            "  class {:<20} {head}, replayed {} requests",
            class_name(*class),
            rows.len()
        ));
        for (k, row) in ROWS.iter().enumerate() {
            if means[k] > 0.0 {
                lines.push(format!("    {:<24} {:>10.1}", row, means[k] * scale));
            }
        }
        if let Some((rtt, n)) = rtt {
            let rest = rtt - median_total;
            lines.push(format!("    {:<24} {:>10.1}", "unattributed", rest));
            weighted += rest * n as f64;
            weight += n as f64;
        }
    }
    (lines, if weight > 0.0 { weighted / weight } else { 0.0 })
}

/// Reads the trace-overhead comparison replays, at most.
const TRACE_OVERHEAD_READS: usize = 200;

/// Percent extra time of replaying `reads` with spans over without.
fn trace_overhead(engine: &Engine, reads: &[(Op, String)]) -> f64 {
    let cap = setup::server_config().cache_capacity;
    let mut plain = Replay::new(engine.clone(), Vec::new(), cap, ROW_LIMIT);
    let mut spanned = Replay::new(engine.clone(), Vec::new(), cap, ROW_LIMIT);
    plain.probe = false;
    spanned.probe = false;
    let (mut off, mut on) = (Tracer::new(false), Tracer::new(true));
    let (mut t_off, mut t_on) = (0.0, 0.0);
    for (i, (op, text)) in reads.iter().enumerate() {
        for side in [i % 2, 1 - i % 2] {
            let t = Instant::now();
            if side == 0 {
                let _ = plain.run(&mut off, i as u32, *op, text);
                t_off += t.elapsed().as_secs_f64();
            } else {
                let _ = spanned.run(&mut on, i as u32, *op, text);
                t_on += t.elapsed().as_secs_f64();
            }
        }
    }
    if t_off > 0.0 {
        100.0 * (t_on - t_off) / t_off
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Kind;
    use crate::wire::Reply;

    #[test]
    fn a_second_without_replies_is_an_empty_window() {
        let ok = Reply { ok: true, ..Reply::default() };
        let sample = |at_s| Sample {
            index: 0,
            op: Op::Run(Kind::Past),
            latency_us: 2000.0,
            at_s,
            reply: ok.clone(),
        };
        let samples = [sample(0.2), sample(0.7), sample(2.5)];
        let (windows, len) = windows(&samples, 3.0);
        assert_eq!(len, 1.0);
        assert_eq!(windows.iter().map(Vec::len).collect::<Vec<_>>(), [2, 0, 1]);
    }
}
