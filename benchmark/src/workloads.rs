//! The four workloads and the metrics they report.
//!
//! Every workload builds its deployment [`SETUPS`] times, subscribes its
//! clients and then runs one traffic mix ([`Mix`]): each round ticks every
//! client once and sends its queries, and every `update_every`-th round
//! first applies a churn batch (60% moves, 20% inserts, 20% deletes). So
//! every end-to-end metric is measured on every workload; what a workload
//! stresses is set by its mix. Counts are for `--seconds 8`, the setting in
//! `BENCHMARK.json`, and scale with it; sizes scale with `--scale`.
//!
//! * `pnn_uniform` — 4,000 Uniform objects, IC, default config, 1,000
//!   clients. 160 rounds of 250 queries on a warm leaf cache (40k `pnn`
//!   calls, then the same stream as `pnn_batch`); a 0.25% batch every
//!   fourth round, after which the new engine is warmed again.
//! * `churn_mixed` — 2,000 Uniform objects, dynamic config, 1,000 clients.
//!   100 rounds, each a 1% batch and then 100 queries on fresh engines
//!   (cold leaf cache). The end state is checked against a cold rebuild.
//! * `fleet_sharded` — 2,000 GaussianSkew objects (σ = 2000) on 2×2
//!   shards; 6,000 clients subscribe during set-up. 120 rounds of a tick
//!   and 50 routed queries; a 1% batch every fifth round.
//! * `dense_lines` — the 1,500-object Rrlines stand-in at its Table II
//!   geometry, IC, default config, 1,000 clients. 80 rounds of 250 warm
//!   queries; three single-move updates. Phase B indexing makes the build
//!   and each update cost seconds.

use crate::deploy::Deployment;
use crate::serve::{Fleet, Mix, Run, Tally};
use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use std::path::Path;
use uv_bench::churn::dynamic_config;
use uv_core::UvConfig;
use uv_data::{Dataset, DatasetKind, GeneratorConfig};
use uv_geom::Point;

pub const WORKLOADS: [&str; 4] = ["pnn_uniform", "churn_mixed", "fleet_sharded", "dense_lines"];

/// Generator seed of the Table II dense-line stand-in.
const DENSE_LINES_SEED: u64 = 42;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Points the traced run times with and without spans, alternately, for
/// `trace.overhead`.
const OVERHEAD_CALLS: usize = 2_000;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

struct Sizes<'a>(&'a Args);

impl Sizes<'_> {
    /// A dataset or fleet size at `--scale`.
    fn n(&self, x: usize) -> usize {
        ((x as f64 * self.0.scale).round() as usize).max(8)
    }

    /// An operation count at `--seconds` (`x` at 8 s).
    fn ops(&self, x: usize) -> usize {
        ((x as f64 * self.0.seconds / 8.0).round() as usize).max(1)
    }
}

/// One workload: its dataset and configuration, its clients and its mix.
struct Spec {
    dataset: Dataset,
    config: UvConfig,
    clients: usize,
    /// Subscribe the clients as part of every set-up (`setup_s`) rather
    /// than once after it.
    subscribe_in_setup: bool,
    rounds: usize,
    pool: usize,
    queries_per_round: usize,
    warm: bool,
    update_every: usize,
    batch_ops: usize,
    /// Seed of the update stream.
    ops_seed: u64,
}

fn spec(args: &Args) -> Result<Spec, String> {
    let size = Sizes(args);
    let ops_seed = args.seed ^ 0xA5A5_A5A5_A5A5_A5A5;
    let uniform = |n| Dataset::generate(GeneratorConfig::paper_uniform(n).with_seed(args.seed));
    Ok(match args.workload.as_str() {
        "pnn_uniform" => {
            let n = size.n(4_000);
            Spec {
                dataset: uniform(n),
                config: UvConfig::default(),
                clients: size.n(1_000),
                subscribe_in_setup: false,
                rounds: size.ops(160),
                pool: n,
                queries_per_round: 250,
                warm: true,
                update_every: 4,
                batch_ops: (n / 400).max(3),
                ops_seed,
            }
        }
        "churn_mixed" => {
            let n = size.n(2_000);
            let rounds = size.ops(100);
            Spec {
                dataset: uniform(n),
                config: dynamic_config(n),
                clients: size.n(1_000),
                subscribe_in_setup: false,
                rounds,
                pool: rounds * 100,
                queries_per_round: 100,
                warm: false,
                update_every: 1,
                batch_ops: (n / 100).max(3),
                ops_seed,
            }
        }
        "fleet_sharded" => {
            let n = size.n(2_000);
            let rounds = size.ops(120);
            Spec {
                dataset: Dataset::generate(
                    GeneratorConfig::paper_skewed(n, 2_000.0).with_seed(args.seed),
                ),
                config: dynamic_config(n).with_num_shards(2),
                clients: size.n(6_000),
                subscribe_in_setup: true,
                rounds,
                pool: rounds * 50,
                queries_per_round: 50,
                warm: false,
                update_every: 5,
                batch_ops: (n / 100).max(3),
                ops_seed,
            }
        }
        "dense_lines" => {
            // The geometry and the three single-move updates stay at the
            // Table II seed: the dense-line cost depends on where the lines
            // fall (0.8–4.9 s to build across seeds) and on which object
            // moves, and this is the case Phase B indexing dominates. The
            // seed drives the queries and the clients.
            let rounds = size.ops(80);
            Spec {
                dataset: Dataset::generate(GeneratorConfig {
                    kind: DatasetKind::Rrlines,
                    ..GeneratorConfig::paper_uniform(size.n(1_500)).with_seed(DENSE_LINES_SEED)
                }),
                config: UvConfig::default(),
                clients: size.n(1_000),
                subscribe_in_setup: false,
                rounds,
                pool: size.n(2_000),
                queries_per_round: 250,
                warm: true,
                update_every: (rounds / 3).max(1),
                batch_ops: 1,
                ops_seed: DENSE_LINES_SEED,
            }
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = spec(args)?;
    let mut run = Run::new(args.seed, spec.ops_seed, args.trace);
    let domain = spec.dataset.domain;
    let clients = run.points(spec.clients, domain);
    let at_setup = if spec.subscribe_in_setup {
        clients.clone()
    } else {
        Vec::new()
    };
    let (mut dep, mut fleet) = run
        .setup(&spec.dataset, spec.config, at_setup, SETUPS)
        .map_err(|e| format!("set-up failed: {e}"))?;
    if !spec.subscribe_in_setup {
        fleet = run.subscribe(&dep, clients);
    }
    let mix = Mix {
        rounds: spec.rounds,
        pool: run.points(spec.pool, domain),
        queries_per_round: spec.queries_per_round,
        warm: spec.warm,
        update_every: spec.update_every,
        batch_ops: spec.batch_ops,
    };
    run.serve(&mut dep, &mut fleet, &mix);
    let rebuild = args.workload == "churn_mixed";
    finish(&mut run, &dep, &fleet, &spec.dataset, rebuild);
    let metrics = if args.trace {
        let overhead = trace_overhead(&dep, &mut run);
        let path = Path::new(".bench_trace").join(format!("{}-{}.tsv", args.workload, args.seed));
        run.tracer
            .write_tsv(&path)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        per_layer(&run, overhead)
    } else {
        end_to_end(&run.tally)
    };
    Ok(Outcome {
        attempted: run.tally.attempted,
        failed: run.tally.failed,
        metrics,
    })
}

/// The end of every workload: the end-state snapshot, then the oracle
/// checks (clients against fresh answers, and either a cold rebuild or the
/// R-tree on fresh points).
fn finish(run: &mut Run, dep: &Deployment, fleet: &Fleet, ds: &Dataset, rebuild: bool) {
    run.snapshot(dep);
    let t = &mut run.tally;
    if let Deployment::Sharded(s) = dep {
        let loads = s.load_stats().queries;
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
        t.load_imbalance = ratio(max, mean);
        t.replication_factor = s.replication_factor();
        t.router_state_bytes = s.router().state_bytes();
    } else {
        t.load_imbalance = 1.0;
        t.replication_factor = 1.0;
    }
    run.verify_fleet(dep, fleet);
    let points = run.points(200, ds.domain);
    if rebuild {
        run.verify_rebuild(dep, &points[..25]);
    } else {
        run.verify_answers(dep, &points);
    }
}

/// Quantile of the per-call `pnn_batch` throughput reported as `pnn_qps`.
/// A batch waits for its slowest worker, so a host that takes one core away
/// for a moment slows whole batches; the upper tail is the throughput the
/// batched path reaches with both cores, which is what a change to it moves.
const QPS_QUANTILE: f64 = 0.9;

/// Consecutive `pnn` calls per window of the `pnn_p99_us` estimate.
const P99_WINDOW: usize = 1_000;

/// Consecutive ticks per window of the `tick_p90_ms` estimate.
const TICK_WINDOW: usize = 20;

/// The median over consecutive windows of `window` samples of each
/// window's `q`-quantile (the plain quantile when there are fewer samples
/// than one window). A tail percentile over the whole run moves with how
/// much of the run a busy host slowed; the median window does not.
fn windowed_quantile(samples: &[f64], window: usize, q: f64) -> f64 {
    if samples.len() < window {
        return quantile(samples, q);
    }
    let per_window: Vec<f64> = samples
        .chunks_exact(window)
        .map(|w| quantile(w, q))
        .collect();
    median(&per_window)
}

fn end_to_end(t: &Tally) -> Vec<Metric> {
    vec![
        ("setup_s", median(&t.setup_s), "s"),
        ("pnn_p50_us", quantile(&t.pnn_us, 0.5), "us"),
        (
            "pnn_p99_us",
            windowed_quantile(&t.pnn_us, P99_WINDOW, 0.99),
            "us",
        ),
        ("pnn_qps", quantile(&t.qps, QPS_QUANTILE), "1/s"),
        ("apply_p50_ms", quantile(&t.apply_ms, 0.5), "ms"),
        ("apply_p90_ms", quantile(&t.apply_ms, 0.9), "ms"),
        ("tick_p50_ms", quantile(&t.tick_ms, 0.5), "ms"),
        (
            "tick_p90_ms",
            windowed_quantile(&t.tick_ms, TICK_WINDOW, 0.9),
            "ms",
        ),
        ("snapshot_bytes", t.snapshot_bytes as f64, "bytes"),
        (
            "ok_ops_frac",
            1.0 - ratio(t.failed as f64, t.attempted as f64),
            "frac",
        ),
    ]
}

/// Times `pnn` calls alternately with and without spans on the workload's
/// end state: the relative difference of the two medians.
fn trace_overhead(dep: &Deployment, run: &mut Run) -> f64 {
    let points: Vec<Point> = run.points(OVERHEAD_CALLS, dep.domain());
    let reader = dep.reader();
    for q in &points {
        reader.pnn(*q);
    }
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for (i, q) in points.iter().enumerate() {
        let sample = |t: &mut Tracer, into: &mut Vec<f64>| {
            into.push(t.time("pnn", None, || reader.pnn(*q)).1.as_secs_f64());
        };
        if i % 2 == 0 {
            sample(&mut on, &mut traced);
            sample(&mut off, &mut untraced);
        } else {
            sample(&mut off, &mut untraced);
            sample(&mut on, &mut traced);
        }
    }
    median(&traced) / median(&untraced) - 1.0
}

fn per_layer(run: &Run, overhead: f64) -> Vec<Metric> {
    let t = &run.tally;
    let queries = t.pnn_us.len() as f64;
    let updates = t.apply_ms.len() as f64;
    let ticks = t.tick_ms.len() as f64;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let sequential_qps = ratio(queries, t.pnn_us.iter().sum::<f64>() / 1e6);
    let batch_qps = ratio(t.batch_queries as f64, t.batch_s);
    vec![
        ("builder.build_s", median(&t.build_s), "s"),
        ("builder.index_s", median(&t.index_s), "s"),
        ("builder.leaves", t.leaves as f64, "count"),
        ("builder.leaf_pages", t.leaf_pages as f64, "count"),
        ("builder.prune_cpu_s", median(&t.prune_cpu_s), "s"),
        ("builder.refs_per_object", t.refs_per_object, "count"),
        ("builder.c_ratio", t.c_ratio, "ratio"),
        ("store.bulk_load_s", median(&t.bulk_load_s), "s"),
        (
            "index.traversal_us",
            ratio(t.traversal_s * 1e6, queries),
            "us",
        ),
        (
            "engine.retrieval_us",
            ratio(t.retrieval_s * 1e6, queries),
            "us",
        ),
        (
            "data.probability_us",
            ratio(t.probability_s * 1e6, queries),
            "us",
        ),
        (
            "index.candidates_per_query",
            ratio(t.candidates as f64, queries),
            "count",
        ),
        (
            "index.answer_ratio",
            ratio(t.answers as f64, t.candidates as f64),
            "ratio",
        ),
        (
            "engine.cache_hit_ratio",
            ratio(t.zero_read_queries as f64, queries),
            "ratio",
        ),
        (
            "store.leaf_reads_per_query",
            ratio(t.leaf_reads as f64, queries),
            "count",
        ),
        (
            "store.object_reads_per_query",
            ratio(t.object_reads as f64, queries),
            "count",
        ),
        (
            "engine.fanout_efficiency",
            ratio(batch_qps, workers * sequential_qps),
            "ratio",
        ),
        (
            "rtree.pnn_us",
            ratio(t.rtree_s * 1e6, t.rtree_queries as f64),
            "us",
        ),
        (
            "rtree.leaf_reads_per_query",
            ratio(t.rtree_leaf_reads as f64, t.rtree_queries as f64),
            "count",
        ),
        (
            "update.rederived_per_batch",
            ratio(t.rederived as f64, updates),
            "count",
        ),
        (
            "update.knn_radius_per_batch",
            ratio(t.knn_radius as f64, updates),
            "count",
        ),
        (
            "update.useful_rederive_ratio",
            ratio(t.repartitioned as f64, t.rederived as f64),
            "ratio",
        ),
        (
            "update.leaves_refined_per_batch",
            ratio(t.leaves_refined as f64, updates),
            "count",
        ),
        (
            "update.refine_fraction",
            ratio(t.leaves_refined as f64, t.leaves_total as f64),
            "ratio",
        ),
        (
            "update.splits_merges_per_batch",
            ratio(t.splits_merges as f64, updates),
            "count",
        ),
        ("update.domain_growths", t.domain_growths as f64, "count"),
        (
            "store.pages_written_per_op",
            ratio(t.pages_written as f64, t.update_ops as f64),
            "count",
        ),
        ("shard.apply_ms", ratio(t.apply_call_s * 1e3, updates), "ms"),
        (
            "router.rederived_per_batch",
            ratio(t.router_rederived as f64, updates),
            "count",
        ),
        (
            "shard.shards_touched_per_batch",
            ratio(t.shards_touched as f64, updates),
            "count",
        ),
        (
            "shard.replica_churn_per_batch",
            ratio(t.replica_churn as f64, updates),
            "count",
        ),
        ("shard.replication_factor", t.replication_factor, "ratio"),
        ("shard.query_load_imbalance", t.load_imbalance, "ratio"),
        ("router.state_bytes", t.router_state_bytes as f64, "bytes"),
        (
            "subscribe.refresh_ms",
            ratio(t.refresh_s * 1e3, t.refreshes as f64),
            "ms",
        ),
        (
            "subscribe.invalidated_per_update",
            ratio(t.invalidated as f64, t.refreshes as f64),
            "count",
        ),
        (
            "subscribe.hit_rate",
            ratio(t.hits as f64, t.reports as f64),
            "ratio",
        ),
        (
            "subscribe.derivations_per_tick",
            ratio(t.tick_derivations as f64, ticks),
            "count",
        ),
        (
            "subscribe.clearance_reuse_ratio",
            ratio(t.clearance_reuses as f64, t.tick_derivations as f64),
            "ratio",
        ),
        (
            "subscribe.migrations_per_tick",
            ratio(t.migrations as f64, ticks),
            "count",
        ),
        (
            "subscribe.deltas_per_tick",
            ratio(t.deltas as f64, ticks),
            "count",
        ),
        (
            "store.leaf_reads_per_tick",
            ratio(t.tick_leaf_reads as f64, ticks),
            "count",
        ),
        ("snapshot.save_ms", t.snapshot_s * 1e3, "ms"),
        ("trace.coverage", run.tracer.coverage(), "ratio"),
        ("trace.overhead", overhead, "ratio"),
    ]
}
