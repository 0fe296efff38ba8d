//! The closed serving loop every workload runs.
//!
//! One client thread issues each call and waits for its reply; the only
//! other threads are the system's own worker pools. A workload is a set-up
//! followed by rounds of one [`Mix`]. An update round first applies one
//! batch and refreshes the subscriptions. Every round then moves every
//! subscribed client once (one `tick`) and sends its share of the query
//! stream: sequential `pnn` calls, then the same points as `pnn_batch`
//! calls of [`BATCH`] queries. Each round checks its answers outside the
//! timed calls, against the R-tree baseline and the sequential answers.
//!
//! Interleaving every kind of call through the whole run, rather than one
//! phase after another, lets each metric sample the whole run: on a shared
//! machine the speed of the host drifts over seconds.

use crate::deploy::{Applied, Deployment, Reader};
use crate::stats::Rng;
use crate::trace::{Tracer, VERIFY};
use std::collections::{HashMap, HashSet};
use std::mem;
use std::time::Instant;
use uv_core::{SubscriptionEngine, SubscriptionTable, UpdateBatch, UvConfig, UvError};
use uv_data::{Dataset, PnnAnswer, UncertainObject};
use uv_geom::{Point, Rect};

/// Tolerance of the R-tree oracle on qualification probabilities.
const PROBABILITY_TOLERANCE: f64 = 1e-9;

/// Queries per `pnn_batch` call; each call is one `pnn_qps` sample.
pub const BATCH: usize = 100;

/// Everything one run measured and counted.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    // Set-up, one entry per set-up.
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub index_s: Vec<f64>,
    pub prune_cpu_s: Vec<f64>,
    pub bulk_load_s: Vec<f64>,
    // Shape of the last build.
    pub leaves: usize,
    pub leaf_pages: usize,
    pub refs_per_object: f64,
    pub c_ratio: f64,
    // Queries.
    pub pnn_us: Vec<f64>,
    pub qps: Vec<f64>,
    pub traversal_s: f64,
    pub retrieval_s: f64,
    pub probability_s: f64,
    pub candidates: u64,
    pub answers: u64,
    pub leaf_reads: u64,
    pub object_reads: u64,
    pub zero_read_queries: u64,
    pub batch_queries: u64,
    pub batch_s: f64,
    pub rtree_queries: u64,
    pub rtree_s: f64,
    pub rtree_leaf_reads: u64,
    // Updates (one `update` = apply plus the subscription refresh).
    pub apply_ms: Vec<f64>,
    pub apply_call_s: f64,
    pub update_ops: u64,
    pub rederived: u64,
    pub knn_radius: u64,
    pub repartitioned: u64,
    pub leaves_refined: u64,
    pub leaves_total: u64,
    pub splits_merges: u64,
    pub domain_growths: u64,
    pub pages_written: u64,
    pub router_rederived: u64,
    pub shards_touched: u64,
    pub replica_churn: u64,
    pub refreshes: u64,
    pub refresh_s: f64,
    pub invalidated: u64,
    // Subscription ticks.
    pub tick_ms: Vec<f64>,
    pub reports: u64,
    pub hits: u64,
    pub tick_derivations: u64,
    pub clearance_reuses: u64,
    pub migrations: u64,
    pub deltas: u64,
    pub tick_leaf_reads: u64,
    // End state.
    pub snapshot_bytes: u64,
    pub snapshot_s: f64,
    pub replication_factor: f64,
    pub load_imbalance: f64,
    pub router_state_bytes: u64,
}

/// Subscribed clients: the table the subscription engines resume from and
/// each client's current position (client id = index).
pub struct Fleet {
    pub table: SubscriptionTable,
    pub positions: Vec<Point>,
}

/// The traffic mix of a workload: how many rounds, and what each sends.
pub struct Mix {
    pub rounds: usize,
    /// Query points, sent in order and cycled, `queries_per_round` a round.
    pub pool: Vec<Point>,
    pub queries_per_round: usize,
    /// `true`: one query engine per update-free stretch, warmed by a pass
    /// over the pool. `false`: every round's sequential and batched calls
    /// each start on a fresh engine with an empty leaf cache.
    pub warm: bool,
    /// Apply one batch at the start of every this many rounds.
    pub update_every: usize,
    pub batch_ops: usize,
}

pub struct Run {
    pub tracer: Tracer,
    pub tally: Tally,
    /// Query points, client positions and walks.
    rng: Rng,
    /// Update batches.
    ops: Rng,
    next_id: u32,
}

impl Run {
    pub fn new(seed: u64, ops_seed: u64, trace: bool) -> Self {
        Self {
            tracer: Tracer::new(trace),
            tally: Tally::default(),
            rng: Rng::new(seed),
            ops: Rng::new(ops_seed),
            next_id: 0,
        }
    }

    /// Uniform points over `domain`.
    pub fn points(&mut self, n: usize, domain: Rect) -> Vec<Point> {
        (0..n)
            .map(|_| {
                Point::new(
                    self.rng.range(domain.min_x, domain.max_x),
                    self.rng.range(domain.min_y, domain.max_y),
                )
            })
            .collect()
    }

    /// Builds the deployment `setups` times (each time subscribing the
    /// `clients` given, if any) and keeps the last one. Each set-up is one
    /// `setup_s` sample.
    pub fn setup(
        &mut self,
        dataset: &Dataset,
        config: UvConfig,
        clients: Vec<Point>,
        setups: usize,
    ) -> Result<(Deployment, Fleet), UvError> {
        self.next_id = dataset.objects.iter().map(|o| o.id + 1).max().unwrap_or(0);
        let mut last = None;
        for _ in 0..setups {
            let objects = dataset.objects.clone();
            let op = self.tracer.open("setup");
            self.tally.attempted += 1;
            let (built, build_wall) = self.tracer.time("build", Some(&op), || {
                Deployment::build(objects, dataset.domain, config)
            });
            let dep = built.inspect_err(|_| self.tally.failed += 1)?;
            let mut fleet = Fleet {
                table: SubscriptionTable::new(),
                positions: clients.clone(),
            };
            if !clients.is_empty() {
                let (table, _) = self
                    .tracer
                    .time("subscribe", Some(&op), || subscribe_all(&dep, &clients));
                self.tally.attempted += clients.len() as u64;
                fleet.table = table.inspect_err(|_| self.tally.failed += 1)?;
            }
            self.tally.setup_s.push(self.tracer.close(op).as_secs_f64());
            self.record_build(&dep, build_wall.as_secs_f64());
            last = Some((dep, fleet));
        }
        Ok(last.expect("at least one set-up"))
    }

    fn record_build(&mut self, dep: &Deployment, build_wall: f64) {
        let systems = dep.systems();
        let stats: Vec<_> = systems.iter().map(|s| s.construction_stats()).collect();
        let n = stats.len() as f64;
        let t = &mut self.tally;
        // Shards build side by side: the slowest one is the wall time, and
        // the per-object derivation times add up like CPU time.
        let build_s = stats
            .iter()
            .map(|s| s.total.as_secs_f64())
            .fold(0.0, f64::max);
        t.build_s.push(build_s);
        t.index_s.push(
            stats
                .iter()
                .map(|s| s.indexing_time.as_secs_f64())
                .fold(0.0, f64::max),
        );
        t.prune_cpu_s.push(
            stats
                .iter()
                .map(|s| (s.seed_time + s.pruning_time + s.refinement_time).as_secs_f64())
                .sum(),
        );
        t.bulk_load_s.push(build_wall - build_s);
        t.leaves = stats.iter().map(|s| s.leaf_nodes).sum();
        t.leaf_pages = stats.iter().map(|s| s.leaf_pages).sum();
        t.refs_per_object = stats.iter().map(|s| s.avg_reference_objects).sum::<f64>() / n;
        t.c_ratio = stats.iter().map(|s| s.avg_c_ratio).sum::<f64>() / n;
    }

    /// Subscribes `clients` to the deployment (outside the set-up).
    pub fn subscribe(&mut self, dep: &Deployment, clients: Vec<Point>) -> Fleet {
        let (table, _) = self
            .tracer
            .time("subscribe", None, || subscribe_all(dep, &clients));
        self.tally.attempted += clients.len() as u64;
        let table = table.unwrap_or_else(|_| {
            self.tally.failed += clients.len() as u64;
            SubscriptionTable::new()
        });
        Fleet {
            table,
            positions: clients,
        }
    }

    /// Runs `mix` against `dep` and the subscribed `fleet`.
    pub fn serve(&mut self, dep: &mut Deployment, fleet: &mut Fleet, mix: &Mix) {
        let due = |r: usize| (r + 1).is_multiple_of(mix.update_every);
        let mut cursor = 0;
        let mut r = 0;
        while r < mix.rounds {
            let update = due(r).then(|| self.apply(dep, mix.batch_ops));
            let end = (r + 1..mix.rounds).find(|&x| due(x)).unwrap_or(mix.rounds);
            let dep = &*dep;
            let mut subs = dep.subscriptions(mem::take(&mut fleet.table));
            if let Some(update) = update {
                self.finish_update(dep, &mut subs, update);
            }
            let engine = dep.reader();
            if mix.warm {
                self.tracer.time("warmup", None, || {
                    for q in &mix.pool {
                        engine.pnn(*q);
                    }
                });
            }
            // R-tree answers of this update-free stretch, by pool index.
            let mut refs = HashMap::new();
            for _ in r..end {
                self.tick(dep, &mut subs, &mut fleet.positions);
                let points: Vec<(usize, Point)> = (cursor..cursor + mix.queries_per_round)
                    .map(|k| (k % mix.pool.len(), mix.pool[k % mix.pool.len()]))
                    .collect();
                cursor += mix.queries_per_round;
                let fresh;
                let reader = if mix.warm {
                    &engine
                } else {
                    fresh = dep.reader();
                    &fresh
                };
                self.query_round(dep, reader, &points, &mut refs, !mix.warm);
            }
            fleet.table = subs.into_table();
            r = end;
        }
    }

    /// Generates and applies one update batch; the subscription refresh
    /// and the bookkeeping follow in [`Run::finish_update`] once the
    /// deployment can be borrowed again.
    fn apply(&mut self, dep: &mut Deployment, ops: usize) -> PendingUpdate {
        let batch = update_batch(
            &mut self.ops,
            dep.objects(),
            dep.domain(),
            ops,
            &mut self.next_id,
        );
        let ops = batch.len() as u64;
        let writes = dep.pages_written();
        let op = self.tracer.open("update");
        let (result, wall) = self.tracer.time("apply", Some(&op), || dep.apply(batch));
        self.tally.apply_call_s += wall.as_secs_f64();
        PendingUpdate {
            op,
            result,
            ops,
            writes,
        }
    }

    fn finish_update(
        &mut self,
        dep: &Deployment,
        subs: &mut SubscriptionEngine<'_>,
        update: PendingUpdate,
    ) {
        let t = &mut self.tally;
        t.attempted += 1;
        match update.result {
            Ok(applied) => {
                let before = subs.stats().invalidated;
                let (_, wall) = self.tracer.time("refresh", Some(&update.op), || {
                    Deployment::refresh(subs, &applied)
                });
                t.refreshes += 1;
                t.refresh_s += wall.as_secs_f64();
                t.invalidated += subs.stats().invalidated - before;
                t.update_ops += update.ops;
                t.pages_written += dep.pages_written() - update.writes;
                record_update(t, &applied);
            }
            Err(_) => t.failed += 1,
        }
        let wall = self.tracer.close(update.op);
        self.tally.apply_ms.push(wall.as_secs_f64() * 1e3);
    }

    /// Moves every client one step of the walk and sends one `tick`.
    fn tick(
        &mut self,
        dep: &Deployment,
        subs: &mut SubscriptionEngine<'_>,
        positions: &mut [Point],
    ) {
        let domain = dep.domain();
        let moves: Vec<(u64, Point)> = positions
            .iter_mut()
            .enumerate()
            .map(|(i, p)| {
                *p = walk(*p, &mut self.rng, domain);
                (i as u64, *p)
            })
            .collect();
        let before = subs.stats();
        let reads = dep.leaf_reads();
        let (_, wall) = self.tracer.time("tick", None, || subs.tick(&moves));
        let after = subs.stats();
        let t = &mut self.tally;
        t.attempted += 1;
        t.tick_ms.push(wall.as_secs_f64() * 1e3);
        t.reports += after.ticks - before.ticks;
        t.hits += after.hits - before.hits;
        t.tick_derivations += after.derivations - before.derivations;
        t.clearance_reuses += after.clearance_reuses - before.clearance_reuses;
        t.migrations += after.migrations - before.migrations;
        t.deltas += after.deltas_pushed - before.deltas_pushed;
        t.tick_leaf_reads += dep.leaf_reads() - reads;
    }

    /// Sends `points` as sequential `pnn` calls and then as `pnn_batch`
    /// calls (on a fresh engine when `fresh_batch`), and checks them.
    /// `refs` caches the R-tree answers by pool index.
    fn query_round(
        &mut self,
        dep: &Deployment,
        reader: &Reader<'_>,
        points: &[(usize, Point)],
        refs: &mut HashMap<usize, PnnAnswer>,
        fresh_batch: bool,
    ) {
        let mut answers = Vec::with_capacity(points.len());
        for (_, q) in points {
            let (a, wall) = self.tracer.time("pnn", None, || reader.pnn(*q));
            let t = &mut self.tally;
            t.attempted += 1;
            t.pnn_us.push(wall.as_secs_f64() * 1e6);
            let b = &a.breakdown;
            t.traversal_s += b.traversal.as_secs_f64();
            t.retrieval_s += b.retrieval.as_secs_f64();
            t.probability_s += b.probability.as_secs_f64();
            t.candidates += a.candidates_examined as u64;
            t.answers += a.probabilities.len() as u64;
            t.leaf_reads += b.index_io;
            t.object_reads += b.object_io;
            t.zero_read_queries += u64::from(b.index_io == 0);
            answers.push(a);
        }
        let fresh;
        let batch_reader = if fresh_batch {
            fresh = dep.reader();
            &fresh
        } else {
            reader
        };
        let coords: Vec<Point> = points.iter().map(|(_, q)| *q).collect();
        let mut batched = Vec::with_capacity(points.len().div_ceil(BATCH));
        for chunk in coords.chunks(BATCH) {
            let (batch, wall) = self
                .tracer
                .time("pnn_batch", None, || batch_reader.pnn_batch(chunk));
            let t = &mut self.tally;
            t.attempted += 1;
            t.qps.push(chunk.len() as f64 / wall.as_secs_f64());
            t.batch_queries += chunk.len() as u64;
            t.batch_s += wall.as_secs_f64();
            batched.push(batch);
        }

        let t = &mut self.tally;
        self.tracer.time(VERIFY, None, || {
            for (batch, sequential) in batched.iter().zip(answers.chunks(BATCH)) {
                let identical = batch.len() == sequential.len()
                    && batch.iter().zip(sequential).all(|(b, a)| {
                        b.probabilities == a.probabilities
                            && b.candidates_examined == a.candidates_examined
                    });
                t.failed += u64::from(!identical);
            }
            for (a, (i, q)) in answers.iter().zip(points) {
                let reference = refs.entry(*i).or_insert_with(|| {
                    let start = Instant::now();
                    let r = dep.rtree_pnn(*q);
                    t.rtree_s += start.elapsed().as_secs_f64();
                    t.rtree_queries += 1;
                    t.rtree_leaf_reads += r.breakdown.index_io;
                    r
                });
                t.failed += u64::from(!matches_reference(a, reference));
            }
        });
    }

    /// Checks every client's delta-maintained answer set against a fresh
    /// `pnn` at its final position.
    pub fn verify_fleet(&mut self, dep: &Deployment, fleet: &Fleet) {
        let t = &mut self.tally;
        self.tracer.time(VERIFY, None, || {
            for (i, p) in fleet.positions.iter().enumerate() {
                let mut got = fleet
                    .table
                    .client(i as u64)
                    .map(|c| c.answer_ids().to_vec())
                    .unwrap_or_default();
                got.sort_unstable();
                t.failed += u64::from(got != dep.pnn(*p).answer_ids());
            }
        });
    }

    /// Checks `pnn` against the R-tree oracle at `points`.
    pub fn verify_answers(&mut self, dep: &Deployment, points: &[Point]) {
        let t = &mut self.tally;
        self.tracer.time(VERIFY, None, || {
            t.attempted += points.len() as u64;
            for q in points {
                t.failed += u64::from(!matches_reference(&dep.pnn(*q), &dep.rtree_pnn(*q)));
            }
        });
    }

    /// Checks an incrementally maintained single system against a cold
    /// rebuild of its final object set: the same leaves and the same
    /// answers, bit for bit.
    pub fn verify_rebuild(&mut self, dep: &Deployment, queries: &[Point]) {
        let Deployment::Single(sys) = dep else {
            return;
        };
        let t = &mut self.tally;
        self.tracer.time(VERIFY, None, || {
            t.attempted += 1;
            let same = match uv_core::UvSystem::build(
                sys.objects().to_vec(),
                sys.domain(),
                sys.method(),
                *sys.config(),
            ) {
                Ok(cold) => {
                    sys.index().canonical_leaves() == cold.index().canonical_leaves()
                        && queries.iter().all(|q| {
                            let (a, b) = (sys.pnn(*q), cold.pnn(*q));
                            a.probabilities == b.probabilities
                                && a.candidates_examined == b.candidates_examined
                        })
                }
                Err(_) => false,
            };
            t.failed += u64::from(!same);
        });
    }

    /// Saves the end state; its size is `snapshot_bytes`.
    pub fn snapshot(&mut self, dep: &Deployment) {
        let (result, wall) = self
            .tracer
            .time("save_snapshot", None, || dep.save_snapshot());
        let t = &mut self.tally;
        t.attempted += 1;
        t.snapshot_s = wall.as_secs_f64();
        match result {
            Ok(bytes) => t.snapshot_bytes = bytes,
            Err(_) => t.failed += 1,
        }
    }
}

struct PendingUpdate {
    op: crate::trace::Open,
    result: Result<Applied, UvError>,
    ops: u64,
    writes: u64,
}

fn subscribe_all(dep: &Deployment, clients: &[Point]) -> Result<SubscriptionTable, UvError> {
    let mut subs = dep.subscriptions(SubscriptionTable::new());
    for (i, p) in clients.iter().enumerate() {
        subs.subscribe(i as u64, *p)?;
    }
    Ok(subs.into_table())
}

fn record_update(t: &mut Tally, applied: &Applied) {
    for s in applied.grid_stats() {
        t.rederived += s.objects_rederived as u64;
        t.knn_radius += s.objects_in_knn_radius as u64;
        t.repartitioned += s.objects_repartitioned as u64;
        t.leaves_refined += s.leaves_refined as u64;
        t.leaves_total += s.total_leaves as u64;
        t.splits_merges += (s.leaves_split + s.leaves_merged) as u64;
    }
    let d = applied.derivation();
    t.router_rederived += d.objects_rederived as u64;
    t.domain_growths += u64::from(d.domain_grown);
    // An unsharded system is one shard holding one replica of each object.
    let (touched, churn) = match applied {
        Applied::Single(s) => (
            usize::from(s.inserted + s.deleted + s.moved > 0),
            s.inserted + s.deleted,
        ),
        Applied::Sharded(s) => (s.shards_touched, s.replicas_added + s.replicas_removed),
    };
    t.shards_touched += touched as u64;
    t.replica_churn += churn as u64;
}

/// Same answer set as the R-tree oracle, each probability within
/// [`PROBABILITY_TOLERANCE`].
fn matches_reference(a: &PnnAnswer, reference: &PnnAnswer) -> bool {
    a.answer_ids() == reference.answer_ids()
        && a.probabilities.iter().all(|(id, p)| {
            reference
                .probabilities
                .iter()
                .any(|(rid, rp)| rid == id && (p - rp).abs() <= PROBABILITY_TOLERANCE)
        })
}

/// One step of the subscription walk: a short drift (about a metre on the
/// 10 km domain), or with probability 1/16 a jump of up to an eighth of
/// the domain.
fn walk(p: Point, rng: &mut Rng, domain: Rect) -> Point {
    let jump = rng.unit() < 1.0 / 16.0;
    let scale = if jump { domain.width() * 0.25 } else { 2.5 };
    Point::new(
        (p.x + (rng.unit() - 0.5) * scale).clamp(domain.min_x, domain.max_x),
        (p.y + (rng.unit() - 0.5) * scale).clamp(domain.min_y, domain.max_y),
    )
}

/// A churn batch of `ops` operations over the live set: 60% local moves,
/// 20% inserts, 20% deletes, every position kept inside the domain (so no
/// batch grows it).
fn update_batch(
    rng: &mut Rng,
    objects: &[UncertainObject],
    domain: Rect,
    ops: usize,
    next_id: &mut u32,
) -> UpdateBatch {
    const MARGIN: f64 = 25.0;
    let jitter = domain.width() / 250.0;
    let radius = objects.first().map_or(20.0, UncertainObject::radius);
    let inside = |x: f64, y: f64| {
        Point::new(
            x.clamp(domain.min_x + MARGIN, domain.max_x - MARGIN),
            y.clamp(domain.min_y + MARGIN, domain.max_y - MARGIN),
        )
    };
    let mut batch = UpdateBatch::new();
    let mut used = HashSet::new();
    for k in 0..ops {
        match k * 10 / ops {
            0..=5 => {
                let o = &objects[rng.below(objects.len())];
                if used.insert(o.id) {
                    let c = o.center();
                    let to = inside(
                        c.x + rng.range(-jitter, jitter),
                        c.y + rng.range(-jitter, jitter),
                    );
                    batch = batch.move_to(o.id, to);
                }
            }
            6..=7 => {
                let at = inside(
                    rng.range(domain.min_x, domain.max_x),
                    rng.range(domain.min_y, domain.max_y),
                );
                batch = batch.insert(UncertainObject::with_gaussian(*next_id, at, radius));
                *next_id += 1;
            }
            _ => {
                let id = objects[rng.below(objects.len())].id;
                if used.insert(id) {
                    batch = batch.delete(id);
                }
            }
        }
    }
    batch
}
