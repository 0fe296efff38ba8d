//! The two deployments the workloads drive — one [`UvSystem`] or a
//! [`ShardedUvSystem`] — behind one set of calls, so every workload runs
//! through the same serving loop.

use uv_core::{
    Method, QueryEngine, ShardedUpdateStats, ShardedUvSystem, SubscriptionEngine,
    SubscriptionTable, UpdateBatch, UpdateStats, UvConfig, UvError, UvSystem,
};
use uv_data::{PnnAnswer, UncertainObject};
use uv_geom::{Point, Rect};

pub enum Deployment {
    Single(Box<UvSystem>),
    Sharded(Box<ShardedUvSystem>),
}

/// What one `apply` reported.
pub enum Applied {
    Single(UpdateStats),
    Sharded(ShardedUpdateStats),
}

impl Applied {
    /// Grid-repair statistics of every system the batch reached: the system
    /// itself, or each shard.
    pub fn grid_stats(&self) -> Vec<&UpdateStats> {
        match self {
            Applied::Single(s) => vec![s],
            Applied::Sharded(s) => s.per_shard.iter().collect(),
        }
    }

    /// The statistics of the derivation step: the system's own, or the
    /// router's.
    pub fn derivation(&self) -> &UpdateStats {
        match self {
            Applied::Single(s) => s,
            Applied::Sharded(s) => &s.router,
        }
    }
}

/// The query path of a deployment: a [`QueryEngine`] (with its leaf cache)
/// over the single system, or routing through the sharded one.
pub enum Reader<'a> {
    Engine(QueryEngine<'a>),
    Routed(&'a ShardedUvSystem),
}

impl Reader<'_> {
    pub fn pnn(&self, q: Point) -> PnnAnswer {
        match self {
            Reader::Engine(e) => e.pnn(q),
            Reader::Routed(s) => s.pnn(q),
        }
    }

    pub fn pnn_batch(&self, queries: &[Point]) -> Vec<PnnAnswer> {
        match self {
            Reader::Engine(e) => e.pnn_batch(queries),
            Reader::Routed(s) => s.pnn_batch(queries),
        }
    }
}

impl Deployment {
    /// Builds with the IC method; `config.num_shards > 1` selects the
    /// sharded deployment.
    pub fn build(
        objects: Vec<UncertainObject>,
        domain: Rect,
        config: UvConfig,
    ) -> Result<Self, UvError> {
        if config.num_shards > 1 {
            ShardedUvSystem::build(objects, domain, Method::IC, config)
                .map(|s| Self::Sharded(Box::new(s)))
        } else {
            UvSystem::build(objects, domain, Method::IC, config).map(|s| Self::Single(Box::new(s)))
        }
    }

    /// Every serving system: the one system, or each shard.
    pub fn systems(&self) -> Vec<&UvSystem> {
        match self {
            Deployment::Single(s) => vec![s],
            Deployment::Sharded(s) => (0..s.shard_count()).map(|i| s.shard(i)).collect(),
        }
    }

    pub fn objects(&self) -> &[UncertainObject] {
        match self {
            Deployment::Single(s) => s.objects(),
            Deployment::Sharded(s) => s.objects(),
        }
    }

    pub fn domain(&self) -> Rect {
        match self {
            Deployment::Single(s) => s.domain(),
            Deployment::Sharded(s) => s.domain(),
        }
    }

    pub fn reader(&self) -> Reader<'_> {
        match self {
            Deployment::Single(s) => Reader::Engine(s.engine()),
            Deployment::Sharded(s) => Reader::Routed(s.as_ref()),
        }
    }

    /// The routed (or plain) PNN answer at `q` without any engine cache —
    /// the oracle subscription answers are checked against.
    pub fn pnn(&self, q: Point) -> PnnAnswer {
        match self {
            Deployment::Single(s) => s.pnn(q),
            Deployment::Sharded(s) => s.pnn(q),
        }
    }

    /// The R-tree branch-and-prune answer at `q`, through the system that
    /// owns `q` — the independent oracle for UV-index answers.
    pub fn rtree_pnn(&self, q: Point) -> PnnAnswer {
        match self {
            Deployment::Single(s) => s.pnn_rtree(q),
            Deployment::Sharded(s) => s
                .owner_of(q)
                .map_or_else(PnnAnswer::default, |o| s.shard(o).pnn_rtree(q)),
        }
    }

    pub fn apply(&mut self, batch: UpdateBatch) -> Result<Applied, UvError> {
        match self {
            Deployment::Single(s) => s.apply(batch).map(Applied::Single),
            Deployment::Sharded(s) => s.apply(batch).map(Applied::Sharded),
        }
    }

    pub fn subscriptions(&self, table: SubscriptionTable) -> SubscriptionEngine<'_> {
        match self {
            Deployment::Single(s) => SubscriptionEngine::with_table(s.as_ref(), table),
            Deployment::Sharded(s) => SubscriptionEngine::sharded_with_table(s.as_ref(), table),
        }
    }

    /// Revalidates the subscriptions after `applied`.
    pub fn refresh(subs: &mut SubscriptionEngine<'_>, applied: &Applied) {
        match applied {
            Applied::Single(s) => subs.refresh_after(s),
            Applied::Sharded(s) => subs.refresh_after_sharded(s),
        };
    }

    /// Bytes of the deployment's snapshot (written to a sink).
    pub fn save_snapshot(&self) -> Result<u64, UvError> {
        let mut sink = std::io::sink();
        match self {
            Deployment::Single(s) => s.save_snapshot(&mut sink),
            Deployment::Sharded(s) => s.save_snapshot(&mut sink),
        }
    }

    /// UV-index leaf pages read so far, over every serving system.
    pub fn leaf_reads(&self) -> u64 {
        self.systems()
            .iter()
            .map(|s| s.index().store().io().reads)
            .sum()
    }

    /// Pages written so far to every page store (index leaves, R-tree,
    /// object records) of every serving system.
    pub fn pages_written(&self) -> u64 {
        self.systems()
            .iter()
            .map(|s| {
                s.index().store().io().writes
                    + s.rtree().store().io().writes
                    + s.object_store().store().io().writes
            })
            .sum()
    }
}
