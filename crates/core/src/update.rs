//! Dynamic maintenance: incremental insert / delete / move with localized
//! UV-partition repair.
//!
//! The paper builds the UV-index once over a frozen dataset; a live
//! deployment (fleet tracking, moving users — see `ROADMAP.md`) sees objects
//! join, leave and change position continuously, and rebuilding the whole
//! index per change is a non-starter. This module maintains a
//! [`UvSystem`] under updates with a correctness contract that is *absolute*:
//! after any update sequence, the index state — grid structure, leaf member
//! lists, and therefore every PNN answer — is **bit-identical** to a cold
//! full rebuild over the same object set.
//!
//! # How it stays exact *and* local
//!
//! 1. **Canonical structure.** The grid built by [`crate::builder`] is a pure
//!    function of the per-object reference sets (id-ordered member lists,
//!    set-determined splits), not of insertion order. Equal object state
//!    implies equal index state, so local repair towards the same state is
//!    possible at all.
//! 2. **Affected objects by sensitivity bound.** A change of object `O_j`
//!    can alter the derivation of `O_i` only if `O_j` enters or leaves one of
//!    the two index queries the derivation makes: the seed-selection k-NN or
//!    the I-pruning range query (Lemma 2). Each object therefore stores an
//!    [`crate::crobjects::UpdateSensitivity`] — the k-th neighbour distance
//!    and the I-pruning radius `2d - r_i` — and only objects whose bound
//!    admits the changed MBC are re-derived.
//! 3. **Dirty objects to dirty leaves.** Only objects whose MBC or reference
//!    set actually changed can change any Algorithm 5 overlap answer. The
//!    repair descends the grid with exact per-node deltas, re-derives member
//!    lists of touched leaves through the same machinery the builder uses,
//!    and re-evaluates the canonical split/merge condition where member
//!    counts crossed it. Untouched leaves are not read, not rewritten, not
//!    even visited.
//! 4. **Substrate rebuild.** The packed (STR) R-tree is bulk-reloaded from
//!    the updated object set every batch — deterministic, cheap
//!    (`O(n log n)` comparisons, no UV geometry), and it guarantees that
//!    re-derived objects see exactly the tree a cold build would query. The
//!    expensive, localized part — cr-derivation and leaf refinement — is
//!    what the affected bounds confine.
//!
//! # No full rebuilds
//!
//! Two situations used to abandon incremental repair for a cold rebuild;
//! both are now handled in place, so [`UpdateStats::full_rebuild`] is
//! structurally unreachable under any legal op sequence (the field is kept,
//! always `false`, for API stability — the adversarial suite in
//! `tests/proptest_adversarial.rs` churns both paths and asserts exactly
//! that). Arseneva et al. (*Sublinear Explicit Incremental Planar Voronoi
//! Diagrams*) show Voronoi topology admits incremental maintenance; the two
//! mechanisms here are our budget- and domain-aware analogues:
//!
//! * **Domain growth** — an inserted or moved object extends beyond the
//!   indexed domain `D`. The domain grows *exponentially*: it is doubled
//!   away from every violated side until the new geometry fits, so a
//!   staircase of `K` just-outside inserts triggers only `O(log)` growth
//!   events. Because the derivation is domain-seeded (the possible region
//!   starts from the domain rectangle and the hull discretisation scales
//!   with the domain side), *every* object is re-derived under the grown
//!   domain and the grid is rebuilt canonically — but **into the live
//!   system**: the object store (tombstones included) and the R-tree pages
//!   carry over, the epoch advances exactly once, and
//!   [`UpdateStats::domain_grown`] reports the event. The result is
//!   bit-identical to a cold build at the grown domain by construction.
//! * **Memory budget `M` binds** — when the non-leaf budget denies a split,
//!   budget allocation becomes order-dependent, so no *local* decision can
//!   reproduce it. Repair therefore runs with an **unbounded** budget first
//!   (member sets stay exact everywhere), and whenever the budget is or was
//!   bound, `crate::builder::reconcile_budget` replays the cold build's
//!   preorder allocation over the repaired tree — collapsing subtrees a
//!   bounded cold build could not afford and expanding leaves a past denial
//!   left behind — which reproduces the budget-bound cold grid exactly.
//!
//! # Epochs
//!
//! Every applied batch bumps the index [`UvIndex::epoch`]. The query
//! engine's per-leaf cache tags itself with the epoch it was filled at and
//! is bypassed on mismatch, so a reader can never be served leaf pages from
//! before an update; Rust's aliasing rules additionally make it impossible
//! to hold a live [`crate::QueryEngine`] across a mutation.

use crate::builder::{
    build_uv_index_full, derive_subset, grow_node, make_leaf, reconcile_budget, split_members,
    GridCtx, GrowStats, Method, NodeBudget,
};
use crate::crobjects::{ChangeImpact, UpdateSensitivity};
use crate::index::{GridNode, UvIndex};
use crate::system::UvSystem;
use crate::UvError;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use uv_data::{ObjectId, UncertainObject};
use uv_geom::{Circle, Point, Rect};
use uv_rtree::RTree;
use uv_store::PageStore;

/// Per-object state the system retains between updates: the reference ids
/// the object was indexed under and the sensitivity bound that decides when
/// a change elsewhere forces its re-derivation.
#[derive(Debug, Clone)]
pub struct ObjectState {
    pub(crate) reference_ids: Vec<ObjectId>,
    pub(crate) sensitivity: UpdateSensitivity,
}

impl ObjectState {
    /// The reference objects (cr- or r-objects, per the construction method)
    /// the object is indexed under.
    pub fn reference_ids(&self) -> &[ObjectId] {
        &self.reference_ids
    }

    /// The affected-object bound of this object's derivation.
    pub fn sensitivity(&self) -> &UpdateSensitivity {
        &self.sensitivity
    }
}

/// Id-indexed [`ObjectState`] of every live object.
pub(crate) type RefTable = HashMap<ObjectId, ObjectState>;

/// One update operation.
#[derive(Debug, Clone)]
pub enum UpdateOp {
    /// Add a new object (its id must be unused).
    Insert(UncertainObject),
    /// Remove an existing object.
    Delete(ObjectId),
    /// Move an existing object's uncertainty region to a new centre
    /// (radius and pdf are kept).
    Move {
        /// The object to move.
        id: ObjectId,
        /// The new centre of its uncertainty region.
        center: Point,
    },
}

/// A batch of update operations, applied atomically as one epoch.
///
/// Ops are applied in order against a shadow of the current object set, so a
/// batch may delete an id and re-insert it; only the *net* difference to the
/// object set drives index repair.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    pub(crate) ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an insert.
    pub fn insert(mut self, object: UncertainObject) -> Self {
        self.ops.push(UpdateOp::Insert(object));
        self
    }

    /// Queues a delete.
    pub fn delete(mut self, id: ObjectId) -> Self {
        self.ops.push(UpdateOp::Delete(id));
        self
    }

    /// Queues a move.
    pub fn move_to(mut self, id: ObjectId, center: Point) -> Self {
        self.ops.push(UpdateOp::Move { id, center });
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Statistics of one applied update batch — in particular the *locality*
/// counters the churn experiment reports: how many leaves the repair
/// actually rewrote versus the leaf count a full rebuild would have written.
#[derive(Debug, Clone, Default)]
pub struct UpdateStats {
    /// Net object insertions.
    pub inserted: usize,
    /// Net object deletions.
    pub deleted: usize,
    /// Net object geometry changes (moves).
    pub moved: usize,
    /// Objects whose reference derivation was repeated (affected set).
    pub objects_rederived: usize,
    /// Objects the plain k-NN-radius bound alone (the PR-3 rule, without
    /// the seed-sector prefilter) would have re-derived. The difference to
    /// [`UpdateStats::objects_rederived`] is the work the prefilter skipped.
    pub objects_in_knn_radius: usize,
    /// Objects whose derivation or geometry actually changed, i.e. that
    /// entered the grid repair.
    pub objects_repartitioned: usize,
    /// Leaf page lists written by the repair (rebuilt, split-produced or
    /// merge-produced). A full rebuild writes every leaf.
    pub leaves_refined: usize,
    /// Leaves that split into subtrees.
    pub leaves_split: usize,
    /// Internal nodes collapsed back into leaves.
    pub leaves_merged: usize,
    /// Leaf count of the index after the update.
    pub total_leaves: usize,
    /// Always `false`: every trigger that used to force a cold rebuild
    /// (domain growth, a bound memory budget) is now handled in place. The
    /// field is retained for API stability and as the adversarial suite's
    /// assertion target.
    pub full_rebuild: bool,
    /// `true` when the batch extended the indexed domain in place: an
    /// inserted or moved object landed outside `D`, the domain was grown
    /// exponentially to cover it and every object was re-derived under the
    /// grown domain (the derivation is domain-seeded), with the object
    /// store, R-tree pages and epoch sequence carrying over.
    pub domain_grown: bool,
    /// Index epoch after the update.
    pub epoch: u64,
    /// Ids whose derivation was repeated this batch (the affected set of
    /// [`UpdateStats::objects_rederived`]). The sharded serving layer diffs
    /// halo membership for exactly these objects (plus the batch's own ids)
    /// instead of rescanning the whole object set — membership depends only
    /// on an object's geometry and its sensitivity, and the sensitivity can
    /// only change through a re-derivation.
    pub(crate) rederived_ids: Vec<ObjectId>,
    /// Regions of every leaf page list the repair rewrote (split products,
    /// merge survivors and plain content rewrites alike — all leaf writes
    /// flow through the builder's `make_leaf`). A PNN answer can only have
    /// changed at query points inside one of these rectangles, which is what
    /// lets [`crate::subscribe::SubscriptionEngine::refresh_after`] re-derive
    /// only the subscriptions whose safe region touches a repaired leaf.
    /// Domain growth re-derives everything, so it reports the grown domain.
    pub(crate) repaired_rects: Vec<Rect>,
}

impl UpdateStats {
    /// Fraction of the index's leaves the repair rewrote (1.0 when the
    /// domain grew in place, since every leaf is re-derived). The churn
    /// experiment's locality criterion is that this stays at or below 0.1
    /// for a 1% churn step.
    pub fn refine_fraction(&self) -> f64 {
        if self.full_rebuild {
            return 1.0;
        }
        self.leaves_refined as f64 / self.total_leaves.max(1) as f64
    }

    /// Regions of the leaf page lists this batch rewrote — the update's
    /// invalidation footprint. Query answers are unchanged at every point
    /// outside these rectangles; after domain growth the footprint is the
    /// whole (grown) domain.
    pub fn repaired_regions(&self) -> &[Rect] {
        &self.repaired_rects
    }
}

/// Fluent update handle borrowing a [`UvSystem`]: queue inserts, deletes and
/// moves, then [`Updater::commit`] them as one atomic batch.
///
/// ```
/// use uv_core::UvSystem;
/// use uv_data::{Dataset, GeneratorConfig, UncertainObject};
/// use uv_geom::Point;
///
/// let ds = Dataset::generate(GeneratorConfig::paper_uniform(120));
/// let mut system = UvSystem::with_defaults(ds.objects.clone(), ds.domain);
/// let stats = system
///     .updater()
///     .insert(UncertainObject::with_uniform(500, Point::new(1_000.0, 2_000.0), 20.0))
///     .delete(3)
///     .move_to(7, Point::new(4_321.0, 1_234.0))
///     .commit()
///     .unwrap();
/// assert_eq!((stats.inserted, stats.deleted, stats.moved), (1, 1, 1));
/// assert_eq!(system.index().epoch(), 1);
/// ```
#[derive(Debug)]
pub struct Updater<'a> {
    system: &'a mut UvSystem,
    batch: UpdateBatch,
}

impl<'a> Updater<'a> {
    pub(crate) fn new(system: &'a mut UvSystem) -> Self {
        Self {
            system,
            batch: UpdateBatch::new(),
        }
    }

    /// Queues an insert.
    pub fn insert(mut self, object: UncertainObject) -> Self {
        self.batch = self.batch.insert(object);
        self
    }

    /// Queues a delete.
    pub fn delete(mut self, id: ObjectId) -> Self {
        self.batch = self.batch.delete(id);
        self
    }

    /// Queues a move.
    pub fn move_to(mut self, id: ObjectId, center: Point) -> Self {
        self.batch = self.batch.move_to(id, center);
        self
    }

    /// Number of queued operations.
    pub fn pending(&self) -> usize {
        self.batch.len()
    }

    /// Applies the queued operations as one atomic batch.
    pub fn commit(self) -> Result<UpdateStats, UvError> {
        self.system.apply(self.batch)
    }
}

impl UvSystem {
    /// Starts a fluent update batch against this system.
    pub fn updater(&mut self) -> Updater<'_> {
        Updater::new(self)
    }

    /// Inserts one object (a single-op [`UpdateBatch`]).
    pub fn insert_object(&mut self, object: UncertainObject) -> Result<UpdateStats, UvError> {
        self.apply(UpdateBatch::new().insert(object))
    }

    /// Deletes one object (a single-op [`UpdateBatch`]).
    pub fn delete_object(&mut self, id: ObjectId) -> Result<UpdateStats, UvError> {
        self.apply(UpdateBatch::new().delete(id))
    }

    /// Moves one object (a single-op [`UpdateBatch`]).
    pub fn move_object(&mut self, id: ObjectId, center: Point) -> Result<UpdateStats, UvError> {
        self.apply(UpdateBatch::new().move_to(id, center))
    }

    /// Applies an update batch atomically: validates every op against a
    /// shadow of the object set (nothing is mutated on error), computes the
    /// net object-set difference, and repairs the UV-partition locally.
    /// Domain growth is handled in place (exponential extension plus a
    /// canonical re-derivation that keeps the stores and epoch sequence) and
    /// a bound non-leaf budget by post-repair reconciliation — an update
    /// never falls back to a full rebuild. Bumps the index epoch exactly
    /// once when the net difference is non-empty.
    pub fn apply(&mut self, batch: UpdateBatch) -> Result<UpdateStats, UvError> {
        let mut stats = UpdateStats {
            epoch: self.index.epoch(),
            total_leaves: self.index.num_leaf_nodes(),
            ..UpdateStats::default()
        };

        // ---- 1. Validate by simulation -----------------------------------
        // `overlay` shadows only what the batch touches (`Some` = new state,
        // `None` = deleted); the untouched majority of the object set is
        // never cloned. Nothing in `self` is mutated until the whole batch
        // validates.
        let before: HashMap<ObjectId, &UncertainObject> =
            self.objects.iter().map(|o| (o.id, o)).collect();
        let mut overlay: HashMap<ObjectId, Option<UncertainObject>> = HashMap::new();
        let is_live = |overlay: &HashMap<ObjectId, Option<UncertainObject>>,
                       before: &HashMap<ObjectId, &UncertainObject>,
                       id: &ObjectId| {
            overlay
                .get(id)
                .map_or(before.contains_key(id), Option::is_some)
        };
        for op in &batch.ops {
            match op {
                UpdateOp::Insert(o) => {
                    validate_object(o)?;
                    if is_live(&overlay, &before, &o.id) {
                        return Err(UvError::DuplicateObject(o.id));
                    }
                    overlay.insert(o.id, Some(o.clone()));
                }
                UpdateOp::Delete(id) => {
                    if !is_live(&overlay, &before, id) {
                        return Err(UvError::UnknownObject(*id));
                    }
                    overlay.insert(*id, None);
                }
                UpdateOp::Move { id, center } => {
                    let current = match overlay.get(id) {
                        Some(state) => state.as_ref(),
                        None => before.get(id).copied(),
                    };
                    let Some(current) = current else {
                        return Err(UvError::UnknownObject(*id));
                    };
                    if !center.x.is_finite() || !center.y.is_finite() {
                        return Err(UvError::InvalidObject(*id));
                    }
                    let mut moved = current.clone();
                    moved.region.center = *center;
                    overlay.insert(*id, Some(moved));
                }
            }
        }

        // ---- 2. Net difference -------------------------------------------
        // Also captures the old/new geometry of everything that changes or
        // disappears, split by direction: disappearing states (deletes,
        // move origins) and appearing states (inserts, move destinations)
        // carry different seed-displacement hazards, which the sensitivity
        // prefilter exploits.
        let mut deleted: Vec<ObjectId> = Vec::new();
        let mut inserted: Vec<ObjectId> = Vec::new();
        let mut changed: Vec<ObjectId> = Vec::new();
        let mut removed_mbcs: Vec<Circle> = Vec::new();
        let mut added_mbcs: Vec<Circle> = Vec::new();
        let mut moved_mbcs: Vec<(Circle, Circle)> = Vec::new();
        for (id, state) in &overlay {
            match (before.get(id), state) {
                (Some(b), Some(o)) if *b != o => {
                    changed.push(*id);
                    moved_mbcs.push((b.mbc(), o.mbc()));
                }
                (Some(_), Some(_)) => {} // touched but net-unchanged
                (Some(b), None) => {
                    deleted.push(*id);
                    removed_mbcs.push(b.mbc());
                }
                (None, Some(o)) => {
                    inserted.push(*id);
                    added_mbcs.push(o.mbc());
                }
                (None, None) => {} // inserted then deleted within the batch
            }
        }
        drop(before);
        deleted.sort_unstable();
        inserted.sort_unstable();
        changed.sort_unstable();
        stats.deleted = deleted.len();
        stats.inserted = inserted.len();
        stats.moved = changed.len();
        if deleted.is_empty() && inserted.is_empty() && changed.is_empty() {
            return Ok(stats);
        }
        let updated = |id: &ObjectId| overlay[id].as_ref().expect("net-changed ids carry a state");

        // ---- 3. Apply the net difference to the object vector ------------
        self.objects
            .retain(|o| !matches!(overlay.get(&o.id), Some(None)));
        for o in self.objects.iter_mut() {
            if changed.binary_search(&o.id).is_ok() {
                *o = updated(&o.id).clone();
            }
        }
        for id in &inserted {
            self.objects.push(updated(id).clone());
        }

        // ---- 4. Secondary structures -------------------------------------
        for id in &deleted {
            self.object_store.remove(*id);
        }
        for id in &changed {
            self.object_store.update(updated(id));
        }
        for id in &inserted {
            self.object_store.insert(updated(id));
        }
        let rtree_pages = Arc::clone(self.rtree.store());
        self.rtree = RTree::build(&self.objects, &self.object_store, rtree_pages);

        // ---- 5. In-place domain growth -----------------------------------
        // The derivation is domain-seeded (possible regions start from the
        // domain rectangle, the hull discretisation scales with its side),
        // so a domain change invalidates every derivation: growth re-derives
        // everything and rebuilds the grid canonically — into the live
        // system, over the stores updated above.
        let needed = inserted
            .iter()
            .chain(&changed)
            .map(|id| updated(id).mbr())
            .filter(|mbr| !self.domain.contains_rect(mbr))
            .fold(None::<Rect>, |acc, mbr| {
                Some(acc.map_or(mbr, |a| a.union(&mbr)))
            });
        if let Some(needed) = needed {
            let domain = grow_domain(self.domain, &needed);
            return self.finish_with_domain_growth(stats, domain);
        }

        // ---- 6. Affected objects -----------------------------------------
        let changed_set: HashSet<ObjectId> = changed.iter().copied().collect();
        let inserted_set: HashSet<ObjectId> = inserted.iter().copied().collect();
        let mut affected: HashSet<ObjectId> = changed_set.union(&inserted_set).copied().collect();
        stats.objects_in_knn_radius = affected.len();
        // Subjects whose reference id list is provably unchanged but whose
        // referenced geometry moved: grid repair without re-derivation.
        // Only the IC method may take this shortcut (ICR refines through
        // the references' geometry, so its derivation must repeat).
        let mut repartition_only: Vec<ObjectId> = Vec::new();
        for o in &self.objects {
            if affected.contains(&o.id) {
                continue;
            }
            let sensitivity = &self.ref_table[&o.id].sensitivity;
            let c = o.center();
            let mut impact = ChangeImpact::Unaffected;
            for mbc in &removed_mbcs {
                if sensitivity.affected_by_removed(c, mbc) {
                    impact = ChangeImpact::Rederive;
                    break;
                }
            }
            for mbc in &added_mbcs {
                if impact < ChangeImpact::Rederive && sensitivity.affected_by_added(c, mbc) {
                    impact = ChangeImpact::Rederive;
                }
            }
            for (old, new) in &moved_mbcs {
                if impact < ChangeImpact::Rederive {
                    let mut verdict = sensitivity.move_impact(c, old, new);
                    if verdict == ChangeImpact::RepartitionOnly && self.method != Method::IC {
                        verdict = ChangeImpact::Rederive;
                    }
                    impact = impact.max(verdict);
                }
            }
            match impact {
                ChangeImpact::Rederive => {
                    affected.insert(o.id);
                    stats.objects_in_knn_radius += 1;
                }
                ChangeImpact::RepartitionOnly => {
                    repartition_only.push(o.id);
                    stats.objects_in_knn_radius += 1;
                }
                ChangeImpact::Unaffected => {
                    // Inside the k-NN radius but skipped by the prefilter —
                    // counted so the churn experiment can report the saving
                    // against the PR-3 bound.
                    if removed_mbcs
                        .iter()
                        .chain(&added_mbcs)
                        .chain(moved_mbcs.iter().flat_map(|(a, b)| [a, b]))
                        .any(|mbc| sensitivity.affected_by_knn_bound(c, mbc))
                    {
                        stats.objects_in_knn_radius += 1;
                    }
                }
            }
        }

        // ---- 7. Re-derive the affected objects ---------------------------
        let by_id: HashMap<ObjectId, &UncertainObject> =
            self.objects.iter().map(|o| (o.id, o)).collect();
        let subjects: Vec<&UncertainObject> = self
            .objects
            .iter()
            .filter(|o| affected.contains(&o.id))
            .collect();
        let derived = derive_subset(
            &subjects,
            &self.objects,
            &by_id,
            &self.rtree,
            &self.domain,
            &self.config,
            self.method,
        );
        stats.objects_rederived = derived.len();

        // ---- 8. Diff derivations into the dirty set ----------------------
        // An object needs grid repair when its overlap-test inputs changed:
        // its own MBC, its reference id list, or the MBC of an object it
        // references.
        let mut dirty: Vec<ObjectId> = Vec::new();
        for p in derived {
            stats.rederived_ids.push(p.id);
            let refs_changed = self
                .ref_table
                .get(&p.id)
                .is_none_or(|w| w.reference_ids != p.reference_ids);
            let is_dirty = refs_changed
                || changed_set.contains(&p.id)
                || p.reference_ids.iter().any(|r| changed_set.contains(r));
            self.ref_table.insert(
                p.id,
                ObjectState {
                    reference_ids: p.reference_ids,
                    sensitivity: p.sensitivity,
                },
            );
            if is_dirty && !inserted_set.contains(&p.id) {
                dirty.push(p.id);
            }
        }
        for id in &deleted {
            self.ref_table.remove(id);
        }
        // Repartition-only subjects skipped the derivation (their reference
        // id lists are provably unchanged) but reference moved geometry, so
        // their overlap tests must be re-run.
        dirty.extend_from_slice(&repartition_only);
        dirty.sort_unstable();
        stats.objects_repartitioned = dirty.len() + inserted.len() + deleted.len();

        // ---- 9. Localized grid repair ------------------------------------
        let ctx = GridCtx::new(&self.objects, &self.object_store, &self.ref_table);

        // Root-level delta classification.
        let domain = self.domain;
        let root_members = self.index.nodes[0].members();
        let mut added_root: Vec<ObjectId> = Vec::new();
        let mut removed_root: Vec<ObjectId> = Vec::new();
        let mut changed_root: Vec<ObjectId> = Vec::new();
        for id in &inserted {
            if ctx.overlaps(*id, &domain) {
                added_root.push(*id);
            }
        }
        for id in &deleted {
            if root_members.binary_search(id).is_ok() {
                removed_root.push(*id);
            }
        }
        for id in &dirty {
            match (
                root_members.binary_search(id).is_ok(),
                ctx.overlaps(*id, &domain),
            ) {
                (true, true) => changed_root.push(*id),
                (true, false) => removed_root.push(*id),
                (false, true) => added_root.push(*id),
                (false, false) => {}
            }
        }

        let prev_budget_bound = self.index.budget_bound;
        let mut repairer = Repairer {
            ctx,
            entry_dirty: &changed,
            grow: GrowStats::default(),
            merges: 0,
        };
        repairer.repair(
            &mut self.index,
            0,
            &added_root,
            &removed_root,
            &changed_root,
        );
        let Repairer {
            ctx,
            mut grow,
            mut merges,
            ..
        } = repairer;

        // ---- 10. Budget reconciliation & epoch ---------------------------
        // The repair above ran with an unbounded budget, so member sets are
        // exact everywhere but the tree may exceed the non-leaf cap `M` —
        // and if a *previous* build or batch was denied a split, the tree
        // may also contain overflowing leaves a freed-up budget would now
        // expand. Replaying the cold build's preorder allocation restores
        // the bounded canonical structure in both cases. When the budget
        // never bound and the repaired tree fits the cap, no cold-build
        // decision point can differ, so the replay is skipped entirely.
        if prev_budget_bound || self.index.nonleaf_count > self.config.max_nonleaf {
            merges += reconcile_budget(&mut self.index, &ctx, &mut grow);
        }
        stats.leaves_refined = grow.leaves_built;
        stats.leaves_split = grow.splits;
        stats.leaves_merged = merges;
        stats.repaired_rects = grow.leaf_rects;
        self.index.epoch += 1;
        stats.epoch = self.index.epoch;
        stats.total_leaves = self.index.num_leaf_nodes();
        Ok(stats)
    }

    /// Extends the indexed domain to `domain` in place: re-derives every
    /// object (the derivation is domain-seeded, so none survives a domain
    /// change) and rebuilds the grid canonically over the *existing* object
    /// and R-tree stores, advancing the epoch by one. A no-op when `domain`
    /// equals the current one. The configuration was validated when the
    /// system was first built; the `Result` threads the builder's
    /// typed-error signature through.
    pub(crate) fn grow_domain_to(&mut self, domain: Rect) -> Result<(), UvError> {
        if domain == self.domain {
            return Ok(());
        }
        let index_pages = Arc::new(PageStore::new());
        let (index, construction, ref_table) = build_uv_index_full(
            &self.objects,
            &self.object_store,
            &self.rtree,
            domain,
            index_pages,
            self.method,
            self.config,
        )?;
        let epoch = self.index.epoch() + 1;
        self.domain = domain;
        self.index = index;
        self.index.epoch = epoch;
        self.construction = construction;
        self.ref_table = ref_table;
        Ok(())
    }

    /// Finishes a batch whose net difference left the old domain: grows the
    /// domain in place via [`UvSystem::grow_domain_to`] and fills the stats
    /// of the implied global re-derivation (every live object is re-derived,
    /// every leaf rewritten — which is exactly what `rederived_ids` tells
    /// the sharded layer to reconcile).
    fn finish_with_domain_growth(
        &mut self,
        mut stats: UpdateStats,
        domain: Rect,
    ) -> Result<UpdateStats, UvError> {
        self.grow_domain_to(domain)?;
        stats.domain_grown = true;
        stats.objects_rederived = self.objects.len();
        stats.rederived_ids = self.objects.iter().map(|o| o.id).collect();
        stats.objects_in_knn_radius = self.objects.len();
        stats.objects_repartitioned = self.objects.len();
        stats.leaves_refined = self.index.num_leaf_nodes();
        stats.total_leaves = self.index.num_leaf_nodes();
        stats.epoch = self.index.epoch;
        stats.repaired_rects = vec![self.domain];
        Ok(stats)
    }
}

/// The domain-growth policy: doubles the domain away from every violated
/// side until `needed` fits. Growth is exponential so a staircase of `K`
/// just-outside inserts costs `O(log)` growth events, and the result is a
/// pure function of (current domain, needed rectangle) — the sharded
/// router, its shards and any cold-rebuild oracle all agree on the grown
/// domain without coordination. Shared with [`crate::router`], whose slim
/// apply pipeline must grow bit-identically to this one.
pub(crate) fn grow_domain(mut domain: Rect, needed: &Rect) -> Rect {
    while !domain.contains_rect(needed) {
        let w = domain.width().max(1.0);
        let h = domain.height().max(1.0);
        if needed.min_x < domain.min_x {
            domain.min_x -= w;
        }
        if needed.max_x > domain.max_x {
            domain.max_x += w;
        }
        if needed.min_y < domain.min_y {
            domain.min_y -= h;
        }
        if needed.max_y > domain.max_y {
            domain.max_y += h;
        }
    }
    domain
}

/// Shared op validation: both [`UvSystem::apply`] and the derivation-only
/// router ([`crate::router`]) must accept and reject exactly the same
/// objects, or the sharded layer's error behaviour would diverge from the
/// unsharded oracle.
pub(crate) fn validate_object(o: &UncertainObject) -> Result<(), UvError> {
    let c = o.center();
    if !c.x.is_finite() || !c.y.is_finite() || !o.radius().is_finite() || o.radius() < 0.0 {
        return Err(UvError::InvalidObject(o.id));
    }
    Ok(())
}

/// Merges a node's member list with its delta, keeping ascending id order
/// (the canonical member order).
fn merged_members(old: &[ObjectId], added: &[ObjectId], removed: &[ObjectId]) -> Vec<ObjectId> {
    let mut gone = removed.to_vec();
    gone.sort_unstable();
    let mut out: Vec<ObjectId> = old
        .iter()
        .filter(|id| gone.binary_search(id).is_err())
        .copied()
        .collect();
    out.extend_from_slice(added);
    out.sort_unstable();
    out
}

/// Recursive grid repair. Node deltas obey a strict contract established by
/// the parent: `added` pass the node's overlap test and are not members,
/// `removed` are members to drop, `changed` are members that stay members of
/// *this* node but whose entries or deeper membership may differ.
struct Repairer<'a> {
    ctx: GridCtx<'a>,
    /// Id-sorted entries whose on-page bytes changed (MBC or record
    /// pointer): their leaves must rewrite pages even when membership is
    /// unchanged.
    entry_dirty: &'a [ObjectId],
    grow: GrowStats,
    merges: usize,
}

impl Repairer<'_> {
    fn repair(
        &mut self,
        index: &mut UvIndex,
        node: usize,
        added: &[ObjectId],
        removed: &[ObjectId],
        changed: &[ObjectId],
    ) {
        if added.is_empty() && removed.is_empty() && changed.is_empty() {
            return;
        }
        let region = index.node_regions[node];
        match &index.nodes[node] {
            GridNode::Leaf { object_ids, .. } => {
                let new_members = merged_members(object_ids, added, removed);
                let list_changed = !added.is_empty() || !removed.is_empty();
                if split_members(index, &self.ctx, &region, &new_members).is_some() {
                    // The canonical structure wants a subtree here now (the
                    // member count grew past the capacity, or a changed
                    // reference set flipped the split fraction). Repair runs
                    // with an unbounded budget so the member sets come out
                    // exact; the caller replays the cold build's preorder
                    // allocation afterwards (`reconcile_budget`) if the
                    // non-leaf cap could bind.
                    let mut budget = NodeBudget::unbounded();
                    grow_node(
                        index,
                        node,
                        new_members,
                        &self.ctx,
                        &mut self.grow,
                        &mut budget,
                    );
                } else if list_changed
                    || changed
                        .iter()
                        .any(|id| self.entry_dirty.binary_search(id).is_ok())
                {
                    make_leaf(index, node, new_members, &self.ctx, &mut self.grow);
                }
            }
            GridNode::Internal {
                children,
                object_ids,
            } => {
                let children = *children;
                let new_members = merged_members(object_ids, added, removed);
                // Classify the delta against each child's region and current
                // member set; this also yields the children's new member
                // counts, which decide whether this node keeps its subtree.
                let mut child_added: [Vec<ObjectId>; 4] = Default::default();
                let mut child_removed: [Vec<ObjectId>; 4] = Default::default();
                let mut child_changed: [Vec<ObjectId>; 4] = Default::default();
                // Children are allocated on `region.quadrants()`, so one
                // fused overlap test per id classifies it for all four.
                debug_assert!(children
                    .iter()
                    .zip(region.quadrants())
                    .all(|(c, q)| index.node_regions[*c as usize] == q));
                let members = children.map(|c| index.nodes[c as usize].members());
                let is_member = |k: usize, id: &ObjectId| members[k].binary_search(id).is_ok();
                for id in added {
                    let inside = self.ctx.overlaps_quadrants(*id, &region);
                    for k in (0..4).filter(|&k| inside[k]) {
                        child_added[k].push(*id);
                    }
                }
                for id in removed {
                    for k in (0..4).filter(|&k| is_member(k, id)) {
                        child_removed[k].push(*id);
                    }
                }
                for id in changed {
                    let inside = self.ctx.overlaps_quadrants(*id, &region);
                    for k in 0..4 {
                        match (is_member(k, id), inside[k]) {
                            (true, true) => child_changed[k].push(*id),
                            (true, false) => child_removed[k].push(*id),
                            (false, true) => child_added[k].push(*id),
                            (false, false) => {}
                        }
                    }
                }
                let new_counts: [usize; 4] = std::array::from_fn(|k| {
                    members[k].len() + child_added[k].len() - child_removed[k].len()
                });
                let min_child = new_counts.iter().min().copied().unwrap_or(0);
                let keep_split = new_members.len() > index.split_capacity()
                    && (min_child as f64) / (new_members.len() as f64)
                        < index.config().split_threshold;
                if keep_split {
                    if let GridNode::Internal { object_ids, .. } = &mut index.nodes[node] {
                        *object_ids = new_members;
                    }
                    for k in 0..4 {
                        self.repair(
                            index,
                            children[k] as usize,
                            &child_added[k],
                            &child_removed[k],
                            &child_changed[k],
                        );
                    }
                } else {
                    // The canonical structure is a leaf here now: collapse
                    // the subtree and rebuild the member list as one page
                    // list.
                    index.free_children(node);
                    index.nonleaf_count -= 1;
                    self.merges += 1;
                    make_leaf(index, node, new_members, &self.ctx, &mut self.grow);
                }
            }
            GridNode::Free => unreachable!("free nodes are unreachable from the root"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, UvConfig};
    use uv_data::{Dataset, GeneratorConfig};

    fn system(n: usize, config: UvConfig) -> (Dataset, UvSystem) {
        let ds = Dataset::generate(GeneratorConfig::paper_uniform(n));
        let sys = UvSystem::build(ds.objects.clone(), ds.domain, Method::IC, config).unwrap();
        (ds, sys)
    }

    /// Canonical view of the grid for structural comparison (the shared
    /// [`UvIndex::canonical_leaves`] oracle).
    fn canonical_leaves(sys: &UvSystem) -> Vec<crate::index::CanonicalLeaf> {
        sys.index().canonical_leaves()
    }

    fn assert_matches_cold_rebuild(sys: &UvSystem) {
        let rebuilt = UvSystem::build(
            sys.objects().to_vec(),
            sys.domain(),
            sys.method(),
            *sys.config(),
        )
        .unwrap();
        assert_eq!(
            canonical_leaves(sys),
            canonical_leaves(&rebuilt),
            "incrementally maintained grid diverged from a cold rebuild"
        );
        let queries = Dataset::generate(GeneratorConfig::paper_uniform(10)).query_points(25, 99);
        for q in queries {
            let a = sys.pnn(q);
            let b = rebuilt.pnn(q);
            assert_eq!(a.probabilities, b.probabilities, "answers differ at {q:?}");
            assert_eq!(a.candidates_examined, b.candidates_examined);
        }
    }

    #[test]
    fn insert_delete_move_match_cold_rebuild() {
        let (ds, mut sys) = system(150, UvConfig::default().with_leaf_split_capacity(24));
        let stats = sys
            .updater()
            .insert(UncertainObject::with_gaussian(
                900,
                Point::new(2_500.0, 2_500.0),
                20.0,
            ))
            .delete(17)
            .move_to(42, Point::new(7_400.0, 1_200.0))
            .commit()
            .unwrap();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.deleted, 1);
        assert_eq!(stats.moved, 1);
        assert!(!stats.full_rebuild);
        assert_eq!(stats.epoch, 1);
        assert_eq!(sys.index().epoch(), 1);
        assert_eq!(sys.objects().len(), ds.objects.len());
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn empty_batch_and_net_noop_do_not_bump_epoch() {
        let (ds, mut sys) = system(80, UvConfig::default());
        let stats = sys.apply(UpdateBatch::new()).unwrap();
        assert_eq!(stats.epoch, 0);
        assert_eq!(sys.index().epoch(), 0);
        // Delete + identical reinsert nets to nothing.
        let original = ds.objects[5].clone();
        let stats = sys
            .apply(UpdateBatch::new().delete(5).insert(original))
            .unwrap();
        assert_eq!(stats.inserted + stats.deleted + stats.moved, 0);
        assert_eq!(sys.index().epoch(), 0);
        // A move to the same position is also a net no-op.
        let c = ds.objects[9].center();
        let stats = sys.move_object(9, c).unwrap();
        assert_eq!(stats.moved, 0);
        assert_eq!(sys.index().epoch(), 0);
    }

    #[test]
    fn validation_rejects_bad_ops_without_mutating() {
        let (_, mut sys) = system(60, UvConfig::default());
        let before = canonical_leaves(&sys);
        assert_eq!(
            sys.delete_object(999).unwrap_err(),
            UvError::UnknownObject(999)
        );
        assert_eq!(
            sys.insert_object(UncertainObject::with_uniform(
                3,
                Point::new(100.0, 100.0),
                5.0
            ))
            .unwrap_err(),
            UvError::DuplicateObject(3)
        );
        assert_eq!(
            sys.move_object(2, Point::new(f64::NAN, 0.0)).unwrap_err(),
            UvError::InvalidObject(2)
        );
        // (A negative radius cannot occur: `Circle::new` clamps it to zero.)
        assert_eq!(
            sys.insert_object(UncertainObject::with_uniform(
                700,
                Point::new(f64::INFINITY, 0.0),
                1.0
            ))
            .unwrap_err(),
            UvError::InvalidObject(700)
        );
        // A failing op later in a batch must leave earlier ops unapplied.
        let err = sys.apply(
            UpdateBatch::new()
                .delete(1)
                .move_to(55_555, Point::new(1.0, 1.0)),
        );
        assert_eq!(err.unwrap_err(), UvError::UnknownObject(55_555));
        assert_eq!(sys.objects().len(), 60);
        assert_eq!(canonical_leaves(&sys), before);
        assert_eq!(sys.index().epoch(), 0);
    }

    #[test]
    fn delete_then_reinsert_in_separate_batches_restores_state() {
        let (ds, mut sys) = system(120, UvConfig::default().with_leaf_split_capacity(24));
        let before = canonical_leaves(&sys);
        let victim = ds.objects[33].clone();
        sys.delete_object(33).unwrap();
        assert_ne!(canonical_leaves(&sys), before);
        assert_matches_cold_rebuild(&sys);
        sys.insert_object(victim).unwrap();
        assert_eq!(canonical_leaves(&sys), before);
        assert_eq!(sys.index().epoch(), 2);
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn domain_growth_extends_the_grid_in_place() {
        let (ds, mut sys) = system(80, UvConfig::default());
        let outside = UncertainObject::with_uniform(
            800,
            Point::new(ds.domain.max_x + 500.0, ds.domain.max_y + 500.0),
            10.0,
        );
        let stats = sys.insert_object(outside).unwrap();
        assert!(!stats.full_rebuild);
        assert!(stats.domain_grown);
        assert_eq!(stats.epoch, 1);
        assert!(sys
            .domain()
            .contains_rect(&sys.objects().last().unwrap().mbr()));
        assert!(sys.domain().max_x >= ds.domain.max_x + 510.0);
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn staircase_growth_amortizes_to_one_growth_event() {
        // Exponential expansion: the first just-outside insert doubles the
        // domain, which then swallows the rest of the staircase.
        let (ds, mut sys) = system(80, UvConfig::default());
        let mut growths = 0;
        for k in 1..=6u32 {
            let o = UncertainObject::with_uniform(
                800 + k,
                Point::new(ds.domain.max_x + f64::from(k) * 50.0, 5_000.0),
                5.0,
            );
            let stats = sys.insert_object(o).unwrap();
            assert!(!stats.full_rebuild);
            growths += usize::from(stats.domain_grown);
        }
        assert_eq!(growths, 1, "staircase must not grow on every step");
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn budget_bound_index_repairs_in_place() {
        // A tiny non-leaf budget makes canonical budget allocation
        // order-dependent; the updater repairs unbounded and then replays
        // the cold build's preorder allocation instead of rebuilding.
        let (_, mut sys) = system(
            400,
            UvConfig::default()
                .with_max_nonleaf(1)
                .with_leaf_split_capacity(16),
        );
        assert!(sys.index().num_nonleaf_nodes() <= 1);
        let stats = sys.move_object(0, Point::new(5_001.0, 5_002.0)).unwrap();
        assert!(!stats.full_rebuild);
        assert!(!stats.domain_grown);
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn deleting_everything_leaves_an_empty_working_system() {
        let (_, mut sys) = system(60, UvConfig::default());
        let mut batch = UpdateBatch::new();
        for id in 0..60u32 {
            batch = batch.delete(id);
        }
        let stats = sys.apply(batch).unwrap();
        assert_eq!(stats.deleted, 60);
        assert!(sys.objects().is_empty());
        assert_eq!(sys.index().num_leaf_nodes(), 1);
        assert!(sys
            .pnn(Point::new(5_000.0, 5_000.0))
            .probabilities
            .is_empty());
        // And the system accepts new objects again.
        sys.insert_object(UncertainObject::with_uniform(
            0,
            Point::new(4_000.0, 4_000.0),
            20.0,
        ))
        .unwrap();
        assert_eq!(sys.objects().len(), 1);
        assert!(!sys
            .pnn(Point::new(5_000.0, 5_000.0))
            .probabilities
            .is_empty());
        assert_matches_cold_rebuild(&sys);
    }

    #[test]
    fn update_stats_report_locality_counters() {
        let (_, mut sys) = system(300, UvConfig::default().with_leaf_split_capacity(16));
        let total = sys.index().num_leaf_nodes();
        assert!(total > 10, "fixture must split into many leaves");
        let stats = sys.move_object(7, Point::new(5_050.0, 5_050.0)).unwrap();
        assert!(!stats.full_rebuild);
        assert!(stats.objects_rederived >= 1);
        assert!(stats.leaves_refined >= 1);
        assert!(stats.leaves_refined < total);
        assert!(stats.refine_fraction() < 1.0);
        assert_eq!(stats.total_leaves, sys.index().num_leaf_nodes());
        assert_matches_cold_rebuild(&sys);
    }
}
