//! The annotation store: id allocation, bodies, and the attachment index.

use crate::index::AttachmentIndex;
use crate::model::{
    Annotation, AnnotationBody, AnnotationStatus, ColSig, LifecycleEvent, LifecycleKind, Target,
};
use insightnotes_common::{codec, AnnotationId, Error, Result, RowId, TableId};
use std::collections::HashMap;

/// Aggregate statistics, consumed by the compression experiment (F1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of stored (live) annotations.
    pub count: usize,
    /// Total live content bytes (text + documents).
    pub content_bytes: usize,
    /// Total live `(row, annotation)` attachment pairs.
    pub attachments: usize,
    /// Number of tombstoned (retracted/corrected) annotations.
    pub retired: usize,
}

/// Owns every raw annotation in a database instance.
///
/// Annotations are either **live** (indexed, visible to queries and
/// summaries) or **tombstoned** (retracted or corrected: detached from
/// the attachment index and from summary maintenance, but their bodies
/// and targets are retained so `HISTORY` and `AS OF` can replay the
/// timeline). `DELETE ANNOTATION` remains the destructive path: it
/// erases the annotation *and* its timeline.
#[derive(Debug, Default)]
pub struct AnnotationStore {
    annotations: HashMap<AnnotationId, Annotation>,
    /// Bodies of retracted/corrected annotations, keyed by id. Disjoint
    /// from `annotations` — a tombstoned id is never live again.
    tombstones: HashMap<AnnotationId, Annotation>,
    /// Lifecycle timelines, in event order. Only annotations a curator
    /// flagged/retracted/corrected have an entry (creation is recorded
    /// by the body's `created` tick).
    events: HashMap<AnnotationId, Vec<LifecycleEvent>>,
    index: AttachmentIndex,
    next_id: u64,
    content_bytes: usize,
}

impl AnnotationStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores an annotation with its targets, returning the new id.
    ///
    /// Fails if `targets` is empty (an unattached annotation is
    /// unreachable) or if any target has an empty column signature.
    pub fn add(&mut self, body: AnnotationBody, targets: Vec<Target>) -> Result<AnnotationId> {
        if targets.is_empty() {
            return Err(Error::Annotation(
                "annotation must have at least one target".into(),
            ));
        }
        if targets.iter().any(|t| t.cols.is_empty()) {
            return Err(Error::Annotation(
                "annotation target must cover at least one column".into(),
            ));
        }
        self.next_id += 1;
        let id = AnnotationId::new(self.next_id);
        self.content_bytes += body.content_bytes();
        for t in &targets {
            self.index.attach(t.table, t.row, id, t.cols);
        }
        self.annotations.insert(id, Annotation { body, targets });
        Ok(id)
    }

    /// Stores an annotation under a caller-chosen id, advancing the
    /// allocator past it. The sharded engine routes annotations whose
    /// ids were allocated once at the router, so every shard's store
    /// must accept the same `(id, body, targets)` triple verbatim.
    ///
    /// Same validation as [`AnnotationStore::add`], plus a duplicate-id
    /// check; `next_id` is bumped to at least `id` so snapshot encoding
    /// (which requires every id ≤ `next_id`) stays valid and later
    /// [`AnnotationStore::add`] calls never collide.
    pub fn add_at(
        &mut self,
        id: AnnotationId,
        body: AnnotationBody,
        targets: Vec<Target>,
    ) -> Result<AnnotationId> {
        if targets.is_empty() {
            return Err(Error::Annotation(
                "annotation must have at least one target".into(),
            ));
        }
        if targets.iter().any(|t| t.cols.is_empty()) {
            return Err(Error::Annotation(
                "annotation target must cover at least one column".into(),
            ));
        }
        if self.annotations.contains_key(&id) || self.tombstones.contains_key(&id) {
            return Err(Error::Annotation(format!(
                "annotation id {id} already in use"
            )));
        }
        self.next_id = self.next_id.max(id.raw());
        self.content_bytes += body.content_bytes();
        for t in &targets {
            self.index.attach(t.table, t.row, id, t.cols);
        }
        self.annotations.insert(id, Annotation { body, targets });
        Ok(id)
    }

    /// The highest id the allocator has handed out (0 when empty). The
    /// shard router seeds its global id allocator from the max across
    /// shards after recovery.
    pub fn last_id(&self) -> u64 {
        self.next_id
    }

    /// Fetches an annotation by id.
    pub fn get(&self, id: AnnotationId) -> Result<&Annotation> {
        self.annotations
            .get(&id)
            .ok_or_else(|| Error::Annotation(format!("unknown annotation {id}")))
    }

    /// Every live annotation, in no particular order.
    pub fn live(&self) -> impl Iterator<Item = (AnnotationId, &Annotation)> {
        self.annotations.iter().map(|(id, ann)| (*id, ann))
    }

    /// Fetches several annotations, preserving order. Unknown ids error.
    pub fn get_many(
        &self,
        ids: impl IntoIterator<Item = AnnotationId>,
    ) -> Result<Vec<&Annotation>> {
        ids.into_iter().map(|id| self.get(id)).collect()
    }

    /// Removes an annotation everywhere, timeline included (the
    /// destructive path behind `DELETE ANNOTATION` — for the recoverable
    /// alternative see [`AnnotationStore::retract`]).
    pub fn remove(&mut self, id: AnnotationId) -> Result<Annotation> {
        let ann = self
            .annotations
            .remove(&id)
            .ok_or_else(|| Error::Annotation(format!("unknown annotation {id}")))?;
        self.content_bytes -= ann.body.content_bytes();
        for t in &ann.targets {
            self.index.detach(t.table, t.row, id);
        }
        self.events.remove(&id);
        Ok(ann)
    }

    /// Flags a live annotation for review at tick `at`. The annotation
    /// stays live — a flag is a curator marker, not a removal.
    pub fn flag(&mut self, id: AnnotationId, note: Option<String>, at: u64) -> Result<()> {
        self.require_live(id)?;
        self.events.entry(id).or_default().push(LifecycleEvent {
            kind: LifecycleKind::Flagged,
            at,
            note,
            successor: None,
        });
        Ok(())
    }

    /// Retracts a live annotation at tick `at`: it leaves the attachment
    /// index (queries and summary maintenance stop seeing it) but its
    /// body, targets, and timeline persist as a tombstone. Returns a
    /// clone of the annotation so the caller can decrementally remove
    /// its summary effects.
    pub fn retract(&mut self, id: AnnotationId, at: u64) -> Result<Annotation> {
        self.retire(
            id,
            LifecycleEvent {
                kind: LifecycleKind::Retracted,
                at,
                note: None,
                successor: None,
            },
        )
    }

    /// Tombstones a live annotation as superseded by `successor` at tick
    /// `at`. Mechanically a retract, but the timeline records the
    /// supersession link so `HISTORY` can walk correction chains.
    pub fn correct(
        &mut self,
        id: AnnotationId,
        successor: AnnotationId,
        at: u64,
    ) -> Result<Annotation> {
        self.retire(
            id,
            LifecycleEvent {
                kind: LifecycleKind::Corrected,
                at,
                note: None,
                successor: Some(successor),
            },
        )
    }

    fn retire(&mut self, id: AnnotationId, event: LifecycleEvent) -> Result<Annotation> {
        self.require_live(id)?;
        let ann = self.annotations.remove(&id).expect("checked live");
        self.content_bytes -= ann.body.content_bytes();
        for t in &ann.targets {
            self.index.detach(t.table, t.row, id);
        }
        self.events.entry(id).or_default().push(event);
        self.tombstones.insert(id, ann.clone());
        Ok(ann)
    }

    fn require_live(&self, id: AnnotationId) -> Result<()> {
        if self.annotations.contains_key(&id) {
            return Ok(());
        }
        if let Some(status) = self.tombstone_status(id) {
            return Err(Error::Annotation(format!(
                "annotation {id} is already {status}"
            )));
        }
        Err(Error::Annotation(format!("unknown annotation {id}")))
    }

    /// The annotation's current lifecycle state; errors only for ids the
    /// store has never seen (or that were hard-deleted).
    pub fn status(&self, id: AnnotationId) -> Result<AnnotationStatus> {
        if self.annotations.contains_key(&id) {
            let flagged = self
                .events
                .get(&id)
                .is_some_and(|evs| evs.iter().any(|e| e.kind == LifecycleKind::Flagged));
            return Ok(if flagged {
                AnnotationStatus::Flagged
            } else {
                AnnotationStatus::Active
            });
        }
        self.tombstone_status(id)
            .ok_or_else(|| Error::Annotation(format!("unknown annotation {id}")))
    }

    fn tombstone_status(&self, id: AnnotationId) -> Option<AnnotationStatus> {
        if !self.tombstones.contains_key(&id) {
            return None;
        }
        let corrected = self
            .events
            .get(&id)
            .is_some_and(|evs| evs.iter().any(|e| e.kind == LifecycleKind::Corrected));
        Some(if corrected {
            AnnotationStatus::Corrected
        } else {
            AnnotationStatus::Retracted
        })
    }

    /// The annotation's full timeline: a synthesized `Created` event
    /// (from the body's `created` tick), then every recorded lifecycle
    /// event in order. Works for live and tombstoned annotations alike.
    pub fn history(&self, id: AnnotationId) -> Result<Vec<LifecycleEvent>> {
        let ann = self.get_any(id)?;
        let mut out = vec![LifecycleEvent {
            kind: LifecycleKind::Created,
            at: ann.body.created,
            note: None,
            successor: None,
        }];
        if let Some(evs) = self.events.get(&id) {
            out.extend(evs.iter().cloned());
        }
        Ok(out)
    }

    /// Fetches an annotation whether live or tombstoned — the `HISTORY`
    /// and `AS OF` paths, which must read retracted bodies.
    pub fn get_any(&self, id: AnnotationId) -> Result<&Annotation> {
        self.annotations
            .get(&id)
            .or_else(|| self.tombstones.get(&id))
            .ok_or_else(|| Error::Annotation(format!("unknown annotation {id}")))
    }

    /// Whether `id` names a live (non-tombstoned) annotation.
    pub fn is_live(&self, id: AnnotationId) -> bool {
        self.annotations.contains_key(&id)
    }

    /// The tick at which `id` was retracted/corrected, if it was.
    pub fn retired_at(&self, id: AnnotationId) -> Option<u64> {
        self.events.get(&id).and_then(|evs| {
            evs.iter()
                .find(|e| matches!(e.kind, LifecycleKind::Retracted | LifecycleKind::Corrected))
                .map(|e| e.at)
        })
    }

    /// Every annotation visible at logical tick `t`: created at or
    /// before `t` and not yet retired at `t`. Hard-deleted annotations
    /// are gone from history entirely (documented `DELETE` semantics).
    /// Sorted by id for deterministic reconstruction.
    pub fn as_of(&self, t: u64) -> Vec<(AnnotationId, &Annotation)> {
        let mut out: Vec<(AnnotationId, &Annotation)> = self
            .annotations
            .iter()
            .chain(self.tombstones.iter())
            .filter(|(id, ann)| {
                ann.body.created <= t && self.retired_at(**id).is_none_or(|r| r > t)
            })
            .map(|(id, ann)| (*id, ann))
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Attachments on a row: `(annotation id, column signature)` pairs in
    /// attachment order.
    pub fn on_row(&self, table: TableId, row: RowId) -> &[(AnnotationId, ColSig)] {
        self.index.on_row(table, row)
    }

    /// Number of annotations attached to a row.
    pub fn count_on_row(&self, table: TableId, row: RowId) -> usize {
        self.index.count_on_row(table, row)
    }

    /// Drops all attachments for a deleted row; annotations attached
    /// *only* to that row are removed entirely.
    pub fn clear_row(&mut self, table: TableId, row: RowId) {
        for (id, _) in self.index.clear_row(table, row) {
            if let Some(ann) = self.annotations.get_mut(&id) {
                ann.targets.retain(|t| !(t.table == table && t.row == row));
                if ann.targets.is_empty() {
                    let ann = self.annotations.remove(&id).expect("present");
                    self.content_bytes -= ann.body.content_bytes();
                }
            }
        }
    }

    /// Rows of `table` carrying at least one annotation.
    pub fn annotated_rows(&self, table: TableId) -> Vec<RowId> {
        let mut rows: Vec<RowId> = self.index.annotated_rows(table).collect();
        rows.sort_unstable();
        rows
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            count: self.annotations.len(),
            content_bytes: self.content_bytes,
            attachments: self.index.total_attachments(),
            retired: self.tombstones.len(),
        }
    }
}

impl codec::Encodable for AnnotationStore {
    fn encode(&self, enc: &mut codec::Encoder) {
        enc.varint(self.next_id);
        // Annotations in id order for deterministic snapshots.
        let mut ids: Vec<AnnotationId> = self.annotations.keys().copied().collect();
        ids.sort_unstable();
        enc.varint(ids.len() as u64);
        for id in ids {
            enc.varint(id.raw());
            self.annotations[&id].encode(enc);
        }
        // Tombstones and timelines, id-sorted for the same determinism.
        let mut ids: Vec<AnnotationId> = self.tombstones.keys().copied().collect();
        ids.sort_unstable();
        enc.varint(ids.len() as u64);
        for id in ids {
            enc.varint(id.raw());
            self.tombstones[&id].encode(enc);
        }
        let mut ids: Vec<AnnotationId> = self.events.keys().copied().collect();
        ids.sort_unstable();
        enc.varint(ids.len() as u64);
        for id in ids {
            enc.varint(id.raw());
            enc.seq(&self.events[&id], |e, ev| ev.encode(e));
        }
    }

    fn decode(dec: &mut codec::Decoder<'_>) -> Result<Self> {
        let next_id = dec.varint()?;
        let n = dec.varint()? as usize;
        let mut store = AnnotationStore {
            next_id,
            ..AnnotationStore::default()
        };
        for _ in 0..n {
            let id = AnnotationId::new(dec.varint()?);
            if id.raw() > next_id {
                return Err(Error::Codec(format!(
                    "annotation id {id} above next_id {next_id}"
                )));
            }
            let ann = Annotation::decode(dec)?;
            // Rebuild the attachment index and byte stats from targets.
            store.content_bytes += ann.body.content_bytes();
            for t in &ann.targets {
                store.index.attach(t.table, t.row, id, t.cols);
            }
            if store.annotations.insert(id, ann).is_some() {
                return Err(Error::Codec(format!("duplicate annotation {id}")));
            }
        }
        let n = dec.varint()? as usize;
        for _ in 0..n {
            let id = AnnotationId::new(dec.varint()?);
            if id.raw() > next_id {
                return Err(Error::Codec(format!(
                    "tombstone id {id} above next_id {next_id}"
                )));
            }
            if store.annotations.contains_key(&id) {
                return Err(Error::Codec(format!(
                    "annotation {id} is both live and tombstoned"
                )));
            }
            let ann = Annotation::decode(dec)?;
            if store.tombstones.insert(id, ann).is_some() {
                return Err(Error::Codec(format!("duplicate tombstone {id}")));
            }
        }
        let n = dec.varint()? as usize;
        for _ in 0..n {
            let id = AnnotationId::new(dec.varint()?);
            let evs: Vec<LifecycleEvent> = dec.seq(LifecycleEvent::decode)?;
            if store.events.insert(id, evs).is_some() {
                return Err(Error::Codec(format!("duplicate timeline for {id}")));
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(1);

    fn target(row: u64, arity: usize) -> Target {
        Target::new(T, RowId(row), ColSig::whole_row(arity))
    }

    #[test]
    fn add_get_remove() {
        let mut store = AnnotationStore::new();
        let id = store
            .add(
                AnnotationBody::text("size seems wrong", "alice"),
                vec![target(1, 3)],
            )
            .unwrap();
        assert_eq!(store.get(id).unwrap().body.text, "size seems wrong");
        assert_eq!(store.stats().count, 1);
        assert_eq!(store.stats().content_bytes, "size seems wrong".len());
        store.remove(id).unwrap();
        assert!(store.get(id).is_err());
        assert_eq!(store.stats().count, 0);
        assert_eq!(store.stats().content_bytes, 0);
    }

    #[test]
    fn unattached_annotations_rejected() {
        let mut store = AnnotationStore::new();
        assert!(store.add(AnnotationBody::text("x", "a"), vec![]).is_err());
        assert!(store
            .add(
                AnnotationBody::text("x", "a"),
                vec![Target::new(T, RowId(1), ColSig::EMPTY)]
            )
            .is_err());
    }

    #[test]
    fn multi_target_annotation_visible_on_every_row() {
        let mut store = AnnotationStore::new();
        let id = store
            .add(
                AnnotationBody::text("shared provenance note", "bob"),
                vec![target(1, 3), target(2, 3)],
            )
            .unwrap();
        assert_eq!(store.on_row(T, RowId(1))[0].0, id);
        assert_eq!(store.on_row(T, RowId(2))[0].0, id);
        assert_eq!(store.stats().attachments, 2);
    }

    #[test]
    fn clear_row_removes_orphaned_annotations_only() {
        let mut store = AnnotationStore::new();
        let shared = store
            .add(
                AnnotationBody::text("shared", "a"),
                vec![target(1, 2), target(2, 2)],
            )
            .unwrap();
        let solo = store
            .add(AnnotationBody::text("solo", "a"), vec![target(1, 2)])
            .unwrap();
        store.clear_row(T, RowId(1));
        assert!(store.get(solo).is_err(), "orphaned annotation removed");
        let kept = store.get(shared).unwrap();
        assert_eq!(
            kept.targets.len(),
            1,
            "shared annotation keeps other target"
        );
        assert_eq!(store.count_on_row(T, RowId(1)), 0);
        assert_eq!(store.count_on_row(T, RowId(2)), 1);
    }

    #[test]
    fn get_many_preserves_order() {
        let mut store = AnnotationStore::new();
        let a = store
            .add(AnnotationBody::text("first", "x"), vec![target(1, 1)])
            .unwrap();
        let b = store
            .add(AnnotationBody::text("second", "x"), vec![target(1, 1)])
            .unwrap();
        let got = store.get_many([b, a]).unwrap();
        assert_eq!(got[0].body.text, "second");
        assert_eq!(got[1].body.text, "first");
        assert!(store.get_many([AnnotationId(99)]).is_err());
    }

    #[test]
    fn retract_tombstones_and_preserves_history() {
        let mut store = AnnotationStore::new();
        let mut body = AnnotationBody::text("sighting", "alice");
        body.created = 5;
        let id = store.add(body, vec![target(1, 2)]).unwrap();
        assert_eq!(store.status(id).unwrap(), AnnotationStatus::Active);

        store.flag(id, Some("needs review".into()), 7).unwrap();
        assert_eq!(store.status(id).unwrap(), AnnotationStatus::Flagged);
        assert!(store.is_live(id), "flag keeps the annotation live");
        assert_eq!(store.count_on_row(T, RowId(1)), 1);

        let retracted = store.retract(id, 9).unwrap();
        assert_eq!(retracted.body.text, "sighting");
        assert_eq!(store.status(id).unwrap(), AnnotationStatus::Retracted);
        assert!(!store.is_live(id));
        assert_eq!(store.count_on_row(T, RowId(1)), 0, "detached from index");
        assert_eq!(store.stats().count, 0);
        assert_eq!(store.stats().retired, 1);
        assert_eq!(store.stats().content_bytes, 0);
        assert_eq!(store.get_any(id).unwrap().body.text, "sighting");

        let history = store.history(id).unwrap();
        let kinds: Vec<LifecycleKind> = history.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                LifecycleKind::Created,
                LifecycleKind::Flagged,
                LifecycleKind::Retracted
            ]
        );
        assert_eq!(history[0].at, 5);
        assert_eq!(history[1].note.as_deref(), Some("needs review"));
        assert_eq!(history[2].at, 9);

        // Double retract, flag-after-retract, and re-use are rejected.
        assert!(store.retract(id, 10).is_err());
        assert!(store.flag(id, None, 10).is_err());
        assert!(store
            .add_at(id, AnnotationBody::text("x", "a"), vec![target(1, 2)])
            .is_err());
    }

    #[test]
    fn correct_links_successor_and_as_of_replays_the_timeline() {
        let mut store = AnnotationStore::new();
        let mut body = AnnotationBody::text("weight 3.2", "alice");
        body.created = 1;
        let old = store.add(body, vec![target(1, 2)]).unwrap();
        let mut body = AnnotationBody::text("weight 2.3 (typo fixed)", "alice");
        body.created = 4;
        let new = store.add(body, vec![target(1, 2)]).unwrap();
        store.correct(old, new, 4).unwrap();

        assert_eq!(store.status(old).unwrap(), AnnotationStatus::Corrected);
        let history = store.history(old).unwrap();
        assert_eq!(history.last().unwrap().successor, Some(new));
        assert_eq!(store.retired_at(old), Some(4));
        assert_eq!(store.retired_at(new), None);

        // At tick 1..3 only the predecessor is visible; from 4 only the
        // correction.
        let at = |t: u64| -> Vec<AnnotationId> {
            store.as_of(t).into_iter().map(|(id, _)| id).collect()
        };
        assert_eq!(at(0), Vec::<AnnotationId>::new());
        assert_eq!(at(1), vec![old]);
        assert_eq!(at(3), vec![old]);
        assert_eq!(at(4), vec![new]);
        assert_eq!(at(99), vec![new]);
    }

    #[test]
    fn hard_delete_erases_the_timeline() {
        let mut store = AnnotationStore::new();
        let id = store
            .add(AnnotationBody::text("x", "a"), vec![target(1, 1)])
            .unwrap();
        store.flag(id, None, 2).unwrap();
        store.remove(id).unwrap();
        assert!(store.history(id).is_err());
        assert!(store.status(id).is_err());
        assert!(store.as_of(99).is_empty());
    }

    #[test]
    fn lifecycle_state_round_trips_through_the_codec() {
        use insightnotes_common::codec::{Decoder, Encodable, Encoder};
        let mut store = AnnotationStore::new();
        let mut body = AnnotationBody::text("keep", "a");
        body.created = 1;
        let keep = store.add(body, vec![target(1, 2)]).unwrap();
        let mut body = AnnotationBody::text("drop", "b");
        body.created = 2;
        let gone = store.add(body, vec![target(2, 2)]).unwrap();
        store.flag(keep, Some("check".into()), 3).unwrap();
        store.retract(gone, 4).unwrap();

        let mut enc = Encoder::with_capacity(256);
        store.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let back = AnnotationStore::decode(&mut dec).unwrap();
        assert_eq!(back.stats(), store.stats());
        assert_eq!(back.status(keep).unwrap(), AnnotationStatus::Flagged);
        assert_eq!(back.status(gone).unwrap(), AnnotationStatus::Retracted);
        assert_eq!(back.history(gone).unwrap(), store.history(gone).unwrap());
        assert_eq!(back.get_any(gone).unwrap().body.text, "drop");

        // Round-tripped bytes are identical (deterministic encode).
        let mut enc = Encoder::with_capacity(256);
        back.encode(&mut enc);
        assert_eq!(enc.finish(), bytes);
    }

    #[test]
    fn annotated_rows_sorted() {
        let mut store = AnnotationStore::new();
        store
            .add(AnnotationBody::text("x", "a"), vec![target(5, 1)])
            .unwrap();
        store
            .add(AnnotationBody::text("y", "a"), vec![target(2, 1)])
            .unwrap();
        assert_eq!(store.annotated_rows(T), vec![RowId(2), RowId(5)]);
    }
}
