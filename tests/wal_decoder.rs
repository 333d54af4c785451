//! Hostile-input properties of the write-ahead log decoder.
//!
//! Recovery and replica apply decode log frames that a crash may have
//! torn and that a replica receives over the network, so
//! [`wal::decode_frame`] and the record codec under it must accept
//! exactly what the encoder writes and turn everything else into a
//! clean rejection: no panic, and no allocation larger than the bytes at
//! hand could describe. The cases: every event kind round-trips,
//! truncation at every byte, single-byte flips, and random bytes. A log
//! written in the version-1 format is refused with a classified error.

use insightnotes::common::codec::Encodable;
use insightnotes::common::crc32;
use insightnotes::engine::wal::{self, AnnotationEvent, TargetGroup, WalRecord};
use insightnotes::engine::{DbConfig, ShardedDatabase, SyncPolicy};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

// -- allocation watch ------------------------------------------------------

/// Records the largest single allocation made on the current thread.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the bookkeeping is a const-initialized thread-local `Cell` that
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// The most one decode may allocate at once for `payload_len` input
/// bytes: every element of every sequence takes at least one input
/// byte, and the largest element is an [`AnnotationEvent`].
fn allocation_bound(payload_len: usize) -> usize {
    (payload_len + 1) * std::mem::size_of::<AnnotationEvent>()
}

/// Runs `f` and returns its result with the largest single allocation
/// it made.
fn watched<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// Decodes `bytes` both as a frame and as a bare record payload,
/// checking that neither allocates beyond what `bytes` allows.
fn decode_bounded(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    let (frame, largest) = watched(|| wal::decode_frame(bytes));
    assert!(
        largest <= allocation_bound(bytes.len()),
        "frame decode of {} bytes allocated {largest}",
        bytes.len()
    );
    let (_, largest) = watched(|| WalRecord::from_bytes(bytes));
    assert!(
        largest <= allocation_bound(bytes.len()),
        "record decode of {} bytes allocated {largest}",
        bytes.len()
    );
    frame
}

fn frame(record: &WalRecord) -> Vec<u8> {
    let payload = record.to_bytes();
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// -- strategies ------------------------------------------------------------

fn text() -> impl Strategy<Value = String> {
    ".{0,12}"
}

fn maybe_text() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), text()).prop_map(|(some, t)| some.then_some(t))
}

fn group() -> impl Strategy<Value = TargetGroup> {
    (
        "[a-z]{1,6}",
        prop::collection::vec(any::<u64>(), 0..4),
        any::<u64>(),
    )
        .prop_map(|(table, rows, cols)| TargetGroup { table, rows, cols })
}

fn event() -> impl Strategy<Value = AnnotationEvent> {
    prop_oneof![
        (
            (any::<u64>(), any::<u64>()),
            prop::collection::vec(group(), 0..3),
            text(),
            maybe_text(),
            text(),
        )
            .prop_map(|((id, tick), targets, text, document, author)| {
                AnnotationEvent::Add {
                    id,
                    tick,
                    targets,
                    text,
                    document,
                    author,
                }
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(id, tick)| AnnotationEvent::Retract { id, tick }),
        (any::<u64>(), any::<u64>(), maybe_text())
            .prop_map(|(id, tick, note)| AnnotationEvent::Flag { id, tick, note }),
        (
            (any::<u64>(), any::<u64>(), any::<u64>()),
            text(),
            maybe_text(),
            maybe_text(),
        )
            .prop_map(|((id, successor, tick), text, document, author)| {
                AnnotationEvent::Correct {
                    id,
                    successor,
                    tick,
                    text,
                    document,
                    author,
                }
            }),
        any::<u64>().prop_map(|id| AnnotationEvent::Delete { id }),
    ]
}

fn record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        text().prop_map(|sql| WalRecord::Script { sql }),
        prop::collection::vec(event(), 0..6).prop_map(|events| WalRecord::Stamped { events }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_record_round_trips(record in record()) {
        let bytes = frame(&record);
        prop_assert_eq!(decode_bounded(&bytes), Some((record, bytes.len())));
    }

    #[test]
    fn truncation_at_every_byte_is_rejected(record in record()) {
        let bytes = frame(&record);
        let payload = &bytes[8..];
        for cut in 0..bytes.len() {
            prop_assert!(decode_bounded(&bytes[..cut]).is_none(), "frame cut at {}", cut);
        }
        for cut in 0..payload.len() {
            prop_assert!(
                WalRecord::from_bytes(&payload[..cut]).is_err(),
                "payload cut at {}", cut
            );
        }
    }

    #[test]
    fn single_byte_flips_are_rejected(record in record(), flip in 1u8..=255) {
        let bytes = frame(&record);
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= flip;
            // The CRC catches every single-byte change to the frame.
            prop_assert!(decode_bounded(&bad).is_none(), "flip at {}", at);
            // Past the CRC, the codec alone must still fail cleanly or
            // decode something; it must not panic or over-allocate.
            let mut payload = bytes[8..].to_vec();
            if let Some(b) = payload.get_mut(at) {
                *b ^= flip;
            }
            let _ = decode_bounded(&payload);
        }
    }

    #[test]
    fn random_bytes_never_panic_or_overallocate(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = decode_bounded(&bytes);
        // The same bytes behind a valid length and CRC reach the codec.
        let mut framed = (bytes.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&crc32(&bytes).to_le_bytes());
        framed.extend_from_slice(&bytes);
        let _ = decode_bounded(&framed);
    }
}

/// Length prefixes claiming far more items than the payload holds must
/// not turn into matching preallocations.
#[test]
fn huge_length_prefixes_do_not_preallocate() {
    let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f];
    for prefix in [
        vec![2u8],                // Stamped { events: <count> … }
        vec![2u8, 1, 1, 0, 0, 1], // first Add event's target groups
        vec![1u8],                // Script { sql: <length> … }
    ] {
        let mut payload = prefix;
        payload.extend_from_slice(&huge);
        let (decoded, largest) = watched(|| WalRecord::from_bytes(&payload));
        assert!(decoded.is_err());
        assert!(
            largest <= allocation_bound(payload.len()),
            "{payload:?} allocated {largest}"
        );
    }
}

// -- format version --------------------------------------------------------

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("insightnotes-waldec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A log whose header says version 1 predates typed annotation events;
/// recovery refuses it with a classified error instead of guessing, at
/// every shard count.
#[test]
fn version_one_logs_are_refused_by_recovery() {
    for shards in [1usize, 4] {
        let dir = scratch(&format!("v1-{shards}"));
        let config = DbConfig {
            wal_dir: Some(dir.join("wal")),
            wal_sync: SyncPolicy::Batch,
            ..DbConfig::default()
        };
        {
            let db = ShardedDatabase::create(config.clone(), shards).unwrap();
            db.execute_sql("CREATE TABLE t (p INT); INSERT INTO t VALUES (1)")
                .unwrap();
            db.execute_sql("ADD ANNOTATION 'x' ON t").unwrap();
            db.wal_sync_all().unwrap();
        }
        for k in 0..shards {
            let log = wal::Wal::path_in(&dir.join("wal").join(format!("shard-{k}")));
            let mut bytes = std::fs::read(&log).unwrap();
            bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
            std::fs::write(&log, bytes).unwrap();
        }
        let err = ShardedDatabase::recover(None, config, shards).unwrap_err();
        assert_eq!(err.class(), "codec", "{shards} shard(s): {err}");
        assert!(err.to_string().contains("version 1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
