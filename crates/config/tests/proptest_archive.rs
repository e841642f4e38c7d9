//! Property-based tests for the delta-encoded archive and the naming
//! helpers: delta apply/revert must be exact inverses on arbitrary line
//! sequences, arbitrary snapshot sequences must reconstruct bit-for-bit,
//! the delta engine's state dedup must equal full-text dedup, and
//! interface names must round-trip through both dialects' renderers.

use mpa_config::render::{interface_name, parse_interface_name};
use mpa_config::snapshot::{Login, Snapshot, SnapshotMeta};
use mpa_config::{DeltaInference, LineClasses, LineDelta, LineId, SnapshotArchive};
use mpa_model::device::Dialect;
use mpa_model::{DeviceId, Timestamp};
use proptest::prelude::*;
use std::collections::HashMap;

/// Arbitrary line-id sequences (small alphabet so prefixes/suffixes collide
/// often — the interesting regime for hunk trimming).
fn arb_ids() -> impl Strategy<Value = Vec<LineId>> {
    proptest::collection::vec((0u32..12).prop_map(LineId), 0..24)
}

/// Arbitrary snapshot texts from a small line alphabet, with and without a
/// trailing newline, including empty texts and blank interior lines.
fn arb_text() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        Just(String::new()),
        (0u8..8).prop_map(|i| format!("line {i}")),
        (0u8..8).prop_map(|i| format!(" indented {i}")),
    ];
    (proptest::collection::vec(line, 0..10), any::<bool>()).prop_map(|(lines, trail)| {
        let mut t = lines.join("\n");
        if trail && !t.is_empty() {
            t.push('\n');
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delta_apply_then_revert_is_identity(old in arb_ids(), new in arb_ids()) {
        let d = LineDelta::between(&old, &new);
        let mut cur = old.clone();
        d.apply(&mut cur);
        prop_assert_eq!(&cur, &new, "apply must produce the target sequence");
        d.revert(&mut cur);
        prop_assert_eq!(&cur, &old, "revert must restore the source sequence");
    }

    #[test]
    fn delta_between_identical_sequences_is_empty(ids in arb_ids()) {
        prop_assert!(LineDelta::between(&ids, &ids).is_empty());
    }

    #[test]
    fn archive_reconstructs_arbitrary_texts_exactly(
        texts in proptest::collection::vec(arb_text(), 1..12),
    ) {
        let mut archive = SnapshotArchive::new();
        for (i, text) in texts.iter().enumerate() {
            archive.push(Snapshot {
                meta: SnapshotMeta {
                    device: DeviceId(1),
                    time: Timestamp(i as u64),
                    login: Login::new("p"),
                },
                text: text.clone(),
            }).unwrap();
        }
        let back = archive.device_texts(DeviceId(1));
        prop_assert_eq!(&back, &texts, "bit-for-bit reconstruction");
        // And the random-access path agrees with the replay path.
        for (i, text) in texts.iter().enumerate() {
            let snap = archive.latest_at(DeviceId(1), Timestamp(i as u64)).unwrap();
            prop_assert_eq!(&snap.text, text);
        }
        prop_assert_eq!(archive.total_bytes(), texts.iter().map(String::len).sum::<usize>());
    }

    #[test]
    fn delta_engine_state_dedup_agrees_with_full_text_dedup(
        texts in proptest::collection::vec(arb_text(), 1..10),
        reverts in proptest::collection::vec(0usize..10, 0..8),
    ) {
        // History = arbitrary texts followed by arbitrary reverts to
        // earlier states (the regime where dedup actually fires); the
        // small alphabet in `arb_text` also makes two independently drawn
        // texts collide often. This dedup alone backs the
        // `parse_cache_hits`/`parse_cache_misses` counters.
        let mut history: Vec<String> = texts.clone();
        history.extend(reverts.iter().map(|&r| texts[r % texts.len()].clone()));
        let mut archive = SnapshotArchive::new();
        for (i, text) in history.iter().enumerate() {
            archive.push(Snapshot {
                meta: SnapshotMeta {
                    device: DeviceId(1),
                    time: Timestamp(i as u64),
                    login: Login::new("p"),
                },
                text: text.clone(),
            }).unwrap();
        }

        // Reference canonicalization: full-text first-seen dedup over the
        // materializing replay path.
        let full = archive.device_texts(DeviceId(1));
        let mut first: HashMap<&str, u32> = HashMap::new();
        let mut canon_ref: Vec<u32> = Vec::new();
        for t in &full {
            let next = first.len() as u32;
            canon_ref.push(*first.entry(t.as_str()).or_insert(next));
        }

        let classes = LineClasses::new(&archive);
        for dialect in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
            let mut engine = DeltaInference::new(&archive, &classes);
            let replay = engine.replay_device(DeviceId(1), dialect).unwrap();
            prop_assert_eq!(replay.n_snapshots(), full.len());
            let canon: Vec<u32> = (0..full.len()).map(|ix| replay.slot(ix)).collect();
            prop_assert_eq!(&canon, &canon_ref, "line-id dedup must equal text dedup");
            prop_assert_eq!(replay.n_distinct(), first.len());
            // A device absent from the archive yields no replay.
            prop_assert!(engine.replay_device(DeviceId(9), dialect).is_none());
        }
    }

    #[test]
    fn interface_name_round_trips_in_both_dialects(port in 0u16..u16::MAX) {
        for dialect in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
            let name = interface_name(dialect, port);
            prop_assert_eq!(
                parse_interface_name(&name),
                Some(port),
                "{:?}: {}",
                dialect,
                name
            );
        }
    }
}
