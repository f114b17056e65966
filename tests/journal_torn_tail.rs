//! Torn-tail property: however the WAL or snapshot file is cut or
//! corrupted, `Journal::open` either recovers a valid prefix of the
//! record stream or reports a typed [`JournalError`] — it never panics
//! and never fabricates records.
//!
//! The crash model is a kill mid-`write(2)`: the on-disk file is an
//! arbitrary prefix of what the writer intended (truncation), possibly
//! with a damaged sector (bit flip). Both are enumerated exhaustively
//! over two reference journals of varied-size records: a fresh WAL, and
//! a segmented journal — a snapshot (the sealed prefix) beside the WAL
//! that replaced the one it covers, whose header starts past sequence 0.

use ptrider::{Journal, JournalConfig, JournalError};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptrider-torn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Payload `i` of a reference journal: varied sizes, content tied to `i`.
fn payload(i: u64) -> Vec<u8> {
    let len = 3 + (i * 11) % 40;
    (0..len)
        .map(|k| (k as u8).wrapping_mul(31).wrapping_add(i as u8 ^ 0x5a))
        .collect()
}

/// The snapshot payload of the segmented reference journal.
const SNAPSHOT_PAYLOAD: &[u8] = b"snapshot state";
/// Records the segmented reference journal's snapshot covers.
const SEALED: u64 = 3;

/// A reference journal and what recovery from it may yield: a prefix of
/// `payloads`, numbered from `first_seq`.
struct Reference {
    name: &'static str,
    first_seq: u64,
    payloads: Vec<Vec<u8>>,
    wal: Vec<u8>,
    /// The snapshot file that sits beside the WAL, if one was taken.
    snapshot: Option<Vec<u8>>,
}

/// A fresh journal of `n` records: one WAL starting at sequence 0.
fn fresh(n: u64) -> Reference {
    build("fresh", None, n)
}

/// A segmented journal of `n` WAL records: a snapshot after [`SEALED`]
/// records replaced the WAL, so the WAL header starts at sequence
/// [`SEALED`].
fn segmented(n: u64) -> Reference {
    build("segmented", Some(SEALED), n)
}

fn build(name: &'static str, before_snapshot: Option<u64>, n: u64) -> Reference {
    let dir = temp_dir(&format!("reference-{name}"));
    let mut journal = Journal::create(&dir, JournalConfig::default()).unwrap();
    let mut first_seq = 0;
    if let Some(k) = before_snapshot {
        for i in 0..k {
            journal.append(&payload(100 + i)).unwrap();
        }
        first_seq = journal.write_snapshot(SNAPSHOT_PAYLOAD).unwrap();
        assert_eq!(first_seq, k);
    }
    let mut payloads = Vec::new();
    for i in 0..n {
        assert_eq!(journal.append(&payload(i)).unwrap(), first_seq + i);
        payloads.push(payload(i));
    }
    journal.sync().unwrap();
    drop(journal);
    let reference = Reference {
        name,
        first_seq,
        payloads,
        wal: std::fs::read(dir.join("wal.bin")).unwrap(),
        snapshot: std::fs::read(dir.join("snapshot.bin")).ok(),
    };
    let _ = std::fs::remove_dir_all(&dir);
    reference
}

/// A directory holding `reference`'s snapshot file, if it has one.
fn dir_for(reference: &Reference, tag: &str) -> PathBuf {
    let dir = temp_dir(&format!("{tag}-{}", reference.name));
    if let Some(snapshot) = &reference.snapshot {
        std::fs::write(dir.join("snapshot.bin"), snapshot).unwrap();
    }
    dir
}

/// Opens `dir` with `wal` as its WAL and checks the prefix property
/// against `reference`; returns how many records survived (or `None` for
/// a typed error).
fn open_and_check(dir: &PathBuf, reference: &Reference, wal: &[u8], label: &str) -> Option<usize> {
    std::fs::write(dir.join("wal.bin"), wal).unwrap();
    match Journal::open(dir, JournalConfig::default()) {
        Ok((recovered, journal)) => {
            assert!(
                recovered.ops.len() <= reference.payloads.len(),
                "{label}: more records than were written"
            );
            for (i, (seq, payload)) in recovered.ops.iter().enumerate() {
                assert_eq!(
                    *seq,
                    reference.first_seq + i as u64,
                    "{label}: sequence gap"
                );
                assert_eq!(
                    payload, &reference.payloads[i],
                    "{label}: record {i} altered"
                );
            }
            assert_eq!(
                journal.next_seq(),
                reference.first_seq + recovered.ops.len() as u64,
                "{label}: journal must resume where the valid prefix ends"
            );
            // A recovered journal keeps its sealed prefix whole: the
            // snapshot comes back verbatim or the open is refused.
            let expected_snapshot = reference
                .snapshot
                .as_ref()
                .map(|_| (reference.first_seq, SNAPSHOT_PAYLOAD.to_vec()));
            assert_eq!(
                recovered.snapshot, expected_snapshot,
                "{label}: snapshot altered"
            );
            Some(recovered.ops.len())
        }
        // A typed refusal is a legal outcome; a panic is not.
        Err(JournalError::Corrupt(_)) | Err(JournalError::Io(_)) => None,
    }
}

#[test]
fn truncation_at_every_byte_yields_a_valid_prefix_or_a_typed_error() {
    let reference = fresh(8);
    let dir = dir_for(&reference, "truncate");
    let bytes = &reference.wal;
    let mut recovered_counts = Vec::new();
    for cut in 0..=bytes.len() {
        let label = format!("cut at {cut}/{}", bytes.len());
        if let Some(n) = open_and_check(&dir, &reference, &bytes[..cut], &label) {
            recovered_counts.push(n);
        }
    }
    // Monotone recovery: longer prefixes never recover fewer records,
    // and the full file recovers everything.
    assert!(recovered_counts.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(recovered_counts.last(), Some(&reference.payloads.len()));
    assert_eq!(recovered_counts.first(), Some(&0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_byte_never_panics_and_never_fabricates_records() {
    let reference = fresh(6);
    let dir = dir_for(&reference, "bitflip");
    for pos in 0..reference.wal.len() {
        let mut damaged = reference.wal.clone();
        damaged[pos] ^= 0x40;
        let label = format!("flip at {pos}/{}", damaged.len());
        // The checksum stops the scan at (or before) the damaged record;
        // every record the open does return is a verbatim prefix.
        let _ = open_and_check(&dir, &reference, &damaged, &label);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncating_the_active_wal_of_a_segmented_journal_keeps_the_sealed_prefix() {
    let reference = segmented(8);
    let dir = dir_for(&reference, "segmented-active-cut");
    let bytes = &reference.wal;
    let mut recovered_counts = Vec::new();
    for cut in 0..=bytes.len() {
        let label = format!("active cut at {cut}/{}", bytes.len());
        // A torn active WAL never costs the sealed prefix: every cut
        // opens, with the snapshot intact.
        let n = open_and_check(&dir, &reference, &bytes[..cut], &label)
            .unwrap_or_else(|| panic!("{label}: sealed prefix refused"));
        recovered_counts.push(n);
    }
    assert!(recovered_counts.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(recovered_counts.last(), Some(&reference.payloads.len()));
    assert_eq!(recovered_counts.first(), Some(&0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flips_across_a_segmented_journal_never_panic_or_fabricate() {
    let reference = segmented(6);
    let snapshot = reference.snapshot.clone().expect("a snapshot was taken");
    let dir = dir_for(&reference, "segmented-bitflip");
    for pos in 0..snapshot.len() {
        let mut damaged = snapshot.clone();
        damaged[pos] ^= 0x40;
        std::fs::write(dir.join("snapshot.bin"), &damaged).unwrap();
        let label = format!("snapshot flip at {pos}/{}", damaged.len());
        let _ = open_and_check(&dir, &reference, &reference.wal, &label);
    }
    std::fs::write(dir.join("snapshot.bin"), &snapshot).unwrap();
    for pos in 0..reference.wal.len() {
        let mut damaged = reference.wal.clone();
        damaged[pos] ^= 0x40;
        let label = format!("active flip at {pos}/{}", damaged.len());
        let _ = open_and_check(&dir, &reference, &damaged, &label);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_snapshot_is_refused_with_a_typed_error_not_a_panic() {
    // Build a journal with records and a snapshot, then cut snapshot.bin
    // at every byte. Open must return the intact snapshot (full length),
    // a typed error (torn), or — for a zero-length file the rename never
    // completed on — anything but a panic.
    let dir = temp_dir("snapcut");
    let mut journal = Journal::create(&dir, JournalConfig::default()).unwrap();
    for i in 0..5u64 {
        journal.append(&[i as u8; 9]).unwrap();
    }
    let snapshot_payload = b"snapshot state image".to_vec();
    assert_eq!(journal.write_snapshot(&snapshot_payload).unwrap(), 5);
    journal.append(&[0xEE; 4]).unwrap();
    journal.sync().unwrap();
    drop(journal);
    let snap_bytes = std::fs::read(dir.join("snapshot.bin")).unwrap();

    for cut in 0..=snap_bytes.len() {
        std::fs::write(dir.join("snapshot.bin"), &snap_bytes[..cut]).unwrap();
        match Journal::open(&dir, JournalConfig::default()) {
            Ok((recovered, _journal)) => {
                let (watermark, payload) = recovered
                    .snapshot
                    .expect("an openable snapshot file is the intact one");
                assert_eq!(cut, snap_bytes.len(), "only the full file is intact");
                assert_eq!(watermark, 5);
                assert_eq!(payload, snapshot_payload);
                // The snapshot replaced the WAL that held the five covered
                // records; only the post-snapshot record remains.
                assert_eq!(recovered.ops.len(), 1, "the post-snapshot tail replays");
                assert_eq!(recovered.ops[0].0, 5);
            }
            Err(JournalError::Corrupt(_)) | Err(JournalError::Io(_)) => {
                assert_ne!(cut, snap_bytes.len(), "the intact file must open");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
