//! The durable admission journal: a write-ahead log plus snapshots.
//!
//! Every state mutation that goes through [`crate::RideService`]'s single
//! admission writer appends one logical-operation record here *before* the
//! corresponding lock is released — so the journal order **is** the
//! admission order, and replaying the records through the very same engine
//! code reconstructs a bit-identical service
//! ([`crate::RideService::recover`]). A submit record carries the skyline
//! it offered, so replay applies it instead of running the matcher again.
//!
//! # On-disk layout
//!
//! A journal is a directory holding one WAL and the latest snapshot:
//!
//! * `wal.bin` — the write-ahead log: a header (`b"PTRJ"` magic and format
//!   version, plus the log's first sequence number once a snapshot has
//!   replaced it) followed by length-prefixed records
//!   `[len: u32][seq: u64][checksum: u32][payload]`, all little-endian.
//!   The checksum is FNV-1a over the sequence number and payload, so a torn
//!   or corrupted tail is detected and truncated on open — never replayed
//!   half-applied, never a panic (property-tested byte-by-byte in
//!   `tests/journal_torn_tail.rs`).
//! * `snapshot.bin` — the latest full-state snapshot, written atomically
//!   (`snapshot.tmp` + fsync + rename). Its watermark is the journal's
//!   next sequence number, so it covers every record in the WAL. Once the
//!   snapshot is durable, an empty WAL starting at the watermark is
//!   written to `wal.tmp`, fsynced and renamed over `wal.bin`, so disk use
//!   for a long-running service is bounded by the snapshot cadence. A
//!   crash between the two renames leaves the old WAL, which the new
//!   snapshot covers, and a stray `wal.tmp` that [`Journal::open`]
//!   discards.
//!
//! # Durability semantics
//!
//! `append` hands the record to the OS immediately (one `write` syscall),
//! so a process crash after an acknowledged operation loses nothing. What a
//! *power* failure can lose is bounded by the fsync cadence. Fsyncs are
//! **group-committed**: a background flusher thread issues one every
//! 100 ms while the WAL has appends no fsync covers yet, so the
//! admission critical section never stalls on the disk and the power-loss
//! window is a fixed wall-clock bound (à la `appendfsync everysec`) rather
//! than a throughput-coupled op count. [`Journal::sync`] is the
//! durable-at-call path: it returns once a completed fsync covers every
//! append so far. See DESIGN.md "Fault model & durability".

use crate::options::RideOption;
use crate::stats::MatchWork;
use crate::telemetry::{Histogram, Stage, Telemetry};
use ptrider_roadnet::VertexId;
use ptrider_vehicles::{RequestId, Stop, StopKind, VehicleId};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const MAGIC: [u8; 4] = *b"PTRJ";
const VERSION: u32 = 1;
/// Format version of a WAL file whose header carries the log's first
/// sequence number (any WAL that replaced one at a snapshot). Version-1
/// files are still opened: they implicitly start at sequence 0.
const VERSION_FIRST_SEQ: u32 = 2;
const HEADER_LEN: usize = 8;
/// Header length of a [`VERSION_FIRST_SEQ`] file (adds the first seq).
const FIRST_SEQ_HEADER_LEN: usize = 16;
const RECORD_HEADER_LEN: usize = 16;
/// Sanity bound on a single record (far above any real op).
const MAX_RECORD_LEN: u32 = 1 << 28;

const WAL_FILE: &str = "wal.bin";
const WAL_TMP: &str = "wal.tmp";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
/// The header a WAL starting at `first_seq` carries. A fresh journal
/// (first_seq 0) keeps the original version-1 layout so journals that
/// never snapshotted are byte-identical to the first format.
fn header_bytes(first_seq: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(FIRST_SEQ_HEADER_LEN);
    h.extend_from_slice(&MAGIC);
    if first_seq == 0 {
        h.extend_from_slice(&VERSION.to_le_bytes());
    } else {
        h.extend_from_slice(&VERSION_FIRST_SEQ.to_le_bytes());
        h.extend_from_slice(&first_seq.to_le_bytes());
    }
    h
}

/// Parses a WAL header; returns the log's first sequence number and the
/// header length the record scan starts after.
fn parse_wal_header(buf: &[u8]) -> Result<(u64, usize), JournalError> {
    if buf.len() < HEADER_LEN {
        return Err(JournalError::Corrupt("wal header truncated"));
    }
    if buf[..4] != MAGIC {
        return Err(JournalError::Corrupt("wal magic mismatch"));
    }
    if buf[4..HEADER_LEN] == VERSION.to_le_bytes() {
        return Ok((0, HEADER_LEN));
    }
    if buf[4..HEADER_LEN] == VERSION_FIRST_SEQ.to_le_bytes() {
        if buf.len() < FIRST_SEQ_HEADER_LEN {
            return Err(JournalError::Corrupt("wal header truncated"));
        }
        let first = u64::from_le_bytes(buf[HEADER_LEN..FIRST_SEQ_HEADER_LEN].try_into().unwrap());
        return Ok((first, FIRST_SEQ_HEADER_LEN));
    }
    Err(JournalError::Corrupt("unsupported wal format version"))
}

/// Errors returned by journal operations and recovery.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O operation on the journal directory failed.
    Io(std::io::Error),
    /// A journal or snapshot file is structurally invalid in a way that is
    /// *not* a torn tail (torn tails are truncated silently): wrong magic,
    /// unsupported format version, or a checksum-valid record whose payload
    /// does not decode.
    Corrupt(&'static str),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt(reason) => write!(f, "journal corrupt: {reason}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Group-commit cadence: while the WAL has appends no fsync has covered
/// yet, the flusher thread fsyncs this often. This makes the power-loss
/// window a wall-clock bound, independent of admission throughput — and
/// keeps the flusher idle (no inode-lock contention with appends) at any
/// load.
const SYNC_INTERVAL: Duration = Duration::from_millis(100);

/// Journal tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JournalConfig {
    /// After this many journaled operations, [`crate::RideService::tick`]
    /// writes a snapshot and resets the counter (0 disables automatic
    /// snapshots; explicit [`crate::RideService::snapshot`] still works).
    pub snapshot_every_ops: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            snapshot_every_ops: 8192,
        }
    }
}

impl JournalConfig {
    /// Sets the automatic snapshot cadence (in journaled operations).
    pub fn with_snapshot_every_ops(mut self, ops: u64) -> Self {
        self.snapshot_every_ops = ops;
        self
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Folds a 64-bit FNV-1a over `seq || payload` into the record checksum.
fn record_checksum(seq: u64, payload: &[u8]) -> u32 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in seq.to_le_bytes().iter().chain(payload) {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((hash >> 32) as u32) ^ (hash as u32)
}

/// What [`Journal::open`] reconstructed from disk.
pub struct Recovered {
    /// The latest snapshot, if one exists: the sequence watermark (records
    /// with `seq >= watermark` must still be replayed on top) and the raw
    /// snapshot payload.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Every valid WAL record still on disk, in sequence order. A snapshot
    /// replaces the WAL with one that starts at its watermark, so the list
    /// may start past zero; the caller skips any records below the
    /// watermark (the old WAL a crash left before its replacement).
    pub ops: Vec<(u64, Vec<u8>)>,
}

/// State shared between the appending thread and the group-commit flusher.
struct FlushState {
    /// Watermark (a `next_seq` value) explicitly requested durable by
    /// [`Journal::sync`]; the flusher services it immediately rather than
    /// on the next timer tick.
    requested: u64,
    /// Highest watermark covered by a completed fsync.
    synced: u64,
    shutdown: bool,
    /// First background fsync failure. Sticky: once an fsync fails the
    /// durable prefix is unknown, so every later append and sync reports
    /// it instead of pretending durability still holds.
    error: Option<String>,
}

struct FlushShared {
    state: Mutex<FlushState>,
    cv: Condvar,
    /// Highest `next_seq` the appender has handed to the OS. Published
    /// lock-free on every append; the flusher's timer tick picks it up, so
    /// the commit path never touches the mutex.
    published: std::sync::atomic::AtomicU64,
    /// Fsync-latency histogram, attached after the flusher thread is
    /// already running (the journal is built before the telemetry hub is
    /// handed over), hence the `OnceLock` rather than a constructor field.
    fsync_hist: OnceLock<Arc<Histogram>>,
}

/// The group-commit flusher: owns a cloned descriptor of the WAL and
/// fsyncs what the appender has published, on a timer tick or at once for
/// [`Journal::sync`].
struct Flusher {
    shared: Arc<FlushShared>,
    handle: Option<JoinHandle<()>>,
}

impl Flusher {
    /// Spawns a flusher over a clone of `wal`, timing its fsyncs into
    /// `fsync_hist` when one is given.
    fn spawn(wal: &File, fsync_hist: Option<Arc<Histogram>>) -> Result<Flusher, JournalError> {
        let file = wal.try_clone()?;
        let shared = Arc::new(FlushShared {
            state: Mutex::new(FlushState {
                requested: 0,
                synced: 0,
                shutdown: false,
                error: None,
            }),
            cv: Condvar::new(),
            published: std::sync::atomic::AtomicU64::new(0),
            fsync_hist: fsync_hist.map(OnceLock::from).unwrap_or_default(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("ptrider-wal-sync".into())
            .spawn(move || flusher_loop(&thread_shared, &file))
            .expect("spawning the WAL flusher thread");
        Ok(Flusher {
            shared,
            handle: Some(handle),
        })
    }

    /// Lock-free: records that everything below `watermark` has reached the
    /// OS. This is all the commit path ever pays; the timer tick turns it
    /// into an fsync.
    fn publish(&self, watermark: u64) {
        self.shared
            .published
            .store(watermark, std::sync::atomic::Ordering::Release);
    }

    /// Blocking: returns once a completed fsync covers `watermark` (or the
    /// flusher has died on an fsync failure).
    fn wait_for(&self, watermark: u64) -> Result<(), JournalError> {
        let mut st = self.shared.state.lock().unwrap();
        if watermark > st.requested {
            st.requested = watermark;
            self.shared.cv.notify_all();
        }
        loop {
            if let Some(msg) = &st.error {
                return Err(JournalError::Io(std::io::Error::other(msg.clone())));
            }
            if st.synced >= watermark {
                return Ok(());
            }
            st = self.shared.cv.wait(st).unwrap();
        }
    }

    /// Surfaces a sticky background fsync failure, if any.
    fn check(&self) -> Result<(), JournalError> {
        let st = self.shared.state.lock().unwrap();
        match &st.error {
            Some(msg) => Err(JournalError::Io(std::io::Error::other(msg.clone()))),
            None => Ok(()),
        }
    }

    /// Stops the flusher thread and waits for it; a no-op once stopped.
    fn stop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        self.stop();
    }
}

fn flusher_loop(shared: &FlushShared, file: &File) {
    use std::sync::atomic::Ordering;
    loop {
        let target = {
            let mut st = shared.state.lock().unwrap();
            // Wait for an explicit request, a shutdown, or one interval,
            // after which any published-but-unsynced appends get their
            // fsync. One fsync per tick at most, so the flusher stays off
            // the inode lock the appender's writes need.
            loop {
                if st.shutdown {
                    // `Journal::drop` issues the final fsync on the primary
                    // descriptor after joining this thread.
                    return;
                }
                if st.requested > st.synced {
                    break;
                }
                let (guard, timeout) = shared.cv.wait_timeout(st, SYNC_INTERVAL).unwrap();
                st = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            let target = st.requested.max(shared.published.load(Ordering::Acquire));
            if target <= st.synced {
                continue; // clean timer tick / spurious wake
            }
            target
        };
        // fsync outside the lock: `wait_for` callers never block on a sync
        // in flight.
        let fsync_hist = shared.fsync_hist.get();
        let started = fsync_hist.map(|_| Instant::now());
        let result = file.sync_data();
        if let (Some(hist), Some(started)) = (fsync_hist, started) {
            hist.record(started.elapsed().as_nanos() as u64);
        }
        let mut st = shared.state.lock().unwrap();
        match result {
            Ok(()) => st.synced = st.synced.max(target),
            Err(e) => {
                st.error.get_or_insert_with(|| e.to_string());
                shared.cv.notify_all();
                return;
            }
        }
        shared.cv.notify_all();
    }
}

/// A write-ahead journal rooted at a directory. See the module docs for the
/// file layout and durability semantics.
pub struct Journal {
    dir: PathBuf,
    wal: File,
    config: JournalConfig,
    next_seq: u64,
    ops_since_snapshot: u64,
    flusher: Flusher,
    /// Reusable record-assembly buffer so the commit path never allocates.
    scratch: Vec<u8>,
    /// Latency histograms for the append / snapshot paths, attached via
    /// [`Self::attach_telemetry`] (the flusher holds the fsync one).
    /// `None` keeps each timing site a single branch.
    append_hist: Option<Arc<Histogram>>,
    snapshot_hist: Option<Arc<Histogram>>,
}

impl Journal {
    /// Creates a **fresh** journal at `dir`: any existing WAL and snapshot
    /// there are discarded. Use [`Self::open`] to resume an existing one.
    pub fn create(dir: impl AsRef<Path>, config: JournalConfig) -> Result<Self, JournalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        for stale in [SNAPSHOT_FILE, WAL_TMP] {
            let path = dir.join(stale);
            if path.exists() {
                std::fs::remove_file(&path)?;
            }
        }
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(WAL_FILE))?;
        wal.write_all(&header_bytes(0))?;
        wal.sync_data()?;
        Journal::assemble(dir, wal, config, 0)
    }

    /// Builds the journal handle and spawns its group-commit flusher.
    fn assemble(
        dir: PathBuf,
        wal: File,
        config: JournalConfig,
        next_seq: u64,
    ) -> Result<Self, JournalError> {
        let flusher = Flusher::spawn(&wal, None)?;
        Ok(Journal {
            dir,
            wal,
            config,
            next_seq,
            ops_since_snapshot: 0,
            flusher,
            scratch: Vec::new(),
            append_hist: None,
            snapshot_hist: None,
        })
    }

    /// Attaches the engine's telemetry hub: append, fsync and snapshot
    /// latencies flow into the [`Stage::JournalAppend`] /
    /// [`Stage::JournalFsync`] / [`Stage::JournalSnapshot`] histograms. Only
    /// effective at the `Spans` level; the group-commit flusher keeps the
    /// fsync histogram behind a `OnceLock`, so the first attach wins for
    /// the lifetime of the flusher thread (a WAL swap hands it on).
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        if !telemetry.spans_enabled() {
            return;
        }
        let fsync = telemetry.stage_histogram(Stage::JournalFsync);
        let _ = self.flusher.shared.fsync_hist.set(fsync);
        self.append_hist = Some(telemetry.stage_histogram(Stage::JournalAppend));
        self.snapshot_hist = Some(telemetry.stage_histogram(Stage::JournalSnapshot));
    }

    /// Whether a background fsync has failed since the journal was opened.
    /// Sticky, like the underlying error: once `true` the durable prefix is
    /// unknown and every later [`Self::append`] / [`Self::sync`] reports the
    /// error.
    pub fn fsync_failed(&self) -> bool {
        self.flusher.check().is_err()
    }

    /// Opens an existing journal directory for recovery: reads the latest
    /// snapshot (if any) and scans the WAL — truncating a torn or corrupt
    /// tail instead of failing on it — and returns the recovered contents
    /// plus a journal positioned to continue appending where the valid
    /// prefix ends. A missing or empty directory opens as an empty journal.
    pub fn open(
        dir: impl AsRef<Path>,
        config: JournalConfig,
    ) -> Result<(Recovered, Self), JournalError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let snapshot = read_snapshot(&dir)?;
        let watermark = snapshot.as_ref().map_or(0, |(w, _)| *w);

        // A `wal.tmp` beside `wal.bin` is a replacement WAL a crash left
        // before its rename: the old WAL holds only records the snapshot
        // covers, so it is as good, and the stray file goes. A `wal.tmp`
        // with no `wal.bin` comes from the older segmented layout, which
        // renamed the old WAL away (to `segment-<n>.bin`, covered by the
        // snapshot) before moving its fsynced replacement into place:
        // finish that move.
        let wal_path = dir.join(WAL_FILE);
        let tmp = dir.join(WAL_TMP);
        if tmp.exists() {
            if wal_path.exists() {
                std::fs::remove_file(&tmp)?;
            } else {
                std::fs::rename(&tmp, &wal_path)?;
            }
        }

        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)?;
        let mut buf = Vec::new();
        wal.read_to_end(&mut buf)?;

        // A file shorter than its header is a torn creation: everything
        // written so far must be a prefix of the expected header, in which
        // case the WAL is simply empty and resumes at the snapshot
        // watermark (0 without one). Anything else is corruption. A
        // missing `wal.bin` lands here too, as the zero-length prefix.
        let full_header_len =
            if buf.len() >= HEADER_LEN && buf[4..HEADER_LEN] == VERSION_FIRST_SEQ.to_le_bytes() {
                FIRST_SEQ_HEADER_LEN
            } else {
                HEADER_LEN
            };
        if buf.len() < full_header_len {
            let expected = header_bytes(watermark);
            if buf.len() > expected.len() || buf[..] != expected[..buf.len()] {
                return Err(JournalError::Corrupt("wal header mismatch"));
            }
            wal.set_len(0)?;
            wal.seek(SeekFrom::Start(0))?;
            wal.write_all(&expected)?;
            wal.sync_data()?;
            return Ok((
                Recovered {
                    snapshot,
                    ops: Vec::new(),
                },
                Journal::assemble(dir, wal, config, watermark)?,
            ));
        }
        let (first_seq, header_len) = parse_wal_header(&buf)?;
        if first_seq > watermark {
            // The records between the watermark and the WAL's first one
            // are lost: replaying across the gap would build a state no
            // live service reached.
            return Err(JournalError::Corrupt(
                "wal starts past the snapshot watermark",
            ));
        }
        let (ops, valid_len) = scan_records(&buf, header_len, first_seq);
        if valid_len < buf.len() {
            // Torn or corrupted tail: truncate to the valid prefix so the
            // next append continues from a clean boundary.
            wal.set_len(valid_len as u64)?;
            wal.sync_data()?;
        }
        wal.seek(SeekFrom::Start(valid_len as u64))?;
        let next_seq = first_seq + ops.len() as u64;
        Ok((
            Recovered { snapshot, ops },
            Journal::assemble(dir, wal, config, next_seq)?,
        ))
    }

    /// Appends one record and returns its sequence number. The record
    /// reaches the OS before this returns; an fsync covering it follows on
    /// the group-commit flusher's next timer tick.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, JournalError> {
        self.flusher.check()?;
        let append_start = self.append_hist.as_ref().map(|_| Instant::now());
        let seq = self.next_seq;
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.scratch.extend_from_slice(&seq.to_le_bytes());
        self.scratch
            .extend_from_slice(&record_checksum(seq, payload).to_le_bytes());
        self.scratch.extend_from_slice(payload);
        self.wal.write_all(&self.scratch)?;
        self.next_seq += 1;
        self.ops_since_snapshot += 1;
        self.flusher.publish(self.next_seq);
        if let (Some(hist), Some(started)) = (&self.append_hist, append_start) {
            hist.record(started.elapsed().as_nanos() as u64);
        }
        Ok(seq)
    }

    /// Forces the whole appended prefix durable: blocks until the
    /// group-commit flusher has fsynced past the current end.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.flusher.wait_for(self.next_seq)
    }

    /// The sequence number the next appended record will receive (equals
    /// the number of records in the valid WAL prefix).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Operations appended since the last snapshot (or open).
    pub fn ops_since_snapshot(&self) -> u64 {
        self.ops_since_snapshot
    }

    /// Whether the automatic snapshot cadence is due.
    pub fn snapshot_due(&self) -> bool {
        self.config.snapshot_every_ops > 0
            && self.ops_since_snapshot >= self.config.snapshot_every_ops
    }

    /// Atomically replaces the snapshot file and returns its watermark,
    /// [`Self::next_seq`]: the payload must be the state after every
    /// appended record. The payload is written to a temp file, fsynced,
    /// and renamed over `snapshot.bin`; replay applies only records with
    /// `seq >= watermark` on top of it.
    ///
    /// Once the snapshot is durable the WAL, whose records it now all
    /// covers, is replaced by an empty one starting at the watermark, so
    /// disk use stays bounded by the snapshot cadence.
    pub fn write_snapshot(&mut self, payload: &[u8]) -> Result<u64, JournalError> {
        let snapshot_start = self.snapshot_hist.as_ref().map(|_| Instant::now());
        let watermark = self.next_seq;
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            let mut file = File::create(&tmp)?;
            let mut buf = Vec::with_capacity(HEADER_LEN + 16 + payload.len());
            buf.extend_from_slice(&MAGIC);
            buf.extend_from_slice(&VERSION.to_le_bytes());
            buf.extend_from_slice(&watermark.to_le_bytes());
            buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            buf.extend_from_slice(&record_checksum(watermark, payload).to_le_bytes());
            buf.extend_from_slice(payload);
            file.write_all(&buf)?;
            file.sync_data()?;
        }
        // Make the WAL prefix durable before the snapshot that supersedes
        // it becomes visible (and before the swap below replaces it).
        self.sync()?;
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        self.ops_since_snapshot = 0;
        self.replace_wal()?;
        if let (Some(hist), Some(started)) = (&self.snapshot_hist, snapshot_start) {
            hist.record(started.elapsed().as_nanos() as u64);
        }
        Ok(watermark)
    }

    /// Swaps in an empty WAL starting at the current sequence number: it
    /// is written and fsynced as `wal.tmp`, then renamed over `wal.bin` in
    /// one step. Only called once the superseding snapshot is durable.
    fn replace_wal(&mut self) -> Result<(), JournalError> {
        let tmp = self.dir.join(WAL_TMP);
        let mut fresh = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        fresh.write_all(&header_bytes(self.next_seq))?;
        fresh.sync_data()?;
        std::fs::rename(&tmp, self.dir.join(WAL_FILE))?;
        // Point a new flusher at the fresh file; assigning it retires the
        // one watching the old descriptor (its bytes are already durable).
        let fsync_hist = self.flusher.shared.fsync_hist.get().cloned();
        self.flusher = Flusher::spawn(&fresh, fsync_hist)?;
        self.wal = fresh;
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Stop the flusher first so its final descriptor use races nothing,
        // then make the full prefix durable on the primary descriptor.
        self.flusher.stop();
        let _ = self.wal.sync_data();
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.dir)
            .field("next_seq", &self.next_seq)
            .field("ops_since_snapshot", &self.ops_since_snapshot)
            .finish()
    }
}

/// Scans WAL records after the `header_len`-byte header of a log whose
/// first record is `first_seq`; returns the decoded records and the byte
/// length of the valid prefix (header included). Stops at the first torn
/// or corrupt record.
fn scan_records(buf: &[u8], header_len: usize, first_seq: u64) -> (Vec<(u64, Vec<u8>)>, usize) {
    let mut ops = Vec::new();
    let mut pos = header_len;
    let mut expected_seq = first_seq;
    while let Some(header) = buf.get(pos..pos + RECORD_HEADER_LEN) {
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let seq = u64::from_le_bytes(header[4..12].try_into().unwrap());
        let checksum = u32::from_le_bytes(header[12..16].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            break;
        }
        let start = pos + RECORD_HEADER_LEN;
        let Some(payload) = buf.get(start..start + len as usize) else {
            break;
        };
        if seq != expected_seq || record_checksum(seq, payload) != checksum {
            break;
        }
        ops.push((seq, payload.to_vec()));
        expected_seq += 1;
        pos = start + len as usize;
    }
    (ops, pos)
}

/// Reads and validates the snapshot file, if present.
fn read_snapshot(dir: &Path) -> Result<Option<(u64, Vec<u8>)>, JournalError> {
    let path = dir.join(SNAPSHOT_FILE);
    let buf = match std::fs::read(&path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if buf.len() < HEADER_LEN + 16 {
        return Err(JournalError::Corrupt("snapshot truncated"));
    }
    if buf[..4] != MAGIC {
        return Err(JournalError::Corrupt("snapshot magic mismatch"));
    }
    if buf[4..HEADER_LEN] != VERSION.to_le_bytes() {
        return Err(JournalError::Corrupt("unsupported snapshot format version"));
    }
    let watermark = u64::from_le_bytes(buf[HEADER_LEN..HEADER_LEN + 8].try_into().unwrap());
    let len = u32::from_le_bytes(buf[HEADER_LEN + 8..HEADER_LEN + 12].try_into().unwrap()) as usize;
    let checksum = u32::from_le_bytes(buf[HEADER_LEN + 12..HEADER_LEN + 16].try_into().unwrap());
    let payload = buf
        .get(HEADER_LEN + 16..HEADER_LEN + 16 + len)
        .ok_or(JournalError::Corrupt("snapshot payload truncated"))?;
    if record_checksum(watermark, payload) != checksum {
        return Err(JournalError::Corrupt("snapshot checksum mismatch"));
    }
    Ok(Some((watermark, payload.to_vec())))
}

/// Fingerprint helper: 64-bit FNV-1a over an encoded state image (used by
/// [`crate::RideService::fingerprint`]).
pub(crate) fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

// ---------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------

/// Little-endian byte encoder for op and snapshot payloads.
#[derive(Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats travel as raw bits so a round trip is bit-identical.
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    pub(crate) fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
            None => self.u8(0),
        }
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte decoder; every read is bounds-checked and reports
/// [`JournalError::Corrupt`] instead of panicking.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let slice = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(JournalError::Corrupt("payload truncated"))?;
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, JournalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, JournalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, JournalError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn opt_f64(&mut self) -> Result<Option<f64>, JournalError> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.f64()?),
        })
    }

    pub(crate) fn opt_u32(&mut self) -> Result<Option<u32>, JournalError> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.u32()?),
        })
    }

    /// Bounds-checked collection length (rejects lengths the remaining
    /// buffer cannot possibly hold, so corrupt lengths cannot OOM).
    pub(crate) fn len(&mut self, min_elem_bytes: usize) -> Result<usize, JournalError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.buf.len() - self.pos {
            return Err(JournalError::Corrupt("collection length out of bounds"));
        }
        Ok(n)
    }

    pub(crate) fn finish(self) -> Result<(), JournalError> {
        if self.pos != self.buf.len() {
            return Err(JournalError::Corrupt("trailing bytes in payload"));
        }
        Ok(())
    }

    /// The undecoded remainder (used to split a snapshot prelude off its
    /// body).
    pub(crate) fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

// ---------------------------------------------------------------------
// The logical operation records
// ---------------------------------------------------------------------

const OP_ADD_VEHICLE: u8 = 1;
const OP_SUBMIT: u8 = 2;
const OP_RESPOND: u8 = 3;
const OP_TICK: u8 = 4;
const OP_LOCATION_UPDATE: u8 = 5;
const OP_VEHICLE_ARRIVED: u8 = 6;
const OP_TRAFFIC_UPDATE: u8 = 7;
const OP_BATCH: u8 = 8;
const OP_PRUNE_RESOLVED: u8 = 9;
/// A submit that carries its offer. `OP_SUBMIT` records (written before
/// offers were journaled) still decode, with `Op::Submit::offer` `None`.
const OP_SUBMIT_OFFER: u8 = 10;

/// One journaled admission-writer operation. Replayed through the same
/// engine/service code that produced it ([`crate::RideService::recover`]).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Op {
    /// `add_vehicle_with_capacity` (vehicle id re-allocated naturally).
    AddVehicle { location: u32, capacity: u32 },
    /// A successful `submit`. Session and request ids are journaled
    /// explicitly because concurrent submits may append out of allocation
    /// order; `match_secs_after` and `work_after` pin the *environmental*
    /// ledger accumulators — wall-clock `total_match_secs` and the
    /// oracle-cache-warmth-dependent [`MatchWork`] counters (a warm cache
    /// shifts both the exact-computation count and the prune/verify
    /// split) — to the original run's post-op values, because replay
    /// cannot reproduce them: a recovery from a snapshot starts with a
    /// cold distance cache.
    Submit {
        origin: u32,
        destination: u32,
        riders: u32,
        now: f64,
        session: u64,
        request: u64,
        match_secs_after: f64,
        work_after: MatchWork,
        /// The skyline replay applies instead of re-matching. `None` only
        /// in a record written before offers were journaled, which replay
        /// re-matches.
        offer: Option<JournaledOffer>,
    },
    /// A `respond` that changed state (decline, choose — successful or
    /// assignment-failed — or an on-the-spot expiry). `choice` is `None`
    /// for a decline.
    Respond {
        session: u64,
        choice: Option<u32>,
        now: f64,
    },
    /// A `tick` that expired at least one offer.
    Tick { now: f64 },
    /// A successful `location_update`.
    LocationUpdate {
        vehicle: u32,
        location: u32,
        travelled: f64,
    },
    /// A `vehicle_arrived` that served a stop.
    VehicleArrived { vehicle: u32 },
    /// An `apply_traffic_update`: the non-free-flow arc factors rebuild the
    /// model on replay (factor bits are exact).
    TrafficUpdate { now: f64, factors: Vec<(u32, f64)> },
    /// A `submit_batch_greedy`: the selector's (post-filter) choices are
    /// recorded so replay needs no selector; `first_request` restores the
    /// id counter before replay (batch ids are allocated naturally).
    Batch {
        now: f64,
        specs: Vec<(u32, u32, u32)>,
        choices: Vec<Option<u32>>,
        first_request: u64,
        match_secs_after: f64,
        work_after: MatchWork,
    },
    /// A `prune_resolved` that removed at least one session.
    PruneResolved,
}

/// The offer half of a [`Op::Submit`] record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct JournaledOffer {
    /// The request's direct distance: replay rebuilds the prospective
    /// request from it without validating the request again.
    pub(crate) direct_dist: f64,
    /// The offered skyline, in offer order.
    pub(crate) options: Vec<RideOption>,
}

/// Encoded size of a [`Stop`].
const STOP_BYTES: usize = 17;
/// Encoded size of a [`RideOption`] with an empty schedule.
pub(crate) const OPTION_MIN_BYTES: usize = 48;

pub(crate) fn encode_stop(e: &mut Enc, stop: &Stop) {
    e.u64(stop.request.0);
    e.u32(stop.location.0);
    e.u8(match stop.kind {
        StopKind::Pickup => 0,
        StopKind::Dropoff => 1,
    });
    e.u32(stop.riders);
}

pub(crate) fn decode_stop(d: &mut Dec<'_>) -> Result<Stop, JournalError> {
    let request = RequestId(d.u64()?);
    let location = VertexId(d.u32()?);
    let kind = match d.u8()? {
        0 => StopKind::Pickup,
        1 => StopKind::Dropoff,
        _ => return Err(JournalError::Corrupt("unknown stop kind")),
    };
    let riders = d.u32()?;
    Ok(Stop {
        request,
        location,
        kind,
        riders,
    })
}

/// The one ride-option codec: submit records and snapshot sessions both
/// write their options through it.
pub(crate) fn encode_option(e: &mut Enc, option: &RideOption) {
    e.u32(option.vehicle.0);
    e.f64(option.pickup_dist);
    e.f64(option.pickup_secs);
    e.f64(option.price);
    e.u32(option.schedule.len() as u32);
    for stop in &option.schedule {
        encode_stop(e, stop);
    }
    e.f64(option.new_total_dist);
    e.f64(option.old_total_dist);
}

pub(crate) fn decode_option(d: &mut Dec<'_>) -> Result<RideOption, JournalError> {
    let vehicle = VehicleId(d.u32()?);
    let pickup_dist = d.f64()?;
    let pickup_secs = d.f64()?;
    let price = d.f64()?;
    let num_stops = d.len(STOP_BYTES)?;
    let mut schedule = Vec::with_capacity(num_stops);
    for _ in 0..num_stops {
        schedule.push(decode_stop(d)?);
    }
    Ok(RideOption {
        vehicle,
        pickup_dist,
        pickup_secs,
        price,
        schedule,
        new_total_dist: d.f64()?,
        old_total_dist: d.f64()?,
    })
}

fn encode_work(e: &mut Enc, w: &MatchWork) {
    e.u64(w.vehicles_considered);
    e.u64(w.vehicles_verified);
    e.u64(w.vehicles_pruned);
    e.u64(w.cells_visited);
    e.u64(w.exact_distance_computations);
    e.u64(w.candidates_generated);
}

fn decode_work(d: &mut Dec<'_>) -> Result<MatchWork, JournalError> {
    Ok(MatchWork {
        vehicles_considered: d.u64()?,
        vehicles_verified: d.u64()?,
        vehicles_pruned: d.u64()?,
        cells_visited: d.u64()?,
        exact_distance_computations: d.u64()?,
        candidates_generated: d.u64()?,
    })
}

impl Op {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Op::AddVehicle { location, capacity } => {
                e.u8(OP_ADD_VEHICLE);
                e.u32(*location);
                e.u32(*capacity);
            }
            Op::Submit {
                origin,
                destination,
                riders,
                now,
                session,
                request,
                match_secs_after,
                work_after,
                offer,
            } => {
                e.u8(if offer.is_some() {
                    OP_SUBMIT_OFFER
                } else {
                    OP_SUBMIT
                });
                e.u32(*origin);
                e.u32(*destination);
                e.u32(*riders);
                e.f64(*now);
                e.u64(*session);
                e.u64(*request);
                e.f64(*match_secs_after);
                encode_work(&mut e, work_after);
                if let Some(offer) = offer {
                    e.f64(offer.direct_dist);
                    e.u32(offer.options.len() as u32);
                    for option in &offer.options {
                        encode_option(&mut e, option);
                    }
                }
            }
            Op::Respond {
                session,
                choice,
                now,
            } => {
                e.u8(OP_RESPOND);
                e.u64(*session);
                e.opt_u32(*choice);
                e.f64(*now);
            }
            Op::Tick { now } => {
                e.u8(OP_TICK);
                e.f64(*now);
            }
            Op::LocationUpdate {
                vehicle,
                location,
                travelled,
            } => {
                e.u8(OP_LOCATION_UPDATE);
                e.u32(*vehicle);
                e.u32(*location);
                e.f64(*travelled);
            }
            Op::VehicleArrived { vehicle } => {
                e.u8(OP_VEHICLE_ARRIVED);
                e.u32(*vehicle);
            }
            Op::TrafficUpdate { now, factors } => {
                e.u8(OP_TRAFFIC_UPDATE);
                e.f64(*now);
                e.u32(factors.len() as u32);
                for (arc, factor) in factors {
                    e.u32(*arc);
                    e.f64(*factor);
                }
            }
            Op::Batch {
                now,
                specs,
                choices,
                first_request,
                match_secs_after,
                work_after,
            } => {
                e.u8(OP_BATCH);
                e.f64(*now);
                e.u32(specs.len() as u32);
                for (origin, destination, riders) in specs {
                    e.u32(*origin);
                    e.u32(*destination);
                    e.u32(*riders);
                }
                e.u32(choices.len() as u32);
                for choice in choices {
                    e.opt_u32(*choice);
                }
                e.u64(*first_request);
                e.f64(*match_secs_after);
                encode_work(&mut e, work_after);
            }
            Op::PruneResolved => {
                e.u8(OP_PRUNE_RESOLVED);
            }
        }
        e.finish()
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<Op, JournalError> {
        let mut d = Dec::new(payload);
        let op = match d.u8()? {
            OP_ADD_VEHICLE => Op::AddVehicle {
                location: d.u32()?,
                capacity: d.u32()?,
            },
            tag @ (OP_SUBMIT | OP_SUBMIT_OFFER) => Op::Submit {
                origin: d.u32()?,
                destination: d.u32()?,
                riders: d.u32()?,
                now: d.f64()?,
                session: d.u64()?,
                request: d.u64()?,
                match_secs_after: d.f64()?,
                work_after: decode_work(&mut d)?,
                offer: if tag == OP_SUBMIT_OFFER {
                    let direct_dist = d.f64()?;
                    let n = d.len(OPTION_MIN_BYTES)?;
                    let mut options = Vec::with_capacity(n);
                    for _ in 0..n {
                        options.push(decode_option(&mut d)?);
                    }
                    Some(JournaledOffer {
                        direct_dist,
                        options,
                    })
                } else {
                    None
                },
            },
            OP_RESPOND => Op::Respond {
                session: d.u64()?,
                choice: d.opt_u32()?,
                now: d.f64()?,
            },
            OP_TICK => Op::Tick { now: d.f64()? },
            OP_LOCATION_UPDATE => Op::LocationUpdate {
                vehicle: d.u32()?,
                location: d.u32()?,
                travelled: d.f64()?,
            },
            OP_VEHICLE_ARRIVED => Op::VehicleArrived { vehicle: d.u32()? },
            OP_TRAFFIC_UPDATE => {
                let now = d.f64()?;
                let n = d.len(12)?;
                let mut factors = Vec::with_capacity(n);
                for _ in 0..n {
                    factors.push((d.u32()?, d.f64()?));
                }
                Op::TrafficUpdate { now, factors }
            }
            OP_BATCH => {
                let now = d.f64()?;
                let n = d.len(12)?;
                let mut specs = Vec::with_capacity(n);
                for _ in 0..n {
                    specs.push((d.u32()?, d.u32()?, d.u32()?));
                }
                let m = d.len(1)?;
                let mut choices = Vec::with_capacity(m);
                for _ in 0..m {
                    choices.push(d.opt_u32()?);
                }
                Op::Batch {
                    now,
                    specs,
                    choices,
                    first_request: d.u64()?,
                    match_secs_after: d.f64()?,
                    work_after: decode_work(&mut d)?,
                }
            }
            OP_PRUNE_RESOLVED => Op::PruneResolved,
            _ => return Err(JournalError::Corrupt("unknown op tag")),
        };
        d.finish()?;
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ptrider-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_option(vehicle: u32, stops: &[(u64, u32, StopKind)]) -> RideOption {
        RideOption {
            vehicle: VehicleId(vehicle),
            pickup_dist: 300.0 * f64::from(vehicle),
            pickup_secs: 30.0 * f64::from(vehicle),
            price: 12.25 + f64::from(vehicle),
            schedule: stops
                .iter()
                .map(|&(request, location, kind)| Stop {
                    request: RequestId(request),
                    location: VertexId(location),
                    kind,
                    riders: 1,
                })
                .collect(),
            new_total_dist: 5000.0,
            old_total_dist: 1000.0 * f64::from(vehicle),
        }
    }

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::AddVehicle {
                location: 3,
                capacity: 4,
            },
            Op::Submit {
                origin: 6,
                destination: 8,
                riders: 2,
                now: 1.5,
                session: 0,
                request: 0,
                match_secs_after: 0.25,
                work_after: MatchWork {
                    vehicles_considered: 4,
                    vehicles_verified: 2,
                    vehicles_pruned: 2,
                    cells_visited: 9,
                    exact_distance_computations: 3,
                    candidates_generated: 2,
                },
                offer: None,
            },
            Op::Submit {
                origin: 9,
                destination: 2,
                riders: 1,
                now: 1.75,
                session: 1,
                request: 1,
                match_secs_after: 0.5,
                work_after: MatchWork {
                    vehicles_considered: 7,
                    vehicles_verified: 4,
                    vehicles_pruned: 3,
                    cells_visited: 12,
                    exact_distance_computations: 8,
                    candidates_generated: 5,
                },
                offer: Some(JournaledOffer {
                    direct_dist: 2400.5,
                    options: vec![
                        sample_option(3, &[(1, 9, StopKind::Pickup), (1, 2, StopKind::Dropoff)]),
                        sample_option(
                            5,
                            &[
                                (0, 6, StopKind::Pickup),
                                (1, 9, StopKind::Pickup),
                                (0, 8, StopKind::Dropoff),
                                (1, 2, StopKind::Dropoff),
                            ],
                        ),
                    ],
                }),
            },
            Op::Respond {
                session: 0,
                choice: Some(1),
                now: 2.0,
            },
            Op::Respond {
                session: 0,
                choice: None,
                now: 2.5,
            },
            Op::Tick { now: 3.0 },
            Op::LocationUpdate {
                vehicle: 0,
                location: 7,
                travelled: 1000.0,
            },
            Op::VehicleArrived { vehicle: 0 },
            Op::TrafficUpdate {
                now: 4.0,
                factors: vec![(0, 2.0), (5, 1.5)],
            },
            Op::Batch {
                now: 5.0,
                specs: vec![(1, 2, 1), (3, 4, 2)],
                choices: vec![Some(0), None],
                first_request: 7,
                match_secs_after: 0.5,
                work_after: MatchWork {
                    vehicles_considered: 8,
                    vehicles_verified: 7,
                    vehicles_pruned: 1,
                    cells_visited: 18,
                    exact_distance_computations: 9,
                    candidates_generated: 6,
                },
            },
            Op::PruneResolved,
        ]
    }

    #[test]
    fn ops_round_trip_through_the_codec() {
        for op in sample_ops() {
            let bytes = op.encode();
            let back = Op::decode(&bytes).expect("decode");
            assert_eq!(op, back);
        }
    }

    #[test]
    fn every_strict_prefix_of_a_record_is_a_typed_error() {
        let ops = sample_ops();
        assert!(ops
            .iter()
            .any(|op| matches!(op, Op::Submit { offer: Some(o), .. } if o.options.len() >= 2)));
        for op in ops {
            let bytes = op.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Op::decode(&bytes[..cut]).is_err(),
                    "a {cut}-byte prefix of {op:?} decoded"
                );
            }
        }
    }

    #[test]
    fn append_then_open_recovers_every_record() {
        let dir = temp_dir("roundtrip");
        let ops = sample_ops();
        {
            let mut j = Journal::create(&dir, JournalConfig::default()).unwrap();
            for (i, op) in ops.iter().enumerate() {
                assert_eq!(j.append(&op.encode()).unwrap(), i as u64);
            }
        }
        let (recovered, j) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert!(recovered.snapshot.is_none());
        assert_eq!(recovered.ops.len(), ops.len());
        assert_eq!(j.next_seq(), ops.len() as u64);
        for ((_seq, payload), op) in recovered.ops.iter().zip(&ops) {
            assert_eq!(Op::decode(payload).unwrap(), *op);
        }
        let seqs: Vec<u64> = recovered.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (0..ops.len() as u64).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_continues() {
        let dir = temp_dir("torn");
        {
            let mut j = Journal::create(&dir, JournalConfig::default()).unwrap();
            for op in sample_ops() {
                j.append(&op.encode()).unwrap();
            }
        }
        let wal = dir.join("wal.bin");
        let full = std::fs::read(&wal).unwrap();
        // Tear the last record in half.
        let torn_len = full.len() - 5;
        std::fs::write(&wal, &full[..torn_len]).unwrap();

        let (recovered, mut j) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(recovered.ops.len(), sample_ops().len() - 1);
        // The torn record was truncated away; a fresh append reuses its seq.
        let seq = j.append(&Op::PruneResolved.encode()).unwrap();
        assert_eq!(seq, sample_ops().len() as u64 - 1);
        drop(j);
        let (recovered, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(recovered.ops.len(), sample_ops().len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_record_stops_the_scan_without_panicking() {
        let dir = temp_dir("corrupt");
        {
            let mut j = Journal::create(&dir, JournalConfig::default()).unwrap();
            for op in sample_ops() {
                j.append(&op.encode()).unwrap();
            }
        }
        let wal = dir.join("wal.bin");
        let mut bytes = std::fs::read(&wal).unwrap();
        // Flip a payload byte of the second record: its checksum fails, so
        // the valid prefix is exactly one record.
        let first_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let second_payload = 8 + 16 + first_len + 16;
        bytes[second_payload] ^= 0xff;
        std::fs::write(&wal, &bytes).unwrap();

        let (recovered, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(recovered.ops.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The journal directory's file names, sorted.
    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn snapshot_round_trips_with_watermark() {
        let dir = temp_dir("snapshot");
        let payload = b"state image".to_vec();
        let ops = sample_ops();
        {
            let mut j = Journal::create(&dir, JournalConfig::default()).unwrap();
            for op in &ops[..4] {
                j.append(&op.encode()).unwrap();
            }
            assert_eq!(j.write_snapshot(&payload).unwrap(), 4);
            assert_eq!(j.ops_since_snapshot(), 0);
            for op in &ops[4..] {
                j.append(&op.encode()).unwrap();
            }
        }
        let (recovered, _) = Journal::open(&dir, JournalConfig::default()).unwrap();
        let (watermark, snap) = recovered.snapshot.expect("snapshot present");
        assert_eq!(watermark, 4);
        assert_eq!(snap, payload);
        // The WAL holds exactly the records past the watermark.
        let seqs: Vec<u64> = recovered.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (4..ops.len() as u64).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_at_the_head_rotates_and_prunes_the_wal() {
        let dir = temp_dir("rotate-prune");
        let ops = sample_ops();
        {
            let mut j = Journal::create(&dir, JournalConfig::default()).unwrap();
            for op in &ops {
                j.append(&op.encode()).unwrap();
            }
            // The snapshot covers every record, so the WAL is replaced by
            // an empty one that starts at the watermark.
            let watermark = j.write_snapshot(b"head state").unwrap();
            assert_eq!(watermark, ops.len() as u64);
            assert_eq!(file_names(&dir), ["snapshot.bin", "wal.bin"]);
            // Appends continue into the fresh WAL with unbroken seqs.
            assert_eq!(j.append(&Op::PruneResolved.encode()).unwrap(), watermark);
        }
        let (recovered, j) = Journal::open(&dir, JournalConfig::default()).unwrap();
        let (watermark, _) = recovered.snapshot.expect("snapshot present");
        assert_eq!(watermark, ops.len() as u64);
        let seqs: Vec<u64> = recovered.ops.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![ops.len() as u64]);
        assert_eq!(j.next_seq(), ops.len() as u64 + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `next_seq` watermark a completed fsync of `j`'s flusher covers.
    fn synced(j: &Journal) -> u64 {
        j.flusher.shared.state.lock().unwrap().synced
    }

    #[test]
    fn sync_returns_once_an_fsync_covers_every_append() {
        let dir = temp_dir("sync-covers");
        let mut j = Journal::create(&dir, JournalConfig::default()).unwrap();
        j.sync().unwrap();
        for (i, op) in sample_ops().iter().enumerate() {
            j.append(&op.encode()).unwrap();
            if i % 3 == 0 {
                j.sync().unwrap();
                assert_eq!(synced(&j), j.next_seq());
            }
        }
        j.sync().unwrap();
        assert_eq!(synced(&j), j.next_seq());
        assert!(!j.fsync_failed());
        drop(j);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_timer_tick_covers_appends_without_a_sync() {
        let dir = temp_dir("sync-tick");
        let mut j = Journal::create(&dir, JournalConfig::default()).unwrap();
        for op in &sample_ops() {
            j.append(&op.encode()).unwrap();
        }
        let head = j.next_seq();
        let deadline = Instant::now() + Duration::from_secs(5);
        while synced(&j) < head {
            assert!(Instant::now() < deadline, "no timer tick fsynced the WAL");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(synced(&j), head);
        let requested = j.flusher.shared.state.lock().unwrap().requested;
        assert_eq!(requested, 0, "no sync asked: the timer ran it");
        drop(j);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_works_after_a_rotation_respawns_the_flusher() {
        let dir = temp_dir("sync-rotate");
        let mut j = Journal::create(&dir, JournalConfig::default()).unwrap();
        for op in &sample_ops() {
            j.append(&op.encode()).unwrap();
        }
        let old = Arc::clone(&j.flusher.shared);
        j.write_snapshot(b"head state").unwrap();
        assert!(!Arc::ptr_eq(&old, &j.flusher.shared), "respawned");
        assert!(old.state.lock().unwrap().shutdown, "old one stopped");
        j.append(&Op::PruneResolved.encode()).unwrap();
        j.sync().unwrap();
        assert_eq!(synced(&j), j.next_seq());
        assert!(!j.fsync_failed());
        drop(j);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stranded_wal_tmp_is_promoted_or_discarded() {
        let dir = temp_dir("waltmp");
        {
            let mut j = Journal::create(&dir, JournalConfig::default()).unwrap();
            for op in sample_ops() {
                j.append(&op.encode()).unwrap();
            }
            j.write_snapshot(b"state").unwrap();
            j.append(&Op::PruneResolved.encode()).unwrap();
            j.sync().unwrap();
        }
        let n = sample_ops().len() as u64;

        // A crash before the swap's rename: `wal.bin` is still in place,
        // so the stray `wal.tmp` is discarded.
        std::fs::write(dir.join("wal.tmp"), header_bytes(99)).unwrap();
        let (recovered, j) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(j.next_seq(), n + 1);
        assert_eq!(recovered.ops.len(), 1);
        assert_eq!(file_names(&dir), ["snapshot.bin", "wal.bin"]);
        drop(j);

        // No `wal.bin` beside it (the segmented layout renamed the old WAL
        // away before moving its replacement in): `wal.tmp` is promoted.
        std::fs::rename(dir.join("wal.bin"), dir.join("wal.tmp")).unwrap();
        let (recovered, j) = Journal::open(&dir, JournalConfig::default()).unwrap();
        assert_eq!(j.next_seq(), n + 1);
        assert_eq!(recovered.ops.len(), 1);
        assert_eq!(recovered.ops[0].0, n);
        assert_eq!(file_names(&dir), ["snapshot.bin", "wal.bin"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let dir = temp_dir("badsnap");
        {
            let mut j = Journal::create(&dir, JournalConfig::default()).unwrap();
            j.append(&Op::PruneResolved.encode()).unwrap();
            j.write_snapshot(b"payload").unwrap();
        }
        let snap = dir.join("snapshot.bin");
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        match Journal::open(&dir, JournalConfig::default()) {
            Err(JournalError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
