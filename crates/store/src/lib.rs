//! # isop-store — append-only, sharded on-disk evaluation store
//!
//! The persistence layer that turns "one CLI run" into reusable shared
//! state. Two kinds of facts are worth keeping across processes:
//!
//! * **Accurate EM evaluations** ([`EvalRecord`]) — the scarce resource
//!   the whole pipeline economizes. A design simulated by yesterday's job
//!   never needs to be simulated again.
//! * **Trained surrogate models** ([`ModelRecord`]) — a zoo fitted for a
//!   given `(space fingerprint, config fingerprint, data fingerprint)` is
//!   bit-reusable by every subsequent run on that space.
//!
//! ## Layout
//!
//! A store is a directory of `shard_NNN.bin` files. Entries hash to a
//! shard by `space_id % n_shards` (the 48-bit `DesignKey` space
//! fingerprint), so one optimization run touches exactly the shards of the
//! spaces it works on — loads are **lazy per fingerprint**, never
//! whole-store. Each shard is:
//!
//! ```text
//! header:  magic "ISOPSTR1" | schema u32 LE | n_shards u32 LE
//! record*: payload_len u32 LE | kind u8 | fnv1a(payload) u64 LE | payload
//! ```
//!
//! Records are **append-only**. A flush appends only the pending frames
//! to the end of each dirty shard in one write, and checksums only those
//! frames, so its cost follows the records written, not the records
//! stored. A shard file is written whole (to a temp file renamed into
//! place) only when it is created, healed, or compacted.
//!
//! **Crash model.** No write is fsynced. A killed process leaves at worst
//! a torn tail: its last frame half-written. Readers skip and count it
//! (`store.records_skipped`), as they do a checksum-failing record in the
//! middle of a file — one bad record costs itself, a torn tail costs only
//! the tail. A shard whose load skipped a frame is healed by its first
//! flush, which rewrites it whole from its valid records plus the pending
//! ones, so no record ever lands behind a torn frame.
//!
//! **Eval index.** Loading a shard decodes its eval records into one
//! [`EvalIndex`] per space (one entry per design, the last record wins)
//! and keeps no raw copy of them. [`Store::eval_index`] hands out an `Arc`
//! snapshot of that index: the holder's view stays frozen while later
//! flushes fold their appends into the store's own copy.
//!
//! Duplicate records are legal — later appends supersede earlier ones at
//! read time (last record wins). [`Store::compact`] drops the superseded
//! generations; compaction is idempotent.
//!
//! ## Cross-job accounting
//!
//! Counters tick on the store's [`Telemetry`] handle: `store.shard_loads`,
//! `store.records_loaded`, `store.records_skipped`,
//! `store.records_written`. Hits served from records written by a
//! *previous* process are the store's reason to exist, so they get
//! first-class accounting: consumers report them via
//! [`Store::note_cross_job_hit`], and each flush folds the tally into a
//! persistent meta record that `stats` sums across all generations.
//!
//! Payloads use the exact-bit [`codec`]: every `f64` is stored as its raw
//! bit pattern, which is what lets a warm run replay a cold run — cached
//! metrics, attempt counts, and model weights — **bit for bit**.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;

use codec::{fnv1a, read_varint, write_varint, CodecError};
use isop_telemetry::{Counter, Telemetry};
use serde::json::Value;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shard-file magic, 8 bytes.
pub const STORE_MAGIC: [u8; 8] = *b"ISOPSTR1";
/// On-disk schema version; bump on breaking record-layout changes.
pub const STORE_SCHEMA_VERSION: u32 = 1;
/// Shard count of a freshly created store. Existing stores keep the count
/// their shard headers declare.
pub const DEFAULT_SHARDS: u32 = 8;

const HEADER_LEN: usize = 16;
/// Frame prefix: payload_len u32 | kind u8 | checksum u64.
const FRAME_PREFIX: usize = 4 + 1 + 8;

/// Typed record kinds of the shard frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// One accurate EM evaluation ([`EvalRecord`]).
    Eval = 0,
    /// One trained surrogate model ([`ModelRecord`]).
    Model = 1,
    /// Cross-job hit tally appended at flush ([`Store::note_cross_job_hit`]).
    Meta = 2,
    /// One daemon job-journal state transition ([`JobRecord`]).
    Job = 3,
}

impl RecordKind {
    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(RecordKind::Eval),
            1 => Some(RecordKind::Model),
            2 => Some(RecordKind::Meta),
            3 => Some(RecordKind::Job),
            _ => None,
        }
    }
}

/// One cached accurate EM evaluation, keyed by the design's canonical
/// identity (space fingerprint + grid levels). Metrics are `[Z, L, NEXT]`
/// raw — this crate is a leaf and deliberately does not know the
/// simulator's result type.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// 48-bit space fingerprint of the defining parameter space.
    pub space_id: u64,
    /// Grid level of each parameter, in space order.
    pub levels: Vec<u32>,
    /// `[Z, L, NEXT]` of the successful simulation, exact bits.
    pub metrics: [f64; 3],
    /// Attempts the original evaluation took, including the final success.
    pub attempts: u32,
}

impl EvalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 2 * self.levels.len() + 28);
        out.extend_from_slice(&self.space_id.to_le_bytes());
        write_varint(self.levels.len() as u64, &mut out);
        for &level in &self.levels {
            write_varint(u64::from(level), &mut out);
        }
        for m in self.metrics {
            out.extend_from_slice(&m.to_bits().to_le_bytes());
        }
        write_varint(u64::from(self.attempts), &mut out);
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0;
        let space_id = read_u64(bytes, &mut pos)?;
        let n = read_varint(bytes, &mut pos)?;
        let mut levels = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let level = read_varint(bytes, &mut pos)?;
            levels.push(u32::try_from(level).map_err(|_| bad("level overflows u32"))?);
        }
        let mut metrics = [0.0f64; 3];
        for m in &mut metrics {
            *m = f64::from_bits(read_u64(bytes, &mut pos)?);
        }
        let attempts = read_varint(bytes, &mut pos)?;
        let attempts = u32::try_from(attempts).map_err(|_| bad("attempts overflows u32"))?;
        if pos != bytes.len() {
            return Err(bad("trailing bytes in eval record"));
        }
        Ok(Self {
            space_id,
            levels,
            metrics,
            attempts,
        })
    }

    /// Record identity for compaction: later records with the same key
    /// supersede earlier ones.
    fn identity(&self) -> Vec<u8> {
        let mut id = self.space_id.to_le_bytes().to_vec();
        for &level in &self.levels {
            id.extend_from_slice(&level.to_le_bytes());
        }
        id
    }
}

/// One trained surrogate model, keyed by the triple that makes retraining
/// provably redundant: the space it serves, the fingerprint of its
/// *unfitted* configuration, and the fingerprint of the training data.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRecord {
    /// 48-bit space fingerprint the model was trained for.
    pub space_id: u64,
    /// FNV-1a over the canonical encoding of the unfitted model.
    pub config_fp: u64,
    /// FNV-1a over the training dataset's shape and exact f64 bits.
    pub data_fp: u64,
    /// Model name (e.g. `"MLPR"`), a human-readable disambiguator.
    pub name: String,
    /// The fitted model's serialized `Value` tree, exact f64 bits.
    pub payload: Value,
}

impl ModelRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.name.len());
        out.extend_from_slice(&self.space_id.to_le_bytes());
        out.extend_from_slice(&self.config_fp.to_le_bytes());
        out.extend_from_slice(&self.data_fp.to_le_bytes());
        write_varint(self.name.len() as u64, &mut out);
        out.extend_from_slice(self.name.as_bytes());
        codec::encode_value(&self.payload, &mut out);
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0;
        let space_id = read_u64(bytes, &mut pos)?;
        let config_fp = read_u64(bytes, &mut pos)?;
        let data_fp = read_u64(bytes, &mut pos)?;
        let name_len = read_varint(bytes, &mut pos)? as usize;
        let end = pos
            .checked_add(name_len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| bad("truncated model name"))?;
        let name = std::str::from_utf8(&bytes[pos..end])
            .map_err(|_| bad("invalid UTF-8 model name"))?
            .to_string();
        pos = end;
        let payload = codec::decode_value(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(bad("trailing bytes in model record"));
        }
        Ok(Self {
            space_id,
            config_fp,
            data_fp,
            name,
            payload,
        })
    }

    fn identity(&self) -> Vec<u8> {
        let mut id = Vec::with_capacity(24 + self.name.len());
        id.extend_from_slice(&self.space_id.to_le_bytes());
        id.extend_from_slice(&self.config_fp.to_le_bytes());
        id.extend_from_slice(&self.data_fp.to_le_bytes());
        id.extend_from_slice(self.name.as_bytes());
        id
    }
}

/// Lifecycle state a [`JobRecord`] frame records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum JobState {
    /// The daemon accepted the submission into an epoch queue; the payload
    /// is the full job spec, so a restart can rebuild the frozen queue.
    Submitted = 0,
    /// The job's epoch began executing.
    Started = 1,
    /// The job resolved; the payload is the full job result, so a restart
    /// replays it verbatim instead of re-running.
    Finished = 2,
}

impl JobState {
    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(JobState::Submitted),
            1 => Some(JobState::Started),
            2 => Some(JobState::Finished),
            _ => None,
        }
    }
}

/// One job-journal state transition: a daemon appends `Submitted` /
/// `Started` / `Finished` frames as a job moves through its epoch, and a
/// restarted daemon replays the frames (in file order) to resume exactly
/// where the killed process stopped. Payloads are opaque `Value` trees —
/// the store stays a leaf and does not know the job spec/result types.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Streaming-admission epoch the job was frozen into.
    pub epoch: u64,
    /// Which transition this frame records.
    pub state: JobState,
    /// The job's submission id (unique across the daemon's lifetime).
    pub job_id: String,
    /// Spec (`Submitted`), empty (`Started`), or result (`Finished`) tree,
    /// exact f64 bits through the binary codec.
    pub payload: Value,
}

impl JobRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.job_id.len());
        write_varint(self.epoch, &mut out);
        out.push(self.state as u8);
        write_varint(self.job_id.len() as u64, &mut out);
        out.extend_from_slice(self.job_id.as_bytes());
        codec::encode_value(&self.payload, &mut out);
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0;
        let epoch = read_varint(bytes, &mut pos)?;
        let state = *bytes.get(pos).ok_or_else(|| bad("truncated job state"))?;
        pos += 1;
        let state = JobState::from_u8(state).ok_or_else(|| bad("unknown job state"))?;
        let id_len = read_varint(bytes, &mut pos)? as usize;
        let end = pos
            .checked_add(id_len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| bad("truncated job id"))?;
        let job_id = std::str::from_utf8(&bytes[pos..end])
            .map_err(|_| bad("invalid UTF-8 job id"))?
            .to_string();
        pos = end;
        let payload = codec::decode_value(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(bad("trailing bytes in job record"));
        }
        Ok(Self {
            epoch,
            state,
            job_id,
            payload,
        })
    }

    /// Identity is the full `(epoch, state, job_id)` transition, so a
    /// duplicated frame collapses under compaction while the three
    /// transitions of one job all survive as distinct records.
    fn identity(&self) -> Vec<u8> {
        let mut id = Vec::with_capacity(10 + self.job_id.len());
        id.extend_from_slice(&self.epoch.to_le_bytes());
        id.push(self.state as u8);
        id.extend_from_slice(self.job_id.as_bytes());
        id
    }
}

fn bad(msg: &str) -> CodecError {
    CodecError::new(msg)
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let end = pos
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| bad("truncated u64"))?;
    let raw: [u8; 8] = bytes[*pos..end].try_into().expect("8 bytes");
    *pos = end;
    Ok(u64::from_le_bytes(raw))
}

/// One raw record frame held in memory: the kind byte plus the payload
/// bytes exactly as they sit (or will sit) on disk.
#[derive(Debug, Clone)]
struct RawRecord {
    kind: RecordKind,
    payload: Vec<u8>,
}

impl RawRecord {
    /// Compaction identity: records with equal identity supersede each
    /// other (last wins); `None` means the record never supersedes
    /// (undecodable payloads are kept verbatim only until compaction).
    fn identity(&self) -> Option<Vec<u8>> {
        match self.kind {
            RecordKind::Eval => EvalRecord::decode(&self.payload).ok().map(|r| r.identity()),
            RecordKind::Model => ModelRecord::decode(&self.payload)
                .ok()
                .map(|r| r.identity()),
            RecordKind::Job => JobRecord::decode(&self.payload).ok().map(|r| r.identity()),
            // Meta tallies are summed, not superseded.
            RecordKind::Meta => None,
        }
    }
}

/// Appends one on-disk frame (prefix + payload) to `out`.
fn encode_frame(kind: RecordKind, payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One stored evaluation as an [`EvalIndex`] holds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredEval {
    /// `[Z, L, NEXT]` of the successful simulation, exact bits.
    pub metrics: [f64; 3],
    /// Attempts the original evaluation took, including the final success.
    pub attempts: u32,
}

/// The decoded evaluations of one design space: one entry per design,
/// keyed by its grid levels. A later record of a design supersedes an
/// earlier one — the same rule compaction applies.
#[derive(Debug, Clone, Default)]
pub struct EvalIndex {
    entries: HashMap<Box<[u32]>, StoredEval>,
}

impl EvalIndex {
    /// The stored evaluation of the design at `levels`, if any.
    #[must_use]
    pub fn get(&self, levels: &[u32]) -> Option<StoredEval> {
        self.entries.get(levels).copied()
    }

    /// Number of designs held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no design is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every design's levels and evaluation, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], StoredEval)> {
        self.entries.iter().map(|(levels, eval)| (&**levels, *eval))
    }

    /// The index as records of `space_id`, sorted by levels.
    fn records(&self, space_id: u64) -> Vec<EvalRecord> {
        let mut out: Vec<EvalRecord> = self
            .iter()
            .map(|(levels, eval)| EvalRecord {
                space_id,
                levels: levels.to_vec(),
                metrics: eval.metrics,
                attempts: eval.attempts,
            })
            .collect();
        out.sort_by(|a, b| a.levels.cmp(&b.levels));
        out
    }

    fn insert(&mut self, record: EvalRecord) {
        self.entries.insert(
            record.levels.into_boxed_slice(),
            StoredEval {
                metrics: record.metrics,
                attempts: record.attempts,
            },
        );
    }
}

/// Per-shard in-memory state: the file is read lazily, at most once, and
/// pending appends wait for the next flush.
#[derive(Debug, Default)]
struct ShardState {
    loaded: bool,
    /// Bytes of the shard file this process accounts for: its length at
    /// load plus every append since (0 = no file yet).
    disk_len: u64,
    /// The load skipped a frame, or an append failed part-way: the next
    /// flush rewrites the file whole instead of appending to it.
    damaged: bool,
    /// Decoded eval records by space fingerprint. Readers hold `Arc`
    /// snapshots; a flush into a snapshotted space copies it first.
    evals: HashMap<u64, Arc<EvalIndex>>,
    /// Valid model, meta and journal records, in file order.
    records: Vec<RawRecord>,
    /// Appends since the last flush.
    pending: Vec<RawRecord>,
}

impl ShardState {
    /// Folds one valid frame into the in-memory image. An eval payload
    /// that does not decode is left out; it stays on disk until compaction.
    fn absorb(&mut self, kind: RecordKind, payload: &[u8]) {
        if kind != RecordKind::Eval {
            self.records.push(RawRecord {
                kind,
                payload: payload.to_vec(),
            });
        } else if let Ok(eval) = EvalRecord::decode(payload) {
            Arc::make_mut(self.evals.entry(eval.space_id).or_default()).insert(eval);
        }
    }
}

/// Aggregate result of one [`Store::flush`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Pending records written.
    pub records_written: u64,
    /// Shard files the pending frames were appended to, in one write each.
    pub shards_appended: u64,
    /// Shard files written whole, atomically via temp + rename: created,
    /// or healed after their load skipped a frame.
    pub shards_rewritten: u64,
}

/// Aggregate result of one [`Store::compact`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Records before compaction (across all shards, pending included).
    pub records_before: u64,
    /// Records after dropping superseded generations.
    pub records_after: u64,
}

/// Per-shard outcome of one [`Store::verify`] scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardVerify {
    /// Shard index.
    pub shard: u32,
    /// Records whose checksum and payload decoded cleanly.
    pub valid: u64,
    /// Records skipped: checksum mismatch, undecodable payload, or a
    /// truncated tail.
    pub skipped: u64,
    /// File size in bytes.
    pub bytes: u64,
}

/// Aggregate counts of one [`Store::stats`] scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Shard files present on disk.
    pub shards: u32,
    /// Shard count the store hashes over (files may not all exist yet).
    pub n_shards: u32,
    /// Valid evaluation records.
    pub eval_records: u64,
    /// Valid model records.
    pub model_records: u64,
    /// Valid job-journal records.
    pub job_records: u64,
    /// Records skipped during the scan.
    pub skipped: u64,
    /// Total bytes across shard files.
    pub bytes: u64,
    /// Cross-job hits accumulated by every past flush's meta tally.
    pub cross_job_hits: u64,
}

/// The append-only, sharded evaluation store. Thread-safe: consumers share
/// one instance behind an `Arc`.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    n_shards: u32,
    telemetry: Telemetry,
    shards: Mutex<Vec<ShardState>>,
    /// Cross-job hits observed this process, folded into a meta record at
    /// the next flush.
    cross_job_hits: AtomicU64,
}

impl Store {
    /// Opens (creating if absent) the store at `dir` with the default
    /// shard count. An existing store keeps the shard count its headers
    /// declare — the count is a property of the directory, not the caller.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and header corruption (bad magic or a
    /// schema-version mismatch).
    pub fn open(dir: &Path) -> io::Result<Self> {
        Self::open_with_shards(dir, DEFAULT_SHARDS)
    }

    /// [`Store::open`] with an explicit shard count for new stores.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and header corruption.
    pub fn open_with_shards(dir: &Path, n_shards: u32) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut n_shards = n_shards.max(1);
        // Adopt the shard count of the first existing shard header so two
        // processes can never disagree on the hash ring.
        let mut existing: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("shard_") && n.ends_with(".bin"))
            })
            .collect();
        existing.sort();
        if let Some(first) = existing.first() {
            let header = read_header(first)?;
            n_shards = header;
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            n_shards,
            telemetry: Telemetry::disabled(),
            shards: Mutex::new((0..n_shards).map(|_| ShardState::default()).collect()),
            cross_job_hits: AtomicU64::new(0),
        })
    }

    /// Routes `store.*` counters to `telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shard count of the hash ring.
    #[must_use]
    pub fn n_shards(&self) -> u32 {
        self.n_shards
    }

    /// The shard a space fingerprint hashes to.
    #[must_use]
    pub fn shard_of(&self, space_id: u64) -> u32 {
        (space_id % u64::from(self.n_shards)) as u32
    }

    fn shard_path(&self, shard: u32) -> PathBuf {
        self.dir.join(format!("shard_{shard:03}.bin"))
    }

    /// Locks the shard table, recovering from poisoning: a job thread that
    /// panicked while holding the lock must not turn every later probe and
    /// flush into a panic cascade (fatal for a daemon). Recovery is sound
    /// because the in-memory image is only ever *extended* under the lock
    /// (loaded flag, index inserts, record/pending pushes), and a flush
    /// whose write fails re-queues its frames and marks the shard for a
    /// whole rewrite — disk state heals whatever a torn update left behind.
    fn lock_shards(&self) -> std::sync::MutexGuard<'_, Vec<ShardState>> {
        self.shards
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Reads the shard file into `state` if not yet loaded: evals into the
    /// per-space index, other records raw. Corrupt records are skipped and
    /// counted, and mark the shard for healing at its next flush.
    fn ensure_loaded(&self, state: &mut ShardState, shard: u32) -> io::Result<()> {
        if state.loaded {
            return Ok(());
        }
        state.loaded = true;
        let path = self.shard_path(shard);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        self.telemetry.incr(Counter::StoreShardLoads);
        let mut loaded = 0u64;
        let skipped = parse_shard(&bytes, &path, |kind, payload| {
            loaded += 1;
            state.absorb(kind, payload);
        })?;
        self.telemetry.add(Counter::StoreRecordsLoaded, loaded);
        self.telemetry.add(Counter::StoreRecordsSkipped, skipped);
        state.disk_len = bytes.len() as u64;
        state.damaged = skipped > 0;
        Ok(())
    }

    /// A snapshot of the evaluations stored for `space_id`: every record
    /// loaded from or flushed to its shard, last write wins. Appends still
    /// pending join the store's index at the next flush, never a snapshot
    /// already handed out — the holder's view is frozen. Once the shard is
    /// loaded, a snapshot costs one `Arc` clone.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; corrupt records are skipped, not
    /// fatal.
    pub fn eval_index(&self, space_id: u64) -> io::Result<Arc<EvalIndex>> {
        let shard = self.shard_of(space_id);
        let mut shards = self.lock_shards();
        let state = &mut shards[shard as usize];
        self.ensure_loaded(state, shard)?;
        Ok(state.evals.get(&space_id).cloned().unwrap_or_default())
    }

    /// The latest stored evaluation of every design of `space_id`, sorted
    /// by levels: the contents of [`Store::eval_index`] as records.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; corrupt records are skipped, not
    /// fatal.
    pub fn load_evals(&self, space_id: u64) -> io::Result<Vec<EvalRecord>> {
        Ok(self.eval_index(space_id)?.records(space_id))
    }

    /// The latest stored evaluation of every design across every shard,
    /// sorted by shard, space, then levels — the bulk read behind
    /// `isop cache export`. Pending appends are not included.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; corrupt records are skipped.
    pub fn load_all_evals(&self) -> io::Result<Vec<EvalRecord>> {
        let mut shards = self.lock_shards();
        let mut out = Vec::new();
        for shard in 0..self.n_shards {
            let state = &mut shards[shard as usize];
            self.ensure_loaded(state, shard)?;
            let mut spaces: Vec<_> = state.evals.iter().collect();
            spaces.sort_by_key(|(&space_id, _)| space_id);
            for (&space_id, index) in spaces {
                out.extend(index.records(space_id));
            }
        }
        Ok(out)
    }

    /// Buffers one evaluation for the next [`Store::flush`].
    pub fn append_eval(&self, record: &EvalRecord) {
        let shard = self.shard_of(record.space_id);
        let mut shards = self.lock_shards();
        shards[shard as usize].pending.push(RawRecord {
            kind: RecordKind::Eval,
            payload: record.encode(),
        });
    }

    /// The latest stored model for the exact `(space, config, data, name)`
    /// key, or `None`. Later records supersede earlier ones.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; corrupt records are skipped.
    pub fn get_model(
        &self,
        space_id: u64,
        config_fp: u64,
        data_fp: u64,
        name: &str,
    ) -> io::Result<Option<ModelRecord>> {
        let shard = self.shard_of(space_id);
        let mut shards = self.lock_shards();
        let state = &mut shards[shard as usize];
        self.ensure_loaded(state, shard)?;
        let mut found = None;
        for rec in state.records.iter().chain(state.pending.iter()) {
            if rec.kind != RecordKind::Model {
                continue;
            }
            if let Ok(model) = ModelRecord::decode(&rec.payload) {
                if model.space_id == space_id
                    && model.config_fp == config_fp
                    && model.data_fp == data_fp
                    && model.name == name
                {
                    found = Some(model);
                }
            }
        }
        Ok(found)
    }

    /// Buffers one trained model for the next [`Store::flush`].
    pub fn put_model(&self, record: &ModelRecord) {
        let shard = self.shard_of(record.space_id);
        let mut shards = self.lock_shards();
        shards[shard as usize].pending.push(RawRecord {
            kind: RecordKind::Model,
            payload: record.encode(),
        });
    }

    /// Buffers one job-journal transition for the next [`Store::flush`].
    /// Journal frames all live on shard 0, so their relative order — the
    /// order replay depends on — is exactly file order.
    pub fn append_job(&self, record: &JobRecord) {
        let mut shards = self.lock_shards();
        shards[0].pending.push(RawRecord {
            kind: RecordKind::Job,
            payload: record.encode(),
        });
    }

    /// Every journal transition in file order (pending appends included),
    /// the order a restarted daemon replays.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; corrupt records are skipped, not
    /// fatal.
    pub fn load_jobs(&self) -> io::Result<Vec<JobRecord>> {
        let mut shards = self.lock_shards();
        let state = &mut shards[0];
        self.ensure_loaded(state, 0)?;
        let mut out = Vec::new();
        for rec in state.records.iter().chain(state.pending.iter()) {
            if rec.kind != RecordKind::Job {
                continue;
            }
            if let Ok(job) = JobRecord::decode(&rec.payload) {
                out.push(job);
            }
        }
        Ok(out)
    }

    /// Records one hit served from a record a previous process wrote
    /// (ticks `store.cross_job_hits`; the tally persists at the next
    /// flush).
    pub fn note_cross_job_hit(&self) {
        self.telemetry.incr(Counter::StoreCrossJobHits);
        self.cross_job_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Writes every shard's pending records, folding this process's
    /// cross-job hit tally into a meta record on shard 0. Each dirty shard
    /// gets its pending frames appended in one write; a shard with no file
    /// yet, or whose load skipped a frame, is instead written whole (temp
    /// file + rename), which heals it. Flushed evals join the store's eval
    /// index. A flush with nothing pending and no hits is a complete no-op
    /// — no file is touched.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. The failing shard keeps its pending
    /// records and is rewritten whole by the next flush.
    pub fn flush(&self) -> io::Result<FlushStats> {
        let mut shards = self.lock_shards();
        let hits = self.cross_job_hits.swap(0, Ordering::Relaxed);
        if hits > 0 {
            let mut payload = Vec::new();
            write_varint(hits, &mut payload);
            shards[0].pending.push(RawRecord {
                kind: RecordKind::Meta,
                payload,
            });
        }
        let mut stats = FlushStats::default();
        for shard in 0..self.n_shards {
            let state = &mut shards[shard as usize];
            if state.pending.is_empty() {
                continue;
            }
            // Load first: an append must know whether the file is damaged,
            // and the index must hold the file's records before these.
            self.ensure_loaded(state, shard)?;
            let pending = std::mem::take(&mut state.pending);
            let mut frames = Vec::new();
            for rec in &pending {
                encode_frame(rec.kind, &rec.payload, &mut frames);
            }
            let written = if state.damaged || state.disk_len == 0 {
                stats.shards_rewritten += 1;
                self.rewrite_shard(shard, state.disk_len, &frames)
            } else {
                stats.shards_appended += 1;
                self.append_frames(shard, &frames)
                    .map(|()| state.disk_len + frames.len() as u64)
            };
            match written {
                Ok(len) => {
                    state.disk_len = len;
                    state.damaged = false;
                }
                Err(e) => {
                    // A failed append may have left a partial frame behind.
                    state.damaged = true;
                    state.pending = pending;
                    return Err(e);
                }
            }
            stats.records_written += pending.len() as u64;
            for rec in &pending {
                state.absorb(rec.kind, &rec.payload);
            }
        }
        self.telemetry
            .add(Counter::StoreRecordsWritten, stats.records_written);
        Ok(stats)
    }

    /// Appends encoded `frames` to the end of the shard file in one write.
    fn append_frames(&self, shard: u32, frames: &[u8]) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .append(true)
            .open(self.shard_path(shard))?
            .write_all(frames)
    }

    /// Writes the shard whole: the valid records among the first
    /// `committed` bytes of its file (bytes past them are an append that
    /// failed part-way), then `frames`. Returns the new file length.
    fn rewrite_shard(&self, shard: u32, committed: u64, frames: &[u8]) -> io::Result<u64> {
        let mut body = Vec::new();
        if committed > 0 {
            let path = self.shard_path(shard);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            };
            if !bytes.is_empty() {
                let end = bytes.len().min(committed as usize);
                parse_shard(&bytes[..end], &path, |kind, payload| {
                    encode_frame(kind, payload, &mut body);
                })?;
            }
        }
        body.extend_from_slice(frames);
        self.write_shard(shard, &body)
    }

    /// Atomically replaces the shard file with a header plus `frames`
    /// (temp file + rename). Returns the new file length.
    fn write_shard(&self, shard: u32, frames: &[u8]) -> io::Result<u64> {
        let mut bytes = Vec::with_capacity(HEADER_LEN + frames.len());
        bytes.extend_from_slice(&STORE_MAGIC);
        bytes.extend_from_slice(&STORE_SCHEMA_VERSION.to_le_bytes());
        bytes.extend_from_slice(&self.n_shards.to_le_bytes());
        bytes.extend_from_slice(frames);
        let path = self.shard_path(shard);
        let tmp = self.dir.join(format!("shard_{shard:03}.bin.tmp"));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(bytes.len() as u64)
    }

    /// Drops superseded record generations: within each shard, only the
    /// last record per identity survives, and meta tallies collapse into
    /// one summed record. Pending appends are flushed first, then every
    /// shard file is re-read from disk; a shard that shrinks is rewritten
    /// whole (temp file + rename). Idempotent — compacting a compacted
    /// store rewrites nothing further.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn compact(&self) -> io::Result<CompactStats> {
        self.flush()?;
        let mut shards = self.lock_shards();
        let mut stats = CompactStats::default();
        for shard in 0..self.n_shards {
            let path = self.shard_path(shard);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let mut records = Vec::new();
            parse_shard(&bytes, &path, |kind, payload| {
                records.push(RawRecord {
                    kind,
                    payload: payload.to_vec(),
                });
            })?;
            stats.records_before += records.len() as u64;
            let compacted = compact_records(&records);
            stats.records_after += compacted.len() as u64;
            if compacted.len() == records.len() {
                continue;
            }
            let mut frames = Vec::new();
            for rec in &compacted {
                encode_frame(rec.kind, &rec.payload, &mut frames);
            }
            let disk_len = self.write_shard(shard, &frames)?;
            let mut state = ShardState {
                loaded: true,
                disk_len,
                ..ShardState::default()
            };
            for rec in &compacted {
                state.absorb(rec.kind, &rec.payload);
            }
            shards[shard as usize] = state;
        }
        Ok(stats)
    }

    /// Re-scans every shard file from disk (ignoring in-memory state) and
    /// reports per-shard valid/skipped/byte counts. Read-only.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (a missing shard file is simply
    /// absent, not an error).
    pub fn verify(&self) -> io::Result<Vec<ShardVerify>> {
        let mut out = Vec::new();
        for shard in 0..self.n_shards {
            let path = self.shard_path(shard);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            // verify decodes payloads too — a record whose checksum holds
            // but whose payload no longer parses is as unusable as a torn
            // one.
            let mut valid = 0u64;
            let mut undecodable = 0u64;
            let torn = parse_shard(&bytes, &path, |kind, payload| {
                let ok = match kind {
                    RecordKind::Eval => EvalRecord::decode(payload).is_ok(),
                    RecordKind::Model => ModelRecord::decode(payload).is_ok(),
                    RecordKind::Meta => read_varint(payload, &mut 0).is_ok(),
                    RecordKind::Job => JobRecord::decode(payload).is_ok(),
                };
                if ok {
                    valid += 1;
                } else {
                    undecodable += 1;
                }
            })?;
            let skipped = torn + undecodable;
            out.push(ShardVerify {
                shard,
                valid,
                skipped,
                bytes: bytes.len() as u64,
            });
        }
        Ok(out)
    }

    /// Aggregate record counts from a fresh disk scan. Read-only.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn stats(&self) -> io::Result<StoreStats> {
        let mut stats = StoreStats {
            n_shards: self.n_shards,
            ..StoreStats::default()
        };
        for shard in 0..self.n_shards {
            let path = self.shard_path(shard);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            stats.shards += 1;
            stats.bytes += bytes.len() as u64;
            stats.skipped += parse_shard(&bytes, &path, |kind, payload| match kind {
                RecordKind::Eval => stats.eval_records += 1,
                RecordKind::Model => stats.model_records += 1,
                RecordKind::Job => stats.job_records += 1,
                RecordKind::Meta => {
                    stats.cross_job_hits += read_varint(payload, &mut 0).unwrap_or(0);
                }
            })?;
        }
        Ok(stats)
    }
}

/// Validates the header of `path` and returns its declared shard count.
/// Reads only the header's bytes, not the shard behind it.
fn read_header(path: &Path) -> io::Result<u32> {
    use std::io::Read;
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    std::fs::File::open(path)?
        .take(HEADER_LEN as u64)
        .read_to_end(&mut bytes)?;
    parse_header(&bytes, path)
}

fn parse_header(bytes: &[u8], path: &Path) -> io::Result<u32> {
    if bytes.len() < HEADER_LEN {
        return Err(io::Error::other(format!(
            "{}: truncated store header",
            path.display()
        )));
    }
    if bytes[..8] != STORE_MAGIC {
        return Err(io::Error::other(format!(
            "{}: not an isop store shard (bad magic)",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != STORE_SCHEMA_VERSION {
        return Err(io::Error::other(format!(
            "{}: store schema v{version} != supported v{STORE_SCHEMA_VERSION}",
            path.display()
        )));
    }
    let n_shards = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if n_shards == 0 {
        return Err(io::Error::other(format!(
            "{}: store header declares zero shards",
            path.display()
        )));
    }
    Ok(n_shards)
}

/// Walks a shard file's frames, calling `visit(kind, payload)` on each
/// record whose checksum holds, in file order, and returns the skipped
/// count. A checksum-failing record with intact framing is skipped alone;
/// a torn frame (truncated length/payload or an unknown kind) ends the
/// scan, costing one more skip for the tail.
fn parse_shard(
    bytes: &[u8],
    path: &Path,
    mut visit: impl FnMut(RecordKind, &[u8]),
) -> io::Result<u64> {
    parse_header(bytes, path)?;
    let mut skipped = 0u64;
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        if pos + FRAME_PREFIX > bytes.len() {
            skipped += 1; // torn tail: partial frame prefix
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let kind = bytes[pos + 4];
        let checksum = u64::from_le_bytes(bytes[pos + 5..pos + 13].try_into().expect("8 bytes"));
        let body_start = pos + FRAME_PREFIX;
        let Some(body_end) = body_start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            skipped += 1; // torn tail: payload runs past EOF
            break;
        };
        let Some(kind) = RecordKind::from_u8(kind) else {
            // An unknown kind byte means the frame stream itself is not
            // trustworthy past this point.
            skipped += 1;
            break;
        };
        let payload = &bytes[body_start..body_end];
        if fnv1a(payload) == checksum {
            visit(kind, payload);
        } else {
            skipped += 1; // framing intact, payload corrupt: skip just it
        }
        pos = body_end;
    }
    Ok(skipped)
}

/// Keep-last-per-identity compaction, preserving first-appearance order of
/// the survivors; meta tallies sum into a single record.
fn compact_records(records: &[RawRecord]) -> Vec<RawRecord> {
    let mut meta_total = 0u64;
    let mut keep: Vec<RawRecord> = Vec::new();
    let mut slot_of: HashMap<Vec<u8>, usize> = HashMap::new();
    for rec in records {
        if rec.kind == RecordKind::Meta {
            meta_total += read_varint(&rec.payload, &mut 0).unwrap_or(0);
            continue;
        }
        match rec.identity() {
            Some(id) => match slot_of.get(&id) {
                Some(&at) => keep[at] = rec.clone(),
                None => {
                    slot_of.insert(id, keep.len());
                    keep.push(rec.clone());
                }
            },
            None => keep.push(rec.clone()),
        }
    }
    if meta_total > 0 {
        let mut payload = Vec::new();
        write_varint(meta_total, &mut payload);
        keep.push(RawRecord {
            kind: RecordKind::Meta,
            payload,
        });
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("isop-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn eval(space_id: u64, level: u32, z: f64) -> EvalRecord {
        EvalRecord {
            space_id,
            levels: vec![level, level + 1],
            metrics: [z, -0.4, -3.25],
            attempts: 2,
        }
    }

    #[test]
    fn evals_round_trip_across_reopen() {
        let dir = temp_dir("reopen");
        let store = Store::open(&dir).expect("opens");
        store.append_eval(&eval(7, 0, 85.0));
        store.append_eval(&eval(7, 1, f64::from_bits(0x8000_0000_0000_0000))); // -0.0
        let flushed = store.flush().expect("flushes");
        assert_eq!(flushed.records_written, 2);
        drop(store);

        let fresh = Store::open(&dir).expect("reopens");
        let evals = fresh.load_evals(7).expect("loads");
        assert_eq!(evals.len(), 2);
        assert_eq!(evals[0], eval(7, 0, 85.0));
        assert_eq!(
            evals[1].metrics[0].to_bits(),
            0x8000_0000_0000_0000,
            "-0.0 must survive the disk round-trip bit-exactly"
        );
        // Other spaces on the same shard ring load nothing.
        assert!(fresh
            .load_evals(7 + u64::from(fresh.n_shards()))
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_with_nothing_pending_touches_no_file() {
        let dir = temp_dir("noop");
        let store = Store::open(&dir).expect("opens");
        let stats = store.flush().expect("flushes");
        assert_eq!(stats, FlushStats::default());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_count_is_a_property_of_the_directory() {
        let dir = temp_dir("ring");
        let store = Store::open_with_shards(&dir, 3).expect("opens");
        store.append_eval(&eval(5, 0, 80.0));
        store.flush().expect("flushes");
        drop(store);
        // A reopen with a different requested count adopts the on-disk ring.
        let fresh = Store::open_with_shards(&dir, 16).expect("reopens");
        assert_eq!(fresh.n_shards(), 3);
        assert_eq!(fresh.load_evals(5).expect("loads").len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn models_supersede_by_key_and_survive_reopen() {
        let dir = temp_dir("model");
        let store = Store::open(&dir).expect("opens");
        let model = |w: f64| ModelRecord {
            space_id: 11,
            config_fp: 0xdead_beef_dead_beef, // full 64 bits, no JSON mantissa
            data_fp: 42,
            name: "MLPR".to_string(),
            payload: Value::Arr(vec![Value::Num(w)]),
        };
        store.put_model(&model(1.0));
        store.put_model(&model(2.0));
        store.flush().expect("flushes");
        drop(store);

        let fresh = Store::open(&dir).expect("reopens");
        let got = fresh
            .get_model(11, 0xdead_beef_dead_beef, 42, "MLPR")
            .expect("reads")
            .expect("present");
        assert_eq!(got.payload, Value::Arr(vec![Value::Num(2.0)]));
        assert!(fresh
            .get_model(11, 0xdead_beef_dead_beef, 43, "MLPR")
            .expect("reads")
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_is_skipped_not_fatal() {
        let dir = temp_dir("corrupt");
        let store = Store::open(&dir).expect("opens");
        store.append_eval(&eval(3, 0, 85.0));
        store.append_eval(&eval(3, 1, 86.0));
        store.flush().expect("flushes");
        let shard = store.shard_of(3);
        let path = dir.join(format!("shard_{shard:03}.bin"));
        drop(store);

        // Flip one payload byte of the first record: checksum now fails.
        let mut bytes = std::fs::read(&path).expect("reads");
        bytes[HEADER_LEN + FRAME_PREFIX + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("writes");

        let tele = Telemetry::enabled();
        let fresh = Store::open(&dir)
            .expect("opens")
            .with_telemetry(tele.clone());
        let evals = fresh.load_evals(3).expect("loads");
        assert_eq!(evals.len(), 1, "only the intact record survives");
        assert_eq!(evals[0].metrics[0], 86.0);
        assert_eq!(tele.counter(Counter::StoreRecordsSkipped), 1);
        assert_eq!(tele.counter(Counter::StoreRecordsLoaded), 1);
        assert_eq!(tele.counter(Counter::StoreShardLoads), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_tail_recovers_and_flush_heals_it() {
        let dir = temp_dir("torn");
        let store = Store::open(&dir).expect("opens");
        store.append_eval(&eval(9, 0, 85.0));
        store.append_eval(&eval(9, 1, 86.0));
        store.flush().expect("flushes");
        let shard = store.shard_of(9);
        let path = dir.join(format!("shard_{shard:03}.bin"));
        drop(store);

        // Tear mid-way through the second record's payload.
        let bytes = std::fs::read(&path).expect("reads");
        std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("writes");

        let fresh = Store::open(&dir).expect("opens");
        assert_eq!(fresh.load_evals(9).expect("loads").len(), 1);
        // A new append + flush rewrites the shard whole: the torn tail is
        // gone and both the survivor and the new record verify clean.
        fresh.append_eval(&eval(9, 2, 87.0));
        fresh.flush().expect("flushes");
        let verify = fresh.verify().expect("verifies");
        let v = verify.iter().find(|v| v.shard == shard).expect("shard");
        assert_eq!((v.valid, v.skipped), (2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `open` rejects a first shard shorter than the header and one with a
    /// bad magic, naming the file, and accepts a valid header however
    /// long the shard behind it is.
    #[test]
    fn open_checks_only_the_first_shard_header() {
        let dir = temp_dir("header");
        let store = Store::open(&dir).expect("opens");
        store.append_eval(&eval(3, 0, 85.0));
        store.flush().expect("flushes");
        let name = format!("shard_{:03}.bin", store.shard_of(3));
        drop(store);
        let path = dir.join(&name);
        let good = std::fs::read(&path).expect("reads");
        assert!(good.len() > HEADER_LEN);

        std::fs::write(&path, &good[..HEADER_LEN - 1]).expect("writes");
        let err = Store::open(&dir).expect_err("short header fails");
        assert!(err.to_string().contains("truncated store header"), "{err}");
        assert!(err.to_string().contains(&name), "{err}");

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).expect("writes");
        let err = Store::open(&dir).expect_err("bad magic fails");
        assert!(err.to_string().contains("bad magic"), "{err}");

        std::fs::write(&path, &good).expect("writes");
        assert!(Store::open(&dir).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn job_frame(id: &str) -> JobRecord {
        JobRecord {
            epoch: 0,
            state: JobState::Started,
            job_id: id.to_string(),
            payload: Value::Null,
        }
    }

    /// A flush appends: the populated shard keeps its inode, its old bytes
    /// stay a byte-identical prefix, and it grows by exactly the new
    /// frame — whether or not this handle had read the shard before.
    #[cfg(unix)]
    #[test]
    fn flush_appends_one_frame_in_place() {
        use std::os::unix::fs::MetadataExt;
        let dir = temp_dir("append");
        let store = Store::open_with_shards(&dir, 1).expect("opens");
        for level in 0..50 {
            store.append_eval(&eval(5, level, 85.0));
        }
        store.append_job(&job_frame("a"));
        store.flush().expect("flushes");
        let path = dir.join("shard_000.bin");
        let before = std::fs::read(&path).expect("reads");
        let ino = std::fs::metadata(&path).expect("stat").ino();
        let reopened = Store::open(&dir).expect("reopens");
        // The writing handle, then one that has not read the shard yet.
        for (store, id) in [(&store, "b"), (&reopened, "c")] {
            let frame = job_frame(id);
            let old = std::fs::read(&path).expect("reads");
            store.append_job(&frame);
            let stats = store.flush().expect("flushes");
            assert_eq!(
                stats,
                FlushStats {
                    records_written: 1,
                    shards_appended: 1,
                    shards_rewritten: 0,
                }
            );
            let new = std::fs::read(&path).expect("reads");
            assert_eq!(std::fs::metadata(&path).expect("stat").ino(), ino);
            assert_eq!(&new[..old.len()], &old[..], "old bytes are a prefix");
            assert_eq!(new.len(), old.len() + FRAME_PREFIX + frame.encode().len());
        }
        assert!(std::fs::read(&path).expect("reads").starts_with(&before));
        let last = Store::open(&dir).expect("reopens");
        assert_eq!(last.load_jobs().expect("loads").len(), 3);
        assert_eq!(last.load_evals(5).expect("loads").len(), 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn tail on a shard this handle never read before its first
    /// append is healed by that flush: the new record cannot land behind
    /// the torn frame.
    #[test]
    fn torn_tail_of_an_unread_shard_is_healed_by_the_first_flush() {
        let dir = temp_dir("torn-unread");
        let store = Store::open(&dir).expect("opens");
        store.append_eval(&eval(9, 0, 85.0));
        store.append_eval(&eval(9, 1, 86.0));
        store.flush().expect("flushes");
        let path = dir.join(format!("shard_{:03}.bin", store.shard_of(9)));
        drop(store);
        let bytes = std::fs::read(&path).expect("reads");
        std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("tears");

        let fresh = Store::open(&dir).expect("opens");
        fresh.append_eval(&eval(9, 2, 87.0));
        let stats = fresh.flush().expect("flushes");
        assert_eq!((stats.shards_appended, stats.shards_rewritten), (0, 1));
        let reopened = Store::open(&dir).expect("reopens");
        let levels: Vec<u32> = reopened
            .load_evals(9)
            .expect("loads")
            .iter()
            .map(|e| e.levels[0])
            .collect();
        assert_eq!(levels, vec![0, 2], "the survivor and the new record");
        let v = reopened.verify().expect("verifies");
        assert_eq!(v.iter().map(|v| v.skipped).sum::<u64>(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checksum-corrupt record in the middle of a shard is healed by the
    /// shard's first flush, and later flushes go back to appending.
    #[test]
    fn mid_file_corrupt_record_is_healed_by_the_first_flush() {
        let dir = temp_dir("corrupt-heal");
        let store = Store::open_with_shards(&dir, 1).expect("opens");
        for level in 0..3 {
            store.append_eval(&eval(3, level, 85.0));
        }
        store.flush().expect("flushes");
        drop(store);
        let path = dir.join("shard_000.bin");
        let mut bytes = std::fs::read(&path).expect("reads");
        let frame = FRAME_PREFIX + eval(3, 0, 85.0).encode().len();
        bytes[HEADER_LEN + frame + FRAME_PREFIX + 2] ^= 0xFF; // second record
        std::fs::write(&path, &bytes).expect("corrupts");

        let fresh = Store::open(&dir).expect("opens");
        fresh.append_eval(&eval(3, 7, 88.0));
        assert_eq!(fresh.flush().expect("heals").shards_rewritten, 1);
        let v = fresh.verify().expect("verifies");
        assert_eq!((v[0].valid, v[0].skipped), (3, 0));
        fresh.append_eval(&eval(3, 8, 89.0));
        assert_eq!(fresh.flush().expect("appends").shards_appended, 1);
        let levels: Vec<u32> = Store::open(&dir)
            .expect("reopens")
            .load_evals(3)
            .expect("loads")
            .iter()
            .map(|e| e.levels[0])
            .collect();
        assert_eq!(levels, vec![0, 2, 7, 8]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A flush whose append fails keeps its records pending; the next
    /// flush writes the shard whole with them.
    #[test]
    fn failed_append_keeps_its_records_for_the_next_flush() {
        let dir = temp_dir("append-fail");
        let store = Store::open_with_shards(&dir, 1).expect("opens");
        store.append_eval(&eval(4, 0, 85.0));
        store.flush().expect("flushes");
        let path = dir.join("shard_000.bin");
        std::fs::remove_file(&path).expect("removes");
        store.append_eval(&eval(4, 1, 86.0));
        assert!(store.flush().is_err(), "nothing to append to");
        assert_eq!(store.load_evals(4).expect("loads").len(), 1, "not flushed");
        let stats = store.flush().expect("rewrites");
        assert_eq!((stats.records_written, stats.shards_rewritten), (1, 1));
        let v = store.verify().expect("verifies");
        assert_eq!((v[0].valid, v[0].skipped), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Snapshots are frozen: a flush folds its appends into the store's
    /// index, never into an `Arc` already handed out, and the index keeps
    /// the last record of a design.
    #[test]
    fn eval_index_snapshots_are_frozen_and_last_write_wins() {
        let dir = temp_dir("snapshot");
        let store = Store::open(&dir).expect("opens");
        store.append_eval(&eval(6, 0, 85.0));
        store.append_eval(&EvalRecord {
            attempts: 5,
            ..eval(6, 0, 85.0)
        });
        store.flush().expect("flushes");
        let before = store.eval_index(6).expect("indexes");
        assert_eq!(before.len(), 1);
        assert_eq!(before.get(&[0, 1]).expect("held").attempts, 5);
        store.append_eval(&eval(6, 1, 86.0));
        assert_eq!(store.eval_index(6).expect("indexes").len(), 1, "pending");
        store.flush().expect("flushes");
        assert_eq!(before.len(), 1, "the snapshot did not move");
        assert_eq!(store.eval_index(6).expect("indexes").len(), 2);
        assert!(store.eval_index(7).expect("indexes").is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_drops_superseded_and_is_idempotent() {
        let dir = temp_dir("compact");
        let store = Store::open(&dir).expect("opens");
        for attempt in 1..=3u32 {
            store.append_eval(&EvalRecord {
                attempts: attempt,
                ..eval(4, 0, 85.0)
            });
        }
        store.append_eval(&eval(4, 9, 90.0));
        store.note_cross_job_hit();
        store.note_cross_job_hit();
        let first = store.compact().expect("compacts");
        assert_eq!(first.records_before, 5); // 4 evals + 1 meta
        assert_eq!(first.records_after, 3); // survivor + distinct + meta
                                            // Last write wins.
        let evals = store.load_evals(4).expect("loads");
        assert_eq!(evals.iter().find(|e| e.levels[0] == 0).unwrap().attempts, 3);
        let second = store.compact().expect("compacts again");
        assert_eq!(second.records_before, second.records_after);
        assert_eq!(store.stats().expect("stats").cross_job_hits, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_and_verify_report_disk_truth() {
        let dir = temp_dir("stats");
        let store = Store::open(&dir).expect("opens");
        store.append_eval(&eval(1, 0, 85.0));
        store.put_model(&ModelRecord {
            space_id: 2,
            config_fp: 1,
            data_fp: 2,
            name: "RFR".to_string(),
            payload: Value::Null,
        });
        store.flush().expect("flushes");
        let stats = store.stats().expect("stats");
        assert_eq!(stats.eval_records, 1);
        assert_eq!(stats.model_records, 1);
        assert_eq!(stats.skipped, 0);
        assert!(stats.bytes > 0);
        assert!(stats.shards >= 1);
        let verify = store.verify().expect("verifies");
        assert_eq!(verify.iter().map(|v| v.valid).sum::<u64>(), 2);
        assert_eq!(verify.iter().map(|v| v.skipped).sum::<u64>(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_journal_round_trips_in_file_order() {
        let dir = temp_dir("journal");
        let store = Store::open(&dir).expect("opens");
        let frame = |epoch: u64, state: JobState, id: &str, v: f64| JobRecord {
            epoch,
            state,
            job_id: id.to_string(),
            payload: Value::Obj(vec![("em".to_string(), Value::Num(v))]),
        };
        store.append_job(&frame(0, JobState::Submitted, "a", -0.0));
        store.append_job(&frame(0, JobState::Submitted, "b", 1.5));
        store.append_job(&frame(0, JobState::Started, "a", 0.0));
        store.append_job(&frame(0, JobState::Finished, "a", 42.25));
        // Pending frames are visible before the flush.
        assert_eq!(store.load_jobs().expect("loads pending").len(), 4);
        store.flush().expect("flushes");
        drop(store);

        let fresh = Store::open(&dir).expect("reopens");
        let jobs = fresh.load_jobs().expect("loads");
        assert_eq!(jobs.len(), 4);
        assert_eq!(
            jobs.iter()
                .map(|j| (j.state, j.job_id.as_str()))
                .collect::<Vec<_>>(),
            vec![
                (JobState::Submitted, "a"),
                (JobState::Submitted, "b"),
                (JobState::Started, "a"),
                (JobState::Finished, "a"),
            ],
            "replay order must be submission/transition order"
        );
        // -0.0 survives the payload round-trip bit-exactly.
        let Value::Obj(entries) = &jobs[0].payload else {
            panic!("payload shape")
        };
        let Value::Num(em) = entries[0].1 else {
            panic!("payload field")
        };
        assert_eq!(em.to_bits(), (-0.0f64).to_bits());
        assert_eq!(fresh.stats().expect("stats").job_records, 4);
        // A duplicated transition collapses under compaction; the three
        // distinct transitions of job "a" all survive.
        fresh.append_job(&frame(0, JobState::Finished, "a", 42.25));
        fresh.compact().expect("compacts");
        assert_eq!(fresh.load_jobs().expect("after compact").len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One panicking job thread must not poison the store for everyone
    /// else: a lock held across a panic recovers, and the next flush still
    /// lands its records.
    #[test]
    fn poisoned_store_lock_recovers() {
        let dir = temp_dir("poison");
        let store = std::sync::Arc::new(Store::open(&dir).expect("opens"));
        store.append_eval(&eval(3, 0, 85.0));
        let poisoner = std::sync::Arc::clone(&store);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shards.lock().expect("first lock is clean");
            panic!("poison the shard table");
        })
        .join();
        assert!(store.shards.lock().is_err(), "lock should be poisoned");
        store.append_eval(&eval(3, 1, 86.0));
        let flushed = store.flush().expect("flush survives poisoning");
        assert_eq!(flushed.records_written, 2);
        assert_eq!(store.load_evals(3).expect("load survives").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_mismatch_is_an_explicit_error() {
        let dir = temp_dir("schema");
        let store = Store::open(&dir).expect("opens");
        store.append_eval(&eval(0, 0, 85.0));
        store.flush().expect("flushes");
        let path = dir.join("shard_000.bin");
        drop(store);
        let mut bytes = std::fs::read(&path).expect("reads");
        bytes[8] = 99; // version
        std::fs::write(&path, &bytes).expect("writes");
        assert!(Store::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
