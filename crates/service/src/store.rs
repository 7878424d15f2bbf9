//! Persistent verified certificate store: warm restarts without
//! trusting disk.
//!
//! HyperBench-class workloads are dominated by repeated instances of
//! the same shapes, so a server restart that discards the in-memory
//! result cache pays the full decomposition cost again. This module
//! backs the cache with an **append-only log** of solved outcomes keyed
//! by the canonical fingerprint, and — because `htd-check` can
//! independently re-verify any certificate — a reopened store is
//! **re-proved, not believed**: every record must survive the oracle
//! before it may serve a request.
//!
//! ## Log record layout (`store.log`)
//!
//! Fixed little-endian framing, one record per admitted outcome:
//!
//! ```text
//! magic    u32  = 0x53445448  ("HTDS")
//! len      u32  — payload length in bytes
//! checksum u64  — FNV-1a over the payload bytes
//! payload  [len]u8 — one JSON object:
//!   {"v":1,"objective":"tw","format":"gr","instance":"<text>",
//!    "fingerprint":"<hex>","canonical_len":N,"effort_ms":E,
//!    "outcome":{…Outcome schema…}}
//! ```
//!
//! The payload carries the original instance *text*, not just the
//! canonical bytes: the oracle needs a [`Problem`](htd_search::Problem)
//! to judge the witness against, and re-parsing the instance plus re-deriving its canonical
//! form from scratch means a tampered instance/outcome pairing cannot
//! slip through on a stale key.
//!
//! ## Recovery rules (crash tolerance)
//!
//! * A record whose header or payload extends past end-of-file is a
//!   **truncated tail** — the expected residue of a crash (`kill -9`)
//!   mid-append. It is skipped silently (counted in
//!   [`StoreStats::truncated`]) and the log is truncated back to the
//!   last whole record so the next append produces a clean log.
//! * A record with intact framing but a **checksum mismatch**, an
//!   unparseable payload, a fingerprint that does not match the
//!   re-derived canonical form, or an outcome the **oracle rejects**
//!   ([`htd_check::verify_store_entry`]) is *tampered or stale*: the
//!   record is dropped, counted in [`StoreStats::rejected`] (which
//!   `/metrics` renders as `htd_store_rejects_total`), and the scan
//!   continues at the next record (the framing tells us where
//!   it starts).
//! * A corrupt **magic** means the framing itself can no longer be
//!   trusted; the remainder of the log is abandoned (counted as one
//!   reject) and truncated away.
//!
//! A request whose entry was dropped simply misses the warm cache and
//! recomputes — the store can cost time, never correctness.
//!
//! ## Exclusive ownership (`flock`)
//!
//! The log is single-writer by design: two servers appending to the
//! same `store.log` would interleave frames and corrupt both histories.
//! `CertStore::open` therefore takes an **advisory exclusive `flock`**
//! on the log and fails fast with a structured error when another
//! process (or another store in this process) already holds it —
//! pointing two `htd serve --store` instances at one directory is a
//! deployment mistake the server refuses at startup, never a latent
//! corruption.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use htd_core::Json;
use htd_hypergraph::canonical::fnv1a;
use htd_search::Outcome;
use parking_lot::Mutex;

use crate::protocol::{parse_problem, InstanceFormat};

/// `"HTDS"` in little-endian byte order.
const MAGIC: u32 = 0x5344_5448;
/// Largest accepted payload; anything bigger is treated as corruption
/// rather than an instruction to allocate without bound.
const MAX_PAYLOAD: u32 = 64 << 20;
/// Record schema version inside the payload.
const RECORD_VERSION: u64 = 1;

/// One verified entry recovered from (or destined for) the log.
#[derive(Clone, Debug)]
pub struct StoreRecord {
    /// Objective wire name (`tw`/`ghw` — `hw` is not store-admissible,
    /// see [`htd_check::verify_store_entry`]).
    pub objective: &'static str,
    /// How `instance` parses.
    pub format: InstanceFormat,
    /// The original instance text.
    pub instance: String,
    /// 64-bit canonical fingerprint (shard + log label).
    pub fingerprint: u64,
    /// Full canonical byte serialization — the exact cache key.
    pub canonical: Vec<u8>,
    /// Solve effort that produced the outcome (cache admission gate for
    /// inexact entries).
    pub effort_ms: u64,
    /// The outcome itself.
    pub outcome: Outcome,
}

/// A record's identity in the log: objective name and canonical bytes.
type Key = (&'static str, Vec<u8>);

/// What happened while opening a log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records that survived checksum + oracle and were admitted.
    pub loaded: u64,
    /// Records dropped as tampered/stale (checksum, parse, fingerprint
    /// or oracle failure).
    pub rejected: u64,
    /// Half-written records skipped at the tail (crash residue).
    pub truncated: u64,
}

/// The append-only verified certificate store.
pub struct CertStore {
    path: PathBuf,
    file: Mutex<File>,
    /// Canonical keys already present, so repeated solves of the same
    /// instance do not grow the log without bound.
    keys: Mutex<HashSet<Key>>,
    stats: StoreStats,
    appended: AtomicU64,
    bytes: AtomicU64,
}

impl CertStore {
    /// Opens (creating if needed) the store under `dir`, scanning and
    /// re-verifying the whole log. Returns the store plus the verified
    /// records, ready to warm a result cache.
    pub fn open(dir: &Path) -> std::io::Result<(CertStore, Vec<StoreRecord>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("store.log");
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        lock_exclusive(&file, &path)?;
        let mut raw = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut raw)?;

        let _sp = htd_trace::span!("store.load");
        let log = scan(&raw);
        let (stats, keep) = (log.stats, log.keep);
        if keep < raw.len() {
            // drop the unreadable tail so the next append starts clean
            file.set_len(keep as u64)?;
            file.seek(SeekFrom::End(0))?;
        }
        Ok((
            CertStore {
                path,
                file: Mutex::new(file),
                keys: Mutex::new(log.keys.into_keys().collect()),
                stats,
                appended: AtomicU64::new(0),
                bytes: AtomicU64::new(keep as u64),
            },
            log.records,
        ))
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Load-time statistics of this open.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Records appended since this open.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Current log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Re-reads and re-verifies the whole log, returning the surviving
    /// records (duplicate keys keep the last verified one). Used by the
    /// cluster layer for incremental key handoff: when a peer joins or
    /// recovers, the records it now owns are extracted here and pushed
    /// over `put_cert` — where the receiver re-proves them again. This
    /// is a full scan plus oracle re-verification, so it runs only on
    /// membership transitions, never on the request path.
    pub fn replay(&self) -> std::io::Result<Vec<StoreRecord>> {
        let mut raw = Vec::new();
        {
            let mut file = self.file.lock();
            file.seek(SeekFrom::Start(0))?;
            file.read_to_end(&mut raw)?;
            file.seek(SeekFrom::End(0))?;
        }
        let _sp = htd_trace::span!("store.replay");
        Ok(scan(&raw).records)
    }

    /// Appends one record unless its key is already stored. Only
    /// outcomes the oracle could later re-admit are worth writing:
    /// callers must pass cacheable (non-degraded) outcomes with a
    /// witness; `hw` outcomes are refused here (they cannot be
    /// re-verified on load, so persisting them wastes the log).
    pub fn append(&self, rec: &StoreRecord) -> std::io::Result<bool> {
        if rec.objective == "hw" || rec.outcome.witness.is_none() {
            return Ok(false);
        }
        {
            let mut keys = self.keys.lock();
            if !keys.insert((rec.objective, rec.canonical.clone())) {
                return Ok(false); // already stored
            }
        }
        let _sp = htd_trace::span!("store.append");
        let frame = encode_frame(rec);
        let mut file = self.file.lock();
        // one write_all per record: a crash can truncate the tail record
        // but never interleave two
        file.write_all(&frame)?;
        file.flush()?;
        drop(file);
        self.appended.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(true)
    }
}

impl CertStore {
    /// Releases the advisory single-writer lock without closing the
    /// store. Called by server teardown (`wait`/`kill`) after the
    /// worker pool — the only appender — has been joined, so a reopen
    /// in the same process succeeds at once. The kernel would release
    /// the lock on drop anyway; this just makes the release
    /// deterministic.
    pub(crate) fn unlock(&self) {
        unlock_file(&self.file.lock());
    }
}

#[cfg(unix)]
fn unlock_file(file: &File) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    const LOCK_UN: i32 = 8;
    // SAFETY: `flock(2)` takes two integers and touches no memory of
    // ours; the borrow keeps `file`, and so its fd, open for the call.
    unsafe { flock(file.as_raw_fd(), LOCK_UN) };
}

#[cfg(not(unix))]
fn unlock_file(_file: &File) {}

/// Takes the advisory exclusive lock that makes the log single-writer.
/// `LOCK_EX | LOCK_NB`: a second opener gets an immediate structured
/// error instead of blocking behind (and then corrupting) the first.
/// The lock lives on the open file description and is released by the
/// kernel when the store is dropped — even on `kill -9`.
#[cfg(unix)]
fn lock_exclusive(file: &File, path: &Path) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    const LOCK_EX: i32 = 2;
    const LOCK_NB: i32 = 4;
    // SAFETY: as in `unlock_file`: integer arguments only, and the
    // borrow keeps the fd open for the call.
    if unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) } != 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            format!(
                "certificate store {} is locked by another server; \
                 the append-only log is single-writer — give each \
                 server its own --store directory",
                path.display()
            ),
        ));
    }
    Ok(())
}

#[cfg(not(unix))]
fn lock_exclusive(_file: &File, _path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// What one scan of the log recovered.
struct Scan {
    /// The last verified record of each key, in order of first appearance.
    records: Vec<StoreRecord>,
    /// Each key's index in `records`.
    keys: HashMap<Key, usize>,
    stats: StoreStats,
    /// Length of the log's trustworthy prefix: whole frames only.
    keep: usize,
}

/// Reads and re-verifies every frame of `raw` in one pass. A later
/// verified record of a key replaces the earlier one in place.
fn scan(raw: &[u8]) -> Scan {
    let mut records: Vec<StoreRecord> = Vec::new();
    let mut keys: HashMap<Key, usize> = HashMap::new();
    let mut stats = StoreStats::default();
    let mut pos = 0usize;
    while pos < raw.len() {
        let Some((payload, next)) = read_frame(raw, pos, &mut stats) else {
            break; // truncated tail or unrecoverable framing
        };
        match decode_record(payload) {
            Some(rec) => {
                stats.loaded += 1;
                match keys.entry((rec.objective, rec.canonical.clone())) {
                    Entry::Occupied(slot) => records[*slot.get()] = rec,
                    Entry::Vacant(slot) => {
                        slot.insert(records.len());
                        records.push(rec);
                    }
                }
            }
            None => stats.rejected += 1,
        }
        pos = next;
    }
    Scan {
        records,
        keys,
        stats,
        keep: pos,
    }
}

/// Pulls one framed payload out of `raw` at `pos`. Returns the payload
/// slice and the next record offset, or `None` when the scan must stop
/// (truncated tail, unrecoverable framing), updating `stats`.
fn read_frame<'a>(raw: &'a [u8], pos: usize, stats: &mut StoreStats) -> Option<(&'a [u8], usize)> {
    if raw.len() - pos < 16 {
        stats.truncated += 1;
        return None;
    }
    let magic = u32::from_le_bytes(raw[pos..pos + 4].try_into().unwrap());
    if magic != MAGIC {
        // framing lost: nothing after this offset can be trusted
        stats.rejected += 1;
        return None;
    }
    let len = u32::from_le_bytes(raw[pos + 4..pos + 8].try_into().unwrap());
    if len > MAX_PAYLOAD {
        stats.rejected += 1;
        return None;
    }
    let body = pos + 16;
    let end = body + len as usize;
    if end > raw.len() {
        stats.truncated += 1;
        return None;
    }
    let checksum = u64::from_le_bytes(raw[pos + 8..pos + 16].try_into().unwrap());
    let payload = &raw[body..end];
    if fnv1a(payload) != checksum {
        // tampered payload with intact framing: drop it, keep scanning
        stats.rejected += 1;
        return Some((b"", end));
    }
    Some((payload, end))
}

/// One log record: header (magic, payload length, checksum), then the
/// payload.
fn encode_frame(rec: &StoreRecord) -> Vec<u8> {
    let payload = Json::Obj(vec![
        ("v".into(), Json::Num(RECORD_VERSION as f64)),
        ("objective".into(), Json::Str(rec.objective.into())),
        ("format".into(), Json::Str(rec.format.name().into())),
        ("instance".into(), Json::Str(rec.instance.clone())),
        (
            "fingerprint".into(),
            Json::Str(format!("{:016x}", rec.fingerprint)),
        ),
        (
            "canonical_len".into(),
            Json::Num(rec.canonical.len() as f64),
        ),
        ("effort_ms".into(), Json::Num(rec.effort_ms as f64)),
        ("outcome".into(), rec.outcome.to_json()),
    ])
    .to_string()
    .into_bytes();
    let mut frame = Vec::with_capacity(16 + payload.len());
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Decodes and **re-verifies** one payload: parse → rebuild the problem
/// → re-derive the canonical form → match the stored fingerprint →
/// oracle-judge the outcome. Any failure returns `None` (the caller
/// counts it as a reject).
fn decode_record(payload: &[u8]) -> Option<StoreRecord> {
    if payload.is_empty() {
        return None;
    }
    let _sp = htd_trace::span!("store.verify");
    let text = std::str::from_utf8(payload).ok()?;
    let doc = Json::parse(text).ok()?;
    if doc.get("v").and_then(|v| v.as_u64()) != Some(RECORD_VERSION) {
        return None;
    }
    let objective_name = doc.get("objective").and_then(|v| v.as_str())?;
    let objective = htd_search::Objective::from_name(objective_name)?;
    let format = InstanceFormat::from_name(doc.get("format").and_then(|v| v.as_str())?)?;
    let instance = doc.get("instance").and_then(|v| v.as_str())?.to_string();
    let fingerprint =
        u64::from_str_radix(doc.get("fingerprint").and_then(|v| v.as_str())?, 16).ok()?;
    let canonical_len = doc.get("canonical_len").and_then(|v| v.as_u64())? as usize;
    let effort_ms = doc.get("effort_ms").and_then(|v| v.as_u64())?;
    let outcome = Outcome::from_json(doc.get("outcome")?).ok()?;

    let rec = verify_claim(objective, format, instance, fingerprint, effort_ms, outcome)?;
    if rec.canonical.len() != canonical_len {
        return None;
    }
    Some(rec)
}

/// The trust boundary shared by the log loader and the cluster's
/// `put_cert` handler: rebuild the problem from the claimed instance
/// text, re-derive the canonical form from scratch (the claimed
/// fingerprint is a claim, not a key), and let the oracle re-prove the
/// outcome before it may serve anyone. Any failure returns `None`.
pub(crate) fn verify_claim(
    objective: htd_search::Objective,
    format: InstanceFormat,
    instance: String,
    fingerprint: u64,
    effort_ms: u64,
    outcome: Outcome,
) -> Option<StoreRecord> {
    let (problem, key_hypergraph) = parse_problem(format, &instance, objective).ok()?;
    let canon = htd_hypergraph::canonical::canonical_form(&key_hypergraph);
    if canon.fingerprint != fingerprint {
        return None;
    }
    if !htd_check::verify_store_entry(&problem, &outcome).is_valid() {
        return None;
    }
    Some(StoreRecord {
        objective: objective.name(),
        format,
        instance,
        fingerprint,
        canonical: canon.bytes,
        effort_ms,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use htd_hypergraph::{gen, io};
    use htd_search::{solve, Objective, SearchConfig};

    fn solved_record(k: u32) -> StoreRecord {
        let g = gen::grid_graph(k, k);
        let instance = io::write_pace_gr(&g);
        let (problem, key) =
            parse_problem(InstanceFormat::PaceGr, &instance, Objective::Treewidth).unwrap();
        let outcome = solve(&problem, &SearchConfig::budgeted(200_000)).unwrap();
        let canon = htd_hypergraph::canonical::canonical_form(&key);
        StoreRecord {
            objective: "tw",
            format: InstanceFormat::PaceGr,
            instance,
            fingerprint: canon.fingerprint,
            canonical: canon.bytes,
            effort_ms: 25,
            outcome,
        }
    }

    #[test]
    fn round_trip_append_reopen() {
        let dir = std::env::temp_dir().join(format!("htd-store-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, loaded) = CertStore::open(&dir).unwrap();
        assert!(loaded.is_empty());
        let rec = solved_record(3);
        assert!(store.append(&rec).unwrap());
        // duplicate key: not appended again
        assert!(!store.append(&rec).unwrap());
        drop(store);
        let (store2, loaded) = CertStore::open(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(store2.stats().loaded, 1);
        assert_eq!(store2.stats().rejected, 0);
        assert_eq!(loaded[0].fingerprint, rec.fingerprint);
        assert_eq!(loaded[0].canonical, rec.canonical);
        assert_eq!(loaded[0].outcome.upper, rec.outcome.upper);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn second_open_of_a_locked_store_fails_fast() {
        let dir = std::env::temp_dir().join(format!("htd-store-lock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = CertStore::open(&dir).unwrap();
        let err = match CertStore::open(&dir) {
            Ok(_) => panic!("second opener must be refused"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert!(
            err.to_string().contains("locked by another server"),
            "{err}"
        );
        // the lock dies with the holder; a reopen then succeeds
        drop(store);
        let (_store, _) = CertStore::open(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_returns_the_verified_records() {
        let dir = std::env::temp_dir().join(format!("htd-store-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = CertStore::open(&dir).unwrap();
        let a = solved_record(3);
        let b = solved_record(4);
        assert!(store.append(&a).unwrap());
        assert!(store.append(&b).unwrap());
        let replayed = store.replay().unwrap();
        assert_eq!(replayed.len(), 2);
        assert!(replayed.iter().any(|r| r.fingerprint == a.fingerprint));
        assert!(replayed.iter().any(|r| r.fingerprint == b.fingerprint));
        // appends still work after a replay (cursor restored)
        let c = solved_record(5);
        assert!(store.append(&c).unwrap());
        assert_eq!(store.replay().unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_and_replay_keep_the_last_record_of_each_key() {
        let dir = std::env::temp_dir().join(format!("htd-store-dup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (solved_record(3), solved_record(4));
        let mut a2 = a.clone();
        a2.effort_ms = 99;
        // append refuses a stored key, so write the log frame by frame
        let log: Vec<u8> = [&a, &b, &a2].into_iter().flat_map(encode_frame).collect();
        std::fs::write(dir.join("store.log"), log).unwrap();
        let summary = |rs: &[StoreRecord]| {
            rs.iter()
                .map(|r| (r.fingerprint, r.effort_ms))
                .collect::<Vec<_>>()
        };
        let want = vec![(a.fingerprint, 99), (b.fingerprint, 25)];
        let (store, loaded) = CertStore::open(&dir).unwrap();
        assert_eq!(summary(&loaded), want);
        assert_eq!(store.stats().loaded, 3);
        assert_eq!(summary(&store.replay().unwrap()), want);
        // both keys count as stored
        assert!(!store.append(&a).unwrap() && !store.append(&b).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hw_and_witnessless_records_are_refused_at_append() {
        let dir = std::env::temp_dir().join(format!("htd-store-hw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (store, _) = CertStore::open(&dir).unwrap();
        let mut rec = solved_record(3);
        rec.objective = "hw";
        assert!(!store.append(&rec).unwrap());
        let mut rec = solved_record(3);
        rec.outcome.witness = None;
        assert!(!store.append(&rec).unwrap());
        assert_eq!(store.appended(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
