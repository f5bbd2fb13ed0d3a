//! Crash-safe durable checkpoint store: the persistence layer under the
//! checkpoint/resume seam. Checkpoints are stored one per file, keyed by
//! `(config_fingerprint, barrier_ns)` — the identity [`Checkpoint`]
//! carries in its own header — so hour-scale drives can be built up
//! incrementally *across processes*: one process captures a barrier, a
//! later one resumes from it byte-identically.
//!
//! Entries use the verified framing of [`crate::durable`] (shared with
//! the av-serve result spool) as [`FORMAT`]: magic `AVCKPTS1`, store
//! version 1, the checkpoint bytes as payload, named
//! `<fingerprint:016x>-<barrier_ns:016x>.ckpt`. This module adds the
//! payload check (a checkpoint whose header carries the entry's key),
//! the `(fingerprint, barrier)` index, resume lookups, and eviction:
//! [`CkptStore::gc`] is deterministic — given the same entries and byte
//! budget it keeps the newest barrier per fingerprint preferentially
//! and evicts in `(barrier, fingerprint)` order.

use crate::durable::{DurableStore, Format, Key, FRAME_BYTES};
use crate::stack::Checkpoint;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;

pub use crate::durable::{QuarantinedEntry, RecoveryReport, StoreFault, StoreFaultPlan};

/// The checkpoint store's entry format.
pub const FORMAT: Format = Format { magic: *b"AVCKPTS1", version: 1, extension: "ckpt" };

/// Everything the store knows about one published entry without
/// re-reading its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryInfo {
    /// Full configuration fingerprint the entry is keyed by.
    pub fingerprint: u64,
    /// Barrier virtual time the entry is keyed by, nanoseconds.
    pub barrier_ns: u64,
    /// Blackout-stripped fingerprint (the prefix-sharing identity).
    pub fingerprint_stripped: u64,
    /// Earliest blackout start of the captured configuration, seconds.
    pub earliest_blackout_s: Option<f64>,
    /// Whether the captured run was tracing.
    pub traced: bool,
    /// Total size of the entry file, bytes.
    pub file_bytes: u64,
}

impl EntryInfo {
    fn of(checkpoint: &Checkpoint) -> EntryInfo {
        let header = checkpoint.header();
        EntryInfo {
            fingerprint: header.fingerprint,
            barrier_ns: header.barrier_ns,
            fingerprint_stripped: header.fingerprint_stripped,
            earliest_blackout_s: header.earliest_blackout_s,
            traced: header.traced,
            file_bytes: (FRAME_BYTES + checkpoint.size_bytes()) as u64,
        }
    }

    fn key(&self) -> Key {
        (self.fingerprint, self.barrier_ns)
    }

    /// Barrier virtual time, seconds.
    pub fn barrier_s(&self) -> f64 {
        self.barrier_ns as f64 / 1e9
    }

    /// The entry's file name inside the store directory.
    pub fn file_name(&self) -> String {
        FORMAT.file_name(self.key())
    }
}

/// What one [`CkptStore::gc`] pass did.
#[derive(Debug)]
pub struct GcReport {
    /// Store size before the pass, bytes.
    pub bytes_before: u64,
    /// Store size after the pass, bytes.
    pub bytes_after: u64,
    /// Entries deleted, in eviction order.
    pub evicted: Vec<EntryInfo>,
    /// Entries surviving the pass.
    pub kept: usize,
}

/// The payload check the framing runs on every entry: the payload must
/// parse as a checkpoint whose own header carries the entry's key.
fn check_checkpoint(key: Key, payload: &[u8]) -> Result<Checkpoint, String> {
    let checkpoint = Checkpoint::from_bytes(payload.to_vec())
        .map_err(|e| format!("checkpoint payload rejected: {e}"))?;
    if EntryInfo::of(&checkpoint).key() != key {
        return Err("key mismatch between store header and checkpoint payload".to_string());
    }
    Ok(checkpoint)
}

/// The durable checkpoint store (see the module docs). Thread-safe
/// within a process; across processes, concurrent writers are safe and
/// a reader racing another process's `gc` simply misses the evicted
/// entry.
#[derive(Debug)]
pub struct CkptStore {
    store: DurableStore,
    index: Mutex<BTreeMap<Key, EntryInfo>>,
}

impl CkptStore {
    /// Opens (or creates) a store at `dir`, running the framing's
    /// recovery scan with the checkpoint payload check.
    pub fn open(dir: &Path) -> io::Result<(CkptStore, RecoveryReport)> {
        let (store, loaded, report) = DurableStore::open(dir, FORMAT, |key, payload| {
            check_checkpoint(key, payload).map(|checkpoint| EntryInfo::of(&checkpoint))
        })?;
        let index = Mutex::new(loaded.into_iter().map(|e| (e.key(), e)).collect());
        Ok((CkptStore { store, index }, report))
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// The quarantine directory (entries set aside plus `.reason`
    /// sidecars).
    pub fn quarantine_dir(&self) -> &Path {
        self.store.quarantine_dir()
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.index.lock().unwrap().len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes across all indexed entries.
    pub fn total_bytes(&self) -> u64 {
        self.index.lock().unwrap().values().map(|e| e.file_bytes).sum()
    }

    /// Every indexed entry, sorted by `(fingerprint, barrier)`.
    pub fn entries(&self) -> Vec<EntryInfo> {
        self.index.lock().unwrap().values().cloned().collect()
    }

    /// File names currently in quarantine (reason sidecars excluded),
    /// sorted.
    pub fn quarantined(&self) -> io::Result<Vec<String>> {
        self.store.quarantined()
    }

    /// Persists a checkpoint through the framing's outbox write. The
    /// key is read from the checkpoint's own header. Re-putting an
    /// existing key atomically replaces the entry with identical bytes
    /// (checkpoints are content-addressed: same key ⇒ same bytes).
    pub fn put(&self, checkpoint: &Checkpoint) -> io::Result<EntryInfo> {
        let entry = EntryInfo::of(checkpoint);
        self.store.put(entry.key(), checkpoint.as_bytes())?;
        self.index.lock().unwrap().insert(entry.key(), entry.clone());
        Ok(entry)
    }

    /// Simulates a writer dying mid-[`put`](CkptStore::put) according
    /// to `fault`. The entry is **not** registered in this process's
    /// index — the writer is dead; whatever landed on disk is what the
    /// next [`CkptStore::open`] finds.
    pub fn put_with_fault(&self, checkpoint: &Checkpoint, fault: StoreFault) -> io::Result<()> {
        let key = EntryInfo::of(checkpoint).key();
        self.store.put_with_fault(key, checkpoint.as_bytes(), fault)
    }

    /// Reads and re-verifies one entry. A verification failure — the
    /// entry rotted since the open scan — quarantines it, drops it from
    /// the index and returns `None`; it never hands back bytes the
    /// checksum does not vouch for.
    pub fn load(&self, fingerprint: u64, barrier_ns: u64) -> Option<Checkpoint> {
        let key = (fingerprint, barrier_ns);
        if !self.index.lock().unwrap().contains_key(&key) {
            return None;
        }
        let loaded = self.store.read(key, check_checkpoint);
        if loaded.is_none() {
            self.index.lock().unwrap().remove(&key);
        }
        loaded
    }

    /// The newest verifiable checkpoint for `fingerprint` with barrier
    /// at most `max_barrier_ns` and matching tracing mode. Falls back
    /// to the next-newest barrier when a candidate turns out corrupt
    /// (which quarantines it), so resume always lands on the best entry
    /// the checksums vouch for.
    pub fn best_resume(
        &self,
        fingerprint: u64,
        traced: bool,
        max_barrier_ns: u64,
    ) -> Option<Checkpoint> {
        let candidates: Vec<u64> = {
            let index = self.index.lock().unwrap();
            index
                .range((fingerprint, 0)..=(fingerprint, max_barrier_ns))
                .filter(|(_, e)| e.traced == traced)
                .map(|(&(_, barrier), _)| barrier)
                .rev()
                .collect()
        };
        candidates.into_iter().find_map(|barrier| self.load(fingerprint, barrier))
    }

    /// The checkpoint sharing a blackout-stripped identity with
    /// `fingerprint_stripped` at exactly `barrier_ns` (matching tracing
    /// mode, captured under a configuration whose blackouts all start
    /// strictly after the barrier) — the prefix-sharing lookup sweeps
    /// use to reuse a prior session's shared barriers. Prefers an exact
    /// full-fingerprint match, then the smallest qualifying fingerprint
    /// (deterministic).
    pub fn best_prefix(
        &self,
        fingerprint: u64,
        fingerprint_stripped: u64,
        traced: bool,
        barrier_ns: u64,
    ) -> Option<Checkpoint> {
        let barrier_s = barrier_ns as f64 / 1e9;
        let candidates: Vec<u64> = {
            let index = self.index.lock().unwrap();
            let mut fps: Vec<u64> = index
                .iter()
                .filter(|(&(_, b), e)| {
                    b == barrier_ns
                        && e.traced == traced
                        && e.fingerprint_stripped == fingerprint_stripped
                        && e.earliest_blackout_s.is_none_or(|s| s > barrier_s)
                })
                .map(|(&(fp, _), _)| fp)
                .collect();
            fps.sort();
            if let Some(pos) = fps.iter().position(|&fp| fp == fingerprint) {
                fps.swap(0, pos);
            }
            fps
        };
        candidates.into_iter().find_map(|fp| self.load(fp, barrier_ns))
    }

    /// Deterministic eviction down to `max_bytes`: the newest barrier
    /// of every fingerprint is kept preferentially; victims are evicted
    /// in `(barrier, fingerprint)` order until the budget holds. When
    /// the keepers alone still exceed the budget they are evicted in
    /// the same order (so `gc(0)` empties the store). This is the only
    /// code path that deletes entries, and the report names every one.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let mut index = self.index.lock().unwrap();
        let bytes_before: u64 = index.values().map(|e| e.file_bytes).sum();
        let mut newest: BTreeMap<u64, u64> = BTreeMap::new();
        for &(fp, barrier) in index.keys() {
            let slot = newest.entry(fp).or_insert(barrier);
            *slot = (*slot).max(barrier);
        }
        let mut victims: Vec<(u64, u64)> = index
            .keys()
            .filter(|&&(fp, barrier)| newest[&fp] != barrier)
            .map(|&(fp, barrier)| (barrier, fp))
            .collect();
        victims.sort();
        let mut keepers: Vec<(u64, u64)> = newest.iter().map(|(&fp, &b)| (b, fp)).collect();
        keepers.sort();
        victims.extend(keepers);

        let mut bytes_after = bytes_before;
        let mut evicted = Vec::new();
        for (barrier, fp) in victims {
            if bytes_after <= max_bytes {
                break;
            }
            let entry = index.remove(&(fp, barrier)).expect("victim is indexed");
            self.store.remove(entry.key())?;
            bytes_after -= entry.file_bytes;
            evicted.push(entry);
        }
        Ok(GcReport { bytes_before, bytes_after, evicted, kept: index.len() })
    }

    /// Deletes entries for `fingerprint` — one barrier, or every
    /// barrier when `barrier_ns` is `None`. Returns how many were
    /// removed. Explicit operator surface (`ckpt rm`); like `gc`, it
    /// reports rather than hides what it deletes.
    pub fn remove(&self, fingerprint: u64, barrier_ns: Option<u64>) -> io::Result<Vec<EntryInfo>> {
        let mut index = self.index.lock().unwrap();
        let keys: Vec<Key> = index
            .range((fingerprint, 0)..=(fingerprint, u64::MAX))
            .filter(|(&(_, b), _)| barrier_ns.is_none_or(|want| want == b))
            .map(|(&k, _)| k)
            .collect();
        let mut removed = Vec::new();
        for key in keys {
            let entry = index.remove(&key).expect("key is indexed");
            self.store.remove(key)?;
            removed.push(entry);
        }
        Ok(removed)
    }
}
