//! Verified durable entry files: the one on-disk framing, write path
//! and recovery scan under both durable stores — the checkpoint store
//! ([`crate::ckptstore`]) and the av-serve result spool. A store picks
//! a [`Format`] (magic, version, file extension) and a payload check;
//! everything else is decided here, once.
//!
//! ```text
//! <dir>/<key0:016x>-<key1:016x>.<ext>     published entries
//! <dir>/pending/                          outbox (writes in flight)
//! <dir>/quarantine/<name>[.reason]        entries set aside + reason sidecar
//! ```
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic ([`Format::magic`]) |
//! | 8      | 4    | format version (u32 LE) |
//! | 12     | 16   | key words 0 and 1 (u64 LE each) |
//! | 28     | 8    | payload length (u64 LE) |
//! | 36     | n    | payload |
//! | 36+n   | 8    | FNV-64 checksum over bytes `[0, 36+n)` (u64 LE) |
//!
//! A write goes to `pending/` in one buffered write, is fsynced, then
//! atomically renamed into the store (plus a best-effort directory
//! fsync), so a crash leaves at most a `pending/` leftover; media damage
//! to published bytes is caught by the checksum. [`DurableStore::open`]
//! quarantines leftovers and every entry failing verification (length,
//! magic, version, checksum, the payload check, file name ↔ key) —
//! renamed into `quarantine/` next to a reason sidecar, never deleted —
//! and reports each loudly in a [`RecoveryReport`].

use crate::determinism::fnv64;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An entry's identity: two key words, written into the frame header
/// and the file name.
pub type Key = (u64, u64);

/// Fixed bytes before the payload: magic + version + key + length.
const HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 8;
/// Bytes a frame adds around its payload (header plus checksum footer).
pub const FRAME_BYTES: usize = HEADER_BYTES + 8;

/// What distinguishes one store's entries from another's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// Magic bytes every entry opens with.
    pub magic: [u8; 8],
    /// Layout version this build reads and writes.
    pub version: u32,
    /// File extension of published entries (without the dot).
    pub extension: &'static str,
}

impl Format {
    /// The file name an entry keyed by `key` has inside the store.
    pub fn file_name(&self, key: Key) -> String {
        format!("{:016x}-{:016x}.{}", key.0, key.1, self.extension)
    }

    /// Frames one entry: header, payload, checksum footer.
    fn encode(&self, key: Key, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(FRAME_BYTES + payload.len());
        buf.extend_from_slice(&self.magic);
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.extend_from_slice(&key.0.to_le_bytes());
        buf.extend_from_slice(&key.1.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        buf.extend_from_slice(&fnv64(&buf).to_le_bytes());
        buf
    }

    /// Reads and verifies one entry file; see [`Format::verify`].
    fn verify_file<T>(
        &self,
        path: &Path,
        check: impl FnMut(Key, &[u8]) -> Result<T, String>,
    ) -> Result<T, String> {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let data = fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
        self.verify(&name, &data, check)
    }

    /// Verifies one entry end to end — frame, then `check` on the
    /// payload, then the file name against the key's canonical name —
    /// and returns what `check` made of the payload. Every failure mode
    /// gets a distinct, quotable reason.
    fn verify<T>(
        &self,
        name: &str,
        data: &[u8],
        mut check: impl FnMut(Key, &[u8]) -> Result<T, String>,
    ) -> Result<T, String> {
        let n = data.len();
        if n < FRAME_BYTES {
            return Err(format!("truncated: {n} bytes, a frame needs at least {FRAME_BYTES}"));
        }
        if data[0..8] != self.magic {
            return Err(format!("bad magic: expected {}", String::from_utf8_lossy(&self.magic)));
        }
        let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != self.version {
            let reads = self.version;
            return Err(format!("unsupported store version {version} (this build reads {reads})"));
        }
        let key = (word(12), word(20));
        let expected = (FRAME_BYTES as u64).saturating_add(word(28));
        if n as u64 != expected {
            return Err(format!("length mismatch: header promises {expected} bytes, file has {n}"));
        }
        let (stored, actual) = (word(n - 8), fnv64(&data[..n - 8]));
        if stored != actual {
            return Err(format!(
                "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            ));
        }
        let value = check(key, &data[HEADER_BYTES..n - 8])?;
        if name != self.file_name(key) {
            return Err("entry name does not match its header key".to_string());
        }
        Ok(value)
    }
}

/// One entry set aside during a recovery scan or a failed read.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedEntry {
    /// File name the entry now has inside `quarantine/`.
    pub file: String,
    /// Human-readable reason (also written to the `.reason` sidecar).
    pub reason: String,
}

/// What a recovery scan found: how many entries verified clean and
/// which were quarantined, with reasons.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Entries that verified end to end and are now indexed.
    pub loaded: usize,
    /// Entries renamed into `quarantine/`, with reasons.
    pub quarantined: Vec<QuarantinedEntry>,
}

impl RecoveryReport {
    /// `true` when nothing had to be quarantined.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// The loud one-entry-per-line report the binaries print after a
    /// recovery scan (empty when the scan was clean).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for q in &self.quarantined {
            out.push_str(&format!("QUARANTINED {}: {}\n", q.file, q.reason));
        }
        if !self.quarantined.is_empty() {
            out.push_str(&format!(
                "recovery: {} entr{} loaded, {} quarantined (bytes kept under quarantine/)\n",
                self.loaded,
                if self.loaded == 1 { "y" } else { "ies" },
                self.quarantined.len()
            ));
        }
        out
    }
}

/// One way a writer can die mid-`put`. See
/// [`DurableStore::put_with_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Only the first `keep_bytes` of the entry reach the disk, yet the
    /// rename still happens (a torn write that got published).
    TornWrite {
        /// Bytes that survive, from the front.
        keep_bytes: usize,
    },
    /// One bit of the published entry flips (`at_byte` is clamped into
    /// the entry by modulo).
    BitFlip {
        /// Byte offset whose low bit flips.
        at_byte: usize,
    },
    /// The published entry is truncated to `keep_bytes` after the
    /// rename (post-publish media damage).
    Truncate {
        /// Bytes that survive, from the front.
        keep_bytes: usize,
    },
    /// The writer dies inside the rename window: the entry is complete
    /// in `pending/` but never published.
    RenameCrash,
}

/// A seeded generator of [`StoreFault`]s: deterministic per
/// `(seed, index)`, cycling through all four modes with
/// pseudorandomly placed offsets, so a crash-window sweep can sample
/// byte offsets reproducibly.
#[derive(Debug, Clone, Copy)]
pub struct StoreFaultPlan {
    seed: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl StoreFaultPlan {
    /// A plan deriving every fault from `seed`.
    pub fn new(seed: u64) -> StoreFaultPlan {
        StoreFaultPlan { seed }
    }

    /// The `index`-th fault for an entry of `entry_len` total bytes.
    /// Cycles through the four modes; offsets land uniformly inside the
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics when `entry_len` is zero.
    pub fn fault(&self, index: u64, entry_len: usize) -> StoreFault {
        assert!(entry_len > 0, "entry_len must be positive");
        let r = splitmix64(self.seed ^ splitmix64(index));
        let offset = (r >> 2) as usize % entry_len;
        match index % 4 {
            0 => StoreFault::TornWrite { keep_bytes: offset },
            1 => StoreFault::BitFlip { at_byte: offset },
            2 => StoreFault::Truncate { keep_bytes: offset },
            _ => StoreFault::RenameCrash,
        }
    }
}

/// Renames `path` into `quarantine_dir` (appending `.2`, `.3`, … on
/// name collisions) and writes a `.reason` sidecar. Never deletes.
fn quarantine_file(quarantine_dir: &Path, path: &Path, reason: &str) -> io::Result<String> {
    let base = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
    let mut name = base.clone();
    let mut n = 1u32;
    while quarantine_dir.join(&name).exists() {
        n += 1;
        name = format!("{base}.{n}");
    }
    let target = quarantine_dir.join(&name);
    fs::rename(path, &target)?;
    fs::write(quarantine_dir.join(format!("{name}.reason")), format!("{reason}\n"))?;
    Ok(name)
}

/// Sorted paths of the files in `dir` that satisfy `keep`.
fn files(dir: &Path, keep: impl Fn(&Path) -> bool) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| keep(p) && p.is_file())
        .collect();
    paths.sort();
    Ok(paths)
}

/// A directory of verified framed entries (see the module docs). Keeps
/// no index: the consuming store indexes what [`DurableStore::open`]
/// returns. Thread-safe within a process; across processes, concurrent
/// writers are safe (atomic renames; a key's bytes are fixed by its
/// consumer's construction).
#[derive(Debug)]
pub struct DurableStore {
    format: Format,
    root: PathBuf,
    quarantine: PathBuf,
    put_seq: AtomicU64,
}

impl DurableStore {
    /// Opens (or creates) a store at `dir` and runs the recovery scan:
    /// `pending/` leftovers and entries failing verification (`check`
    /// judging the payload) are quarantined and reported; the rest come
    /// back with what `check` made of them, in file-name order.
    pub fn open<T>(
        dir: &Path,
        format: Format,
        mut check: impl FnMut(Key, &[u8]) -> Result<T, String>,
    ) -> io::Result<(DurableStore, Vec<T>, RecoveryReport)> {
        let root = dir.to_path_buf();
        let pending = root.join("pending");
        let quarantine = root.join("quarantine");
        fs::create_dir_all(&pending)?;
        fs::create_dir_all(&quarantine)?;

        let interrupted = "interrupted write: found in pending/ (writer crashed before publish)";
        let leftovers =
            files(&pending, |_| true)?.into_iter().map(|p| (p, Err(interrupted.into())));
        let published = files(&root, |p| p.extension().is_some_and(|x| x == format.extension))?;
        let verified =
            published.into_iter().map(|p| (p.clone(), format.verify_file(&p, &mut check)));
        let (mut report, mut loaded) = (RecoveryReport::default(), Vec::new());
        for (path, outcome) in leftovers.chain(verified) {
            match outcome {
                Ok(entry) => loaded.push(entry),
                Err(reason) => {
                    let file = quarantine_file(&quarantine, &path, &reason)?;
                    report.quarantined.push(QuarantinedEntry { file, reason });
                }
            }
        }
        report.loaded = loaded.len();
        let store = DurableStore { format, root, quarantine, put_seq: AtomicU64::new(0) };
        Ok((store, loaded, report))
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.root
    }

    /// The quarantine directory (entries set aside plus `.reason`
    /// sidecars).
    pub fn quarantine_dir(&self) -> &Path {
        &self.quarantine
    }

    /// File names currently in quarantine (reason sidecars excluded),
    /// sorted.
    pub fn quarantined(&self) -> io::Result<Vec<String>> {
        let entries = files(&self.quarantine, |p| p.extension().is_none_or(|x| x != "reason"))?;
        Ok(entries
            .iter()
            .map(|p| p.file_name().unwrap_or_default().to_string_lossy().into())
            .collect())
    }

    /// Persists one entry through the outbox: pending file → fsync →
    /// atomic rename → best-effort directory fsync. Re-putting an
    /// existing key atomically replaces the entry.
    pub fn put(&self, key: Key, payload: &[u8]) -> io::Result<()> {
        self.write(key, payload, None)
    }

    /// Simulates a writer dying mid-[`put`](DurableStore::put)
    /// according to `fault`, on the same write path: whatever lands on
    /// disk is what the next [`DurableStore::open`] finds.
    pub fn put_with_fault(&self, key: Key, payload: &[u8], fault: StoreFault) -> io::Result<()> {
        self.write(key, payload, Some(fault))
    }

    fn write(&self, key: Key, payload: &[u8], fault: Option<StoreFault>) -> io::Result<()> {
        let mut buf = self.format.encode(key, payload);
        let mut keep = buf.len();
        match fault {
            Some(StoreFault::TornWrite { keep_bytes }) => buf.truncate(keep_bytes),
            Some(StoreFault::BitFlip { at_byte }) => buf[at_byte % keep] ^= 1,
            Some(StoreFault::Truncate { keep_bytes }) => keep = keep_bytes.min(keep),
            _ => {}
        }
        let name = self.format.file_name(key);
        let seq = self.put_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.root.join("pending").join(format!("{name}.{seq}"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        if fault == Some(StoreFault::RenameCrash) {
            // Died inside the rename window: complete in pending/,
            // never published.
            return Ok(());
        }
        let target = self.root.join(&name);
        fs::rename(&tmp, &target)?;
        // Make the rename itself durable; best-effort (not all
        // platforms allow fsyncing a directory handle).
        if let Ok(d) = File::open(&self.root) {
            let _ = d.sync_all();
        }
        if keep < buf.len() {
            // Post-publish media damage.
            let f = fs::OpenOptions::new().write(true).open(&target)?;
            f.set_len(keep as u64)?;
            f.sync_all()?;
        }
        Ok(())
    }

    /// Reads and re-verifies one entry. A failure — the entry rotted
    /// since the open scan — quarantines it and returns `None`: never
    /// bytes the checksum does not vouch for.
    pub fn read<T>(
        &self,
        key: Key,
        check: impl FnMut(Key, &[u8]) -> Result<T, String>,
    ) -> Option<T> {
        let path = self.root.join(self.format.file_name(key));
        match self.format.verify_file(&path, check) {
            Ok(value) => Some(value),
            Err(reason) => {
                if path.exists() {
                    let _ = quarantine_file(&self.quarantine, &path, &reason);
                }
                None
            }
        }
    }

    /// Deletes one published entry. Only explicit eviction calls this.
    pub fn remove(&self, key: Key) -> io::Result<()> {
        fs::remove_file(self.root.join(self.format.file_name(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Format = Format { magic: *b"AVTEST01", version: 1, extension: "t" };

    /// A stand-in payload check: accepts only `b"good"`.
    fn good(_: Key, payload: &[u8]) -> Result<(), String> {
        if payload == b"good" {
            Ok(())
        } else {
            Err("payload rejected: not good".to_string())
        }
    }

    #[test]
    fn entry_file_names_round_trip() {
        let key = (0xdead_beef_1234_5678, 42_000_000_000);
        let name = TEST.file_name(key);
        assert_eq!(name, "deadbeef12345678-00000009c7652400.t");
        let buf = TEST.encode(key, b"good");
        assert_eq!(TEST.verify(&name, &buf, good), Ok(()));
        for other in ["nope.t", "deadbeef12345678-zzzz.t", "deadbeef12345678-00000009c7652400.json"]
        {
            let err = TEST.verify(other, &buf, good).unwrap_err();
            assert!(err.contains("does not match its header key"), "{other}: {err}");
        }
    }

    #[test]
    fn fault_plan_is_deterministic_and_cycles_modes() {
        let plan = StoreFaultPlan::new(7);
        let a: Vec<StoreFault> = (0..8).map(|i| plan.fault(i, 1000)).collect();
        let b: Vec<StoreFault> = (0..8).map(|i| plan.fault(i, 1000)).collect();
        assert_eq!(a, b);
        assert!(matches!(a[0], StoreFault::TornWrite { .. }));
        assert!(matches!(a[1], StoreFault::BitFlip { .. }));
        assert!(matches!(a[2], StoreFault::Truncate { .. }));
        assert!(matches!(a[3], StoreFault::RenameCrash));
        assert_ne!(
            StoreFaultPlan::new(8).fault(0, 1000),
            a[0],
            "different seeds place offsets differently"
        );
    }

    #[test]
    fn verify_rejects_every_frame_malformation() {
        let key = (1, 2);
        let name = TEST.file_name(key);
        let buf = TEST.encode(key, b"good");
        assert_eq!(TEST.verify(&name, &buf, good), Ok(()));

        // The frame itself is fine; the payload check refuses it.
        let frame = TEST.encode(key, b"not-good");
        let err = TEST.verify(&name, &frame, good).unwrap_err();
        assert!(err.contains("payload rejected"), "{err}");

        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(TEST.verify(&name, &bad, good).unwrap_err().contains("bad magic"));

        let mut bad = buf.clone();
        bad[9] ^= 0x01;
        let err = TEST.verify(&name, &bad, good).unwrap_err();
        assert!(err.contains("unsupported store version"), "{err}");

        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(TEST.verify(&name, &bad, good).unwrap_err().contains("checksum mismatch"));

        let bad = &buf[..buf.len() - 3];
        assert!(TEST.verify(&name, bad, good).unwrap_err().contains("length mismatch"));

        assert!(TEST.verify(&name, &buf[..10], good).unwrap_err().contains("truncated"));

        let err = TEST.verify(&TEST.file_name((1, 3)), &buf, good).unwrap_err();
        assert!(err.contains("does not match its header key"), "{err}");
    }
}
