//! Crash-window recovery: kill the writer at every byte offset of a
//! small entry — a checkpoint-store entry and an av-serve result-spool
//! entry — (and at a seeded sample of offsets of a real checkpoint
//! entry, which is far too large to sweep exhaustively) and prove that
//! reopening the store always yields either the previous entry or a
//! clean quarantine — never a half-read, never a lost previous entry,
//! never a silent deletion. Also pins the checkpoint entry bytes to
//! the hand-built version-1 frame.

use av_core::ckptstore::{CkptStore, RecoveryReport, StoreFault, StoreFaultPlan};
use av_core::determinism::{fnv64, run_hash};
use av_core::durable::FRAME_BYTES;
use av_core::stack::{
    checkpoint_drive, drive_fingerprint, resume_drive, run_drive, Checkpoint, RunConfig,
    StackConfig, CHECKPOINT_VERSION,
};
use av_serve::{ResultEntry, ResultStore};
use av_vision::DetectorKind;
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("av_ckpt_crash_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A minimal payload that parses as a checkpoint header — the "small
/// checkpoint" whose entry every byte offset can be swept over.
fn tiny_checkpoint(fingerprint: u64, barrier_ns: u64) -> Checkpoint {
    let mut b = Vec::new();
    b.extend_from_slice(&13u32.to_le_bytes());
    b.extend_from_slice(b"av-checkpoint");
    b.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    b.extend_from_slice(&barrier_ns.to_le_bytes());
    b.extend_from_slice(&fingerprint.to_le_bytes());
    b.extend_from_slice(&fingerprint.to_le_bytes()); // stripped == full
    b.push(0); // no blackouts
    b.push(0); // untraced
    Checkpoint::from_bytes(b).unwrap()
}

/// One input to the every-byte-offset harness: a store holding a
/// previous entry, about to take a small next entry.
trait Subject {
    /// Total on-disk bytes of the next entry.
    fn entry_len(&self) -> usize;
    /// Puts the previous entry cleanly, then the next one under `fault`.
    fn write(&self, dir: &Path, fault: StoreFault);
    /// The invariant under test, checked after the simulated crash: the
    /// previous entry is intact, the next entry either published in full
    /// or was quarantined with a reason — and nothing was deleted.
    fn assert_recovers(&self, dir: &Path, context: &str);
}

/// Every quarantined file must still hold its bytes and state a reason.
fn assert_clean_quarantine(dir: &Path, report: &RecoveryReport, context: &str) {
    assert_eq!(report.loaded + report.quarantined.len(), 2, "{context}: every byte accounted for");
    for q in &report.quarantined {
        assert!(!q.reason.is_empty(), "{context}: quarantine must state a reason");
        let set_aside = dir.join("quarantine");
        assert!(set_aside.join(&q.file).exists(), "{context}: quarantined bytes kept");
        assert!(set_aside.join(format!("{}.reason", q.file)).exists(), "{context}: sidecar");
    }
}

/// Two barriers of one drive in the checkpoint store.
struct CkptSubject {
    fingerprint: u64,
    prev: Checkpoint,
    next: Checkpoint,
}

impl CkptSubject {
    fn new(fingerprint: u64) -> CkptSubject {
        let prev = tiny_checkpoint(fingerprint, 1_000_000_000);
        CkptSubject { fingerprint, prev, next: tiny_checkpoint(fingerprint, 2_000_000_000) }
    }
}

impl Subject for CkptSubject {
    fn entry_len(&self) -> usize {
        self.next.size_bytes() + FRAME_BYTES
    }

    fn write(&self, dir: &Path, fault: StoreFault) {
        let (store, _) = CkptStore::open(dir).unwrap();
        store.put(&self.prev).unwrap();
        store.put_with_fault(&self.next, fault).unwrap();
    }

    fn assert_recovers(&self, dir: &Path, context: &str) {
        let (store, report) = CkptStore::open(dir).unwrap();
        assert_clean_quarantine(dir, &report, context);
        let restored = store
            .best_resume(self.fingerprint, false, u64::MAX)
            .unwrap_or_else(|| panic!("{context}: previous entry must be resumable"));
        assert!(
            restored.barrier_ns() >= self.prev.barrier_ns(),
            "{context}: resume landed before the previous barrier"
        );
    }
}

/// Two answered requests in the av-serve result spool.
struct SpoolSubject {
    prev: ResultEntry,
    next: ResultEntry,
}

impl SpoolSubject {
    fn new(fingerprint: u64) -> SpoolSubject {
        let entry = |fingerprint: u64, body: &str| ResultEntry {
            fingerprint,
            body: body.to_string(),
            events: vec!["{\"phase\":\"started\"}".to_string()],
        };
        SpoolSubject {
            prev: entry(fingerprint, "{\"kind\":\"drive\"}"),
            next: entry(fingerprint ^ 1, "{\"kind\":\"sweep\"}"),
        }
    }
}

impl Subject for SpoolSubject {
    fn entry_len(&self) -> usize {
        let texts = self.next.events.iter().chain([&self.next.body]);
        FRAME_BYTES + 16 + texts.map(|t| 8 + t.len()).sum::<usize>()
    }

    fn write(&self, dir: &Path, fault: StoreFault) {
        let store = ResultStore::with_spool(dir).unwrap();
        store.put(self.prev.clone()).unwrap();
        store.put_with_fault(&self.next, fault).unwrap();
    }

    fn assert_recovers(&self, dir: &Path, context: &str) {
        let store = ResultStore::with_spool(dir).unwrap();
        assert_clean_quarantine(dir, store.recovery(), context);
        let prev = store.get(self.prev.fingerprint);
        assert_eq!(prev.as_deref(), Some(&self.prev), "{context}: previous entry must survive");
        if let Some(next) = store.get(self.next.fingerprint) {
            assert_eq!(*next, self.next, "{context}: a half-read entry was served");
        } else {
            assert_eq!(store.recovery().quarantined.len(), 1, "{context}: next entry vanished");
        }
    }
}

/// Crashes the writer of each subject's next entry at every byte
/// offset and checks the reopened store after each.
fn every_byte_offset(name: &str, fingerprint: u64, fault_at: impl Fn(usize) -> StoreFault) {
    let subjects: [&dyn Subject; 2] =
        [&CkptSubject::new(fingerprint), &SpoolSubject::new(fingerprint)];
    for (kind, subject) in ["checkpoint", "spool"].into_iter().zip(subjects) {
        for at in 0..subject.entry_len() {
            let dir = tmpdir(name);
            let fault = fault_at(at);
            subject.write(&dir, fault);
            subject.assert_recovers(&dir, &format!("{kind} entry, {fault:?}"));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn torn_write_at_every_byte_offset_recovers_small_entry() {
    every_byte_offset("torn", 0x0123_4567_89ab_cdef, |keep| StoreFault::TornWrite {
        keep_bytes: keep,
    });
}

#[test]
fn bit_flip_at_every_byte_offset_recovers_small_entry() {
    every_byte_offset("flip", 0xfedc_ba98_7654_3210, |at| StoreFault::BitFlip { at_byte: at });
}

#[test]
fn checkpoint_entries_keep_the_version_1_frame_byte_for_byte() {
    let (fp, barrier_ns) = (0x0123_4567_89ab_cdefu64, 1_000_000_000u64);
    let checkpoint = tiny_checkpoint(fp, barrier_ns);
    let payload = checkpoint.as_bytes();
    let mut expected = Vec::new();
    expected.extend_from_slice(b"AVCKPTS1");
    expected.extend_from_slice(&1u32.to_le_bytes());
    expected.extend_from_slice(&fp.to_le_bytes());
    expected.extend_from_slice(&barrier_ns.to_le_bytes());
    expected.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    expected.extend_from_slice(payload);
    let checksum = fnv64(&expected);
    expected.extend_from_slice(&checksum.to_le_bytes());

    let dir = tmpdir("pin");
    CkptStore::open(&dir).unwrap().0.put(&checkpoint).unwrap();
    let written = fs::read(dir.join(format!("{fp:016x}-{barrier_ns:016x}.ckpt"))).unwrap();
    assert!(written == expected, "checkpoint entry bytes drifted from the version-1 frame");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn seeded_crash_sample_over_a_real_checkpoint_recovers_and_resumes_identical() {
    let config = StackConfig::smoke_test(DetectorKind::Ssd300);
    let run = RunConfig::seconds(4.0);
    let fp = drive_fingerprint(&config);
    let straight = run_drive(&config, &run);
    let (_, prev) = checkpoint_drive(&config, &run, 2.0);
    let (_, next) = checkpoint_drive(&config, &run, 3.0);
    let entry_len = next.size_bytes() + FRAME_BYTES;
    assert!(entry_len > 4096, "a real checkpoint is above the exhaustive-sweep threshold");

    // Seeded sampling above the size threshold: 32 faults spanning all
    // four modes, deterministically derived so a failure reproduces.
    let plan = StoreFaultPlan::new(0xc0ffee);
    for i in 0..32u64 {
        let fault = plan.fault(i, entry_len);
        let dir = tmpdir("real");
        {
            let (store, _) = CkptStore::open(&dir).unwrap();
            store.put(&prev).unwrap();
            store.put_with_fault(&next, fault).unwrap();
        }
        let (store, report) = CkptStore::open(&dir).unwrap();
        assert!(report.loaded >= 1, "fault {i} ({fault:?}): previous entry lost");
        let restored = store
            .best_resume(fp, false, u64::MAX)
            .unwrap_or_else(|| panic!("fault {i} ({fault:?}): nothing resumable"));
        // Whatever barrier survived, resuming from it reproduces the
        // straight-through run exactly.
        let resumed = resume_drive(&config, &run, &restored);
        assert_eq!(
            run_hash(&straight),
            run_hash(&resumed),
            "fault {i} ({fault:?}): resume after recovery diverged"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
