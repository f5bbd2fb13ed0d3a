//! The content-addressed result store with a verified durable spool.
//!
//! Finished sessions are stored under their request fingerprint: the
//! exact response body bytes plus every streamed event payload, in
//! sequence order. A repeated request is answered from the store
//! byte-for-byte — no re-simulation — which is safe precisely because
//! bodies and event payloads are pure functions of the request.
//!
//! The spool is this fingerprint map over the checkpoint store's
//! verified framing ([`av_core::durable`]) with magic `AVSPOOL1` and key
//! `(fingerprint, 0)`. The payload is the fingerprint, the event count,
//! then each event and the body as u64-length-prefixed UTF-8. Entries
//! failing the checksum or the payload check (full decode, fingerprint
//! equal to the key) are quarantined, never loaded or deleted: their
//! requests just run cold again.

use av_core::durable::{DurableStore, Format, Key, RecoveryReport, StoreFault};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The spool's entry format.
const FORMAT: Format = Format { magic: *b"AVSPOOL1", version: 1, extension: "entry" };

/// One finished session, addressed by its request fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultEntry {
    /// The request fingerprint ([`crate::WorkRequest::fingerprint`]).
    pub fingerprint: u64,
    /// The response body, verbatim.
    pub body: String,
    /// Every streamed event payload, in sequence order, verbatim.
    pub events: Vec<String>,
}

impl ResultEntry {
    fn key(&self) -> Key {
        (self.fingerprint, 0)
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&self.fingerprint.to_le_bytes());
        buf.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for text in self.events.iter().chain([&self.body]) {
            buf.extend_from_slice(&(text.len() as u64).to_le_bytes());
            buf.extend_from_slice(text.as_bytes());
        }
        buf
    }

    /// The spool's payload check: the payload decodes in full and
    /// carries the fingerprint the entry is keyed by.
    fn decode(key: Key, payload: &[u8]) -> Result<ResultEntry, String> {
        let mut rest = payload;
        let fingerprint = take_u64(&mut rest)?;
        if (fingerprint, 0) != key {
            return Err("key mismatch between spool header and entry fingerprint".to_string());
        }
        let count = take_u64(&mut rest)?;
        let events = (0..count).map(|_| take_str(&mut rest)).collect::<Result<_, _>>()?;
        let body = take_str(&mut rest)?;
        if !rest.is_empty() {
            return Err(format!("entry payload has {} trailing bytes", rest.len()));
        }
        Ok(ResultEntry { fingerprint, body, events })
    }
}

fn take<'a>(rest: &mut &'a [u8], len: u64) -> Result<&'a [u8], String> {
    let split = usize::try_from(len).ok().and_then(|n| rest.split_at_checked(n));
    let (head, tail) = split.ok_or("entry payload truncated")?;
    *rest = tail;
    Ok(head)
}

fn take_u64(rest: &mut &[u8]) -> Result<u64, String> {
    Ok(u64::from_le_bytes(take(rest, 8)?.try_into().expect("took 8 bytes")))
}

fn take_str(rest: &mut &[u8]) -> Result<String, String> {
    let len = take_u64(rest)?;
    String::from_utf8(take(rest, len)?.to_vec()).map_err(|_| "entry text is not UTF-8".to_string())
}

/// Fingerprint-keyed store of finished sessions, optionally backed by a
/// spool directory.
#[derive(Default)]
pub struct ResultStore {
    entries: Mutex<HashMap<u64, Arc<ResultEntry>>>,
    spool: Option<DurableStore>,
    recovery: RecoveryReport,
}

impl ResultStore {
    /// A purely in-memory store (no persistence).
    pub fn in_memory() -> ResultStore {
        ResultStore::default()
    }

    /// Opens (or creates) a spooled store at `dir`, running the
    /// framing's recovery scan: every entry that verifies is reloaded
    /// verbatim, everything else is quarantined and listed in
    /// [`ResultStore::recovery`].
    pub fn with_spool(dir: &Path) -> io::Result<ResultStore> {
        let (spool, loaded, recovery) = DurableStore::open(dir, FORMAT, ResultEntry::decode)?;
        let entries = loaded.into_iter().map(|e| (e.fingerprint, Arc::new(e))).collect();
        Ok(ResultStore { entries: Mutex::new(entries), spool: Some(spool), recovery })
    }

    /// What the spool's recovery scan found on open (empty for an
    /// in-memory store).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a finished session by fingerprint.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<ResultEntry>> {
        self.entries.lock().unwrap().get(&fingerprint).cloned()
    }

    /// Inserts a finished session, persisting it through the outbox
    /// when spooled. First writer wins: if the fingerprint is already
    /// present the existing bytes are kept (they are identical by
    /// construction, and keeping them preserves the byte-identity
    /// guarantee even if that invariant were ever violated).
    pub fn put(&self, entry: ResultEntry) -> io::Result<Arc<ResultEntry>> {
        {
            let map = self.entries.lock().unwrap();
            if let Some(existing) = map.get(&entry.fingerprint) {
                return Ok(Arc::clone(existing));
            }
        }
        if let Some(spool) = &self.spool {
            spool.put(entry.key(), &entry.encode())?;
        }
        let arc = Arc::new(entry);
        let mut map = self.entries.lock().unwrap();
        Ok(Arc::clone(map.entry(arc.fingerprint).or_insert(arc)))
    }

    /// Simulates a writer dying mid-[`put`](ResultStore::put) according
    /// to `fault`. Nothing is held in memory — whatever landed in the
    /// spool is what the next [`ResultStore::with_spool`] finds. A no-op
    /// for an in-memory store.
    pub fn put_with_fault(&self, entry: &ResultEntry, fault: StoreFault) -> io::Result<()> {
        let spool = self.spool.as_ref();
        spool.map_or(Ok(()), |spool| spool.put_with_fault(entry.key(), &entry.encode(), fault))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("av_serve_store_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry() -> ResultEntry {
        ResultEntry {
            fingerprint: 0xfeed_beef_dead_cafe,
            body: "{\"kind\":\"drive\",\"run_hash\":\"0x0000000000000001\"}".to_string(),
            events: vec!["{\"phase\":\"started\"}".to_string(), "{\"phase\":\"done\"}".to_string()],
        }
    }

    #[test]
    fn put_then_get_round_trips_in_memory() {
        let store = ResultStore::in_memory();
        assert!(store.get(1).is_none());
        let put = store.put(entry()).unwrap();
        let got = store.get(entry().fingerprint).expect("present");
        assert_eq!(*got, *put);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn spooled_entries_survive_restart_byte_for_byte() {
        let dir = tmpdir("restart");
        let store = ResultStore::with_spool(&dir).unwrap();
        store.put(entry()).unwrap();
        drop(store);

        let reopened = ResultStore::with_spool(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(reopened.recovery().is_clean());
        let got = reopened.get(entry().fingerprint).expect("reloaded");
        assert_eq!(got.body, entry().body);
        assert_eq!(got.events, entry().events);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every file the spool's recovery scan set aside, with the text of
    /// its reason sidecar; asserts the quarantined bytes are still there.
    fn quarantine(store: &ResultStore, dir: &Path) -> Vec<(String, String)> {
        let set_aside = dir.join("quarantine");
        let mut found: Vec<(String, String)> = (store.recovery().quarantined.iter())
            .map(|q| {
                assert!(set_aside.join(&q.file).exists(), "quarantined bytes kept");
                let sidecar = set_aside.join(format!("{}.reason", q.file));
                let reason = fs::read_to_string(sidecar).expect("reason sidecar");
                assert_eq!(reason.trim_end(), q.reason);
                (q.file.clone(), reason)
            })
            .collect();
        found.sort();
        found
    }

    #[test]
    fn pending_leftovers_and_malformed_entries_are_quarantined_not_deleted() {
        let dir = tmpdir("quarantine");
        fs::create_dir_all(dir.join("pending")).unwrap();
        fs::write(dir.join("pending").join("0xdead.entry"), "half-written").unwrap();
        // What an earlier build's line-based spool wrote.
        let legacy = "{\"fingerprint\":\"0x0000000000000bad\",\"events\":0}\n{\"body\":1}\n";
        fs::write(dir.join("0x0000000000000bad.entry"), legacy).unwrap();
        let store = ResultStore::with_spool(&dir).unwrap();
        assert_eq!(store.len(), 0, "neither leftover nor malformed entry loads");

        let set_aside = quarantine(&store, &dir);
        let names: Vec<&str> = set_aside.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["0x0000000000000bad.entry", "0xdead.entry"]);
        assert!(set_aside[0].1.contains("bad magic"), "{}", set_aside[0].1);
        assert!(set_aside[1].1.contains("interrupted write"), "{}", set_aside[1].1);
        let kept = fs::read(dir.join("quarantine").join("0x0000000000000bad.entry")).unwrap();
        assert_eq!(kept, legacy.as_bytes(), "quarantined bytes are kept verbatim");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_body_byte_misses_and_quarantines_on_reopen() {
        let dir = tmpdir("flip");
        ResultStore::with_spool(&dir).unwrap().put(entry()).unwrap();
        let path = dir.join(FORMAT.file_name(entry().key()));
        let mut bytes = fs::read(&path).unwrap();
        // The body is the payload's last field, just before the 8-byte
        // checksum footer.
        let at = bytes.len() - 8 - 2;
        bytes[at] ^= 0x20;
        fs::write(&path, bytes).unwrap();

        let reopened = ResultStore::with_spool(&dir).unwrap();
        assert!(reopened.get(entry().fingerprint).is_none(), "corrupt body must not be served");
        assert!(!path.exists());
        let set_aside = quarantine(&reopened, &dir);
        assert_eq!(set_aside.len(), 1);
        assert!(set_aside[0].1.contains("checksum mismatch"), "{}", set_aside[0].1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_writer_wins_on_duplicate_fingerprints() {
        let store = ResultStore::in_memory();
        store.put(entry()).unwrap();
        let mut other = entry();
        other.body = "{\"different\":true}".to_string();
        let kept = store.put(other).unwrap();
        assert_eq!(kept.body, entry().body);
    }
}
