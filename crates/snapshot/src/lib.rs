//! # bgp-snapshot — the checkpoint container format and snapshot store
//!
//! Long characterization campaigns (the paper's §VII multi-rack runs
//! took machine-days) must survive preemption and crashes. This crate
//! holds the *container* half of the simulator's checkpoint/restart:
//! a [`Snapshot`] is a versioned, checksummed bag of **named opaque
//! sections** — each subsystem (nodes, communicator, trace rings,
//! counter library) serializes itself with `bgp_arch::wire` and hands
//! the bytes here, so this crate depends on nothing but `bgp-arch` and
//! never learns subsystem internals.
//!
//! The on-disk discipline mirrors the dump-format-v2 rules:
//!
//! * **Fail closed.** Every section carries a position-weighted
//!   checksum and the whole file a second one; any mismatch, truncation
//!   or oversized length is [`BgpError::Corrupt`] with a byte offset —
//!   never a partial snapshot.
//! * **Atomic replacement.** [`SnapshotStore::save`] writes to a
//!   `.tmp` name and renames into place, so a kill mid-write leaves
//!   either the old set of snapshots or the new one, never a torn file.
//! * **Quarantine, don't delete.** [`SnapshotStore::load_latest_valid`]
//!   walks snapshots newest-first; an invalid file is renamed aside
//!   with a human-readable report and the walk falls back to the next
//!   older one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod blob;

pub use blob::{BlobStore, CacheKey};

use bgp_arch::error::Result;
use bgp_arch::wire::{self, Reader};
use bgp_arch::BgpError;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic: "BGPS".
pub const MAGIC: [u8; 4] = *b"BGPS";
/// Container format version. Version 2 changed the `app:counters` and
/// `mux` section layouts (every counter policy became a per-node mode
/// schedule read through marks). Version 3 writes each section in the
/// form memory holds it: an unbuilt memory hierarchy, a cold cache, a
/// missing threshold bank, an untraced job's rank rings and slots, and
/// a zero start mark take no room; the UPC writes its packed control
/// bytes and the node its eleven network-mirror words; a finalized node
/// is a flag beside its windows, with no dump bytes; and the `mux`
/// section no longer holds home modes, which come from the counter
/// policy. Version 4 writes each fact once: a cache writes its `sets ×
/// ways` entries whether or not a line was ever installed (laziness is
/// the node's unbuilt hierarchy), the `mux` section holds one rotation
/// per node only under a rotating policy, with no per-node tag, and a
/// counter-library node is its arrival counts and sets, with no
/// initialized, active-set or finalized flag. The loader refuses files
/// of any other version before any section is replayed.
pub const VERSION: u32 = 4;
/// File extension of live snapshots.
pub(crate) const EXTENSION: &str = "bgps";

/// Largest snapshot file the loader will consider (1 GiB) — a
/// corrupted length field must not drive a giant allocation.
const MAX_FILE_BYTES: u64 = 1 << 30;

/// A versioned, checksummed set of named opaque state sections captured
/// at one phase boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Job-configuration fingerprint: a snapshot may only be restored
    /// into a job whose spec hashes to the same value.
    pub fingerprint: u64,
    /// Phase counter at the capture point.
    pub phase: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot for the job identified by `fingerprint`,
    /// captured at `phase`.
    pub fn new(fingerprint: u64, phase: u64) -> Snapshot {
        Snapshot {
            fingerprint,
            phase,
            sections: Vec::new(),
        }
    }

    /// Append a named section. Names must be unique within a snapshot.
    ///
    /// # Panics
    /// Panics if `name` is already present (a capture-logic bug).
    pub fn add_section(&mut self, name: &str, bytes: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate snapshot section {name:?}"
        );
        self.sections.push((name.to_string(), bytes));
    }

    /// The payload of section `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// The payload of section `name`, failing closed when absent.
    ///
    /// # Errors
    /// [`BgpError::Corrupt`] if the section is missing.
    pub fn section_required(&self, name: &str) -> Result<&[u8]> {
        self.section(name)
            .ok_or_else(|| BgpError::corrupt(format!("snapshot missing section {name:?}")))
    }

    /// Section names in capture order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Total payload bytes across all sections.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.sections.iter().map(|(_, b)| b.len()).sum()
    }

    /// Serialize to the on-disk container encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.payload_bytes());
        out.extend_from_slice(&MAGIC);
        wire::put_u32(&mut out, VERSION);
        wire::put_u64(&mut out, self.fingerprint);
        wire::put_u64(&mut out, self.phase);
        wire::put_u64(&mut out, self.sections.len() as u64);
        for (name, bytes) in &self.sections {
            wire::put_bytes(&mut out, name.as_bytes());
            wire::put_bytes(&mut out, bytes);
            wire::put_u64(&mut out, wire::checksum(bytes));
        }
        let total = wire::checksum(&out);
        wire::put_u64(&mut out, total);
        out
    }

    /// Decode a container previously produced by [`Snapshot::encode`].
    ///
    /// # Errors
    /// [`BgpError::Corrupt`] (with a byte offset) on bad magic, an
    /// unsupported version, truncation, or any checksum mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(BgpError::corrupt("snapshot shorter than its envelope"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored_total = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let actual_total = wire::checksum(body);
        if stored_total != actual_total {
            return Err(BgpError::Corrupt(
                bgp_arch::error::Context::new(format!(
                    "snapshot file checksum mismatch: stored {stored_total:#x}, computed {actual_total:#x}"
                ))
                .at_offset(body.len() as u64),
            ));
        }
        let mut r = Reader::new(body);
        let raw_magic = r.take(4, "snapshot magic")?;
        if raw_magic != MAGIC {
            return Err(BgpError::corrupt(format!(
                "bad snapshot magic {raw_magic:02x?}"
            )));
        }
        let version = r.u32("snapshot version")?;
        if version != VERSION {
            return Err(BgpError::corrupt(format!(
                "unsupported snapshot version {version} (expected {VERSION})"
            )));
        }
        let fingerprint = r.u64("snapshot fingerprint")?;
        let phase = r.u64("snapshot phase")?;
        let nsections = r.u64("snapshot section count")?;
        let mut sections = Vec::new();
        for _ in 0..nsections {
            let name = r.bytes("section name")?;
            let name = String::from_utf8(name.to_vec())
                .map_err(|_| BgpError::corrupt("section name is not UTF-8"))?;
            let payload = r.bytes("section payload")?.to_vec();
            let stored = r.u64("section checksum")?;
            let actual = wire::checksum(&payload);
            if stored != actual {
                return Err(BgpError::corrupt(format!(
                    "section {name:?} checksum mismatch: stored {stored:#x}, computed {actual:#x}"
                )));
            }
            if sections.iter().any(|(n, _): &(String, _)| *n == name) {
                return Err(BgpError::corrupt(format!("duplicate section {name:?}")));
            }
            sections.push((name, payload));
        }
        r.expect_end("snapshot container")?;
        Ok(Snapshot {
            fingerprint,
            phase,
            sections,
        })
    }
}

/// A snapshot that `load_latest_valid` set aside as unusable.
#[derive(Debug)]
pub struct Quarantined {
    /// Where the bad file was moved to.
    pub path: PathBuf,
    /// Why it was rejected.
    pub reason: String,
}

/// Outcome of a latest-valid load: the newest usable snapshot (if any)
/// and every file quarantined along the way.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// Newest valid snapshot and its path.
    pub snapshot: Option<(Snapshot, PathBuf)>,
    /// Files set aside as corrupt/mismatched, newest first.
    pub quarantined: Vec<Quarantined>,
}

/// A rotation-capped directory of snapshots for one job.
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    retain: usize,
}

impl SnapshotStore {
    /// A store rooted at `dir`, keeping at most `retain` snapshots
    /// (`retain` is clamped to ≥ 1: rotation must never delete the only
    /// recovery point).
    pub fn new(dir: impl Into<PathBuf>, retain: usize) -> SnapshotStore {
        SnapshotStore {
            dir: dir.into(),
            retain: retain.max(1),
        }
    }

    fn file_name(phase: u64) -> String {
        format!("snap-{phase:020}.{EXTENSION}")
    }

    /// Write `snap` atomically (`.tmp` + rename) and prune the oldest
    /// snapshots beyond the retention cap. Returns the final path.
    ///
    /// # Errors
    /// [`BgpError::Io`] on filesystem failure.
    pub fn save(&self, snap: &Snapshot) -> Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let final_path = self.dir.join(Self::file_name(snap.phase));
        let tmp_path = final_path.with_extension("tmp");
        let bytes = snap.encode();
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&bytes)?;
        }
        fs::rename(&tmp_path, &final_path)?;
        // Prune beyond the cap, oldest first; the file just written is
        // the newest and therefore always survives.
        let mut files = self.list()?;
        while files.len() > self.retain {
            let victim = files.remove(0);
            fs::remove_file(&victim)?;
        }
        Ok(final_path)
    }

    /// Live snapshot files, oldest → newest (by phase, which the naming
    /// scheme makes lexicographic).
    ///
    /// # Errors
    /// [`BgpError::Io`] on filesystem failure. A missing directory is
    /// an empty store, not an error.
    pub fn list(&self) -> Result<Vec<PathBuf>> {
        let rd = match fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut files: Vec<PathBuf> = rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().and_then(|e| e.to_str()) == Some(EXTENSION)
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("snap-"))
            })
            .collect();
        files.sort();
        Ok(files)
    }

    /// Load the newest valid snapshot whose fingerprint matches
    /// `fingerprint`, quarantining (rename + report file) every newer
    /// file that fails to decode or belongs to a different job.
    ///
    /// # Errors
    /// [`BgpError::Io`] on filesystem failure; corrupt *files* are
    /// quarantined and reported in the outcome, not returned as errors.
    pub fn load_latest_valid(&self, fingerprint: u64) -> Result<LoadOutcome> {
        let mut outcome = LoadOutcome::default();
        let mut files = self.list()?;
        while let Some(path) = files.pop() {
            let verdict = self.try_load(&path, fingerprint);
            match verdict {
                Ok(snap) => {
                    outcome.snapshot = Some((snap, path));
                    return Ok(outcome);
                }
                Err(e) => {
                    let reason = e.to_string();
                    let quarantine_path = path.with_extension("quarantined");
                    fs::rename(&path, &quarantine_path)?;
                    let report = quarantine_path.with_extension("quarantine.txt");
                    let _ = fs::write(
                        &report,
                        format!(
                            "quarantined snapshot: {}\nreason: {reason}\n",
                            path.display()
                        ),
                    );
                    outcome.quarantined.push(Quarantined {
                        path: quarantine_path,
                        reason,
                    });
                }
            }
        }
        Ok(outcome)
    }

    fn try_load(&self, path: &Path, fingerprint: u64) -> Result<Snapshot> {
        let meta = fs::metadata(path)?;
        if meta.len() > MAX_FILE_BYTES {
            return Err(BgpError::corrupt(format!(
                "snapshot file is {} bytes, larger than the {MAX_FILE_BYTES}-byte cap",
                meta.len()
            )));
        }
        let bytes = fs::read(path)?;
        let snap = Snapshot::decode(&bytes)?;
        if snap.fingerprint != fingerprint {
            return Err(BgpError::corrupt(format!(
                "snapshot fingerprint {:#x} does not match job fingerprint {fingerprint:#x}",
                snap.fingerprint
            )));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(phase: u64) -> Snapshot {
        let mut s = Snapshot::new(0xfeed_f00d, phase);
        s.add_section("meta", vec![1, 2, 3]);
        s.add_section("nodes", (0..200u8).collect());
        s.add_section("empty", Vec::new());
        s
    }

    #[test]
    fn container_round_trips() {
        let s = sample(42);
        let bytes = s.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.section("nodes").unwrap().len(), 200);
        assert_eq!(
            back.section_names().collect::<Vec<_>>(),
            vec!["meta", "nodes", "empty"]
        );
        assert!(back.section("missing").is_none());
        assert!(back.section_required("missing").is_err());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample(7).encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(Snapshot::decode(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample(7).encode();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} accepted"
            );
        }
    }

    #[test]
    fn store_rotates_and_keeps_the_newest() {
        let dir = std::env::temp_dir().join(format!("bgps-rot-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 3);
        for phase in [10, 20, 30, 40, 50] {
            store.save(&sample(phase)).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 3);
        let phases: Vec<u64> = files
            .iter()
            .map(|p| Snapshot::decode(&fs::read(p).unwrap()).unwrap().phase)
            .collect();
        assert_eq!(phases, vec![30, 40, 50]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_falls_back_past_corruption_and_quarantines() {
        let dir = std::env::temp_dir().join(format!("bgps-q-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 10);
        store.save(&sample(1)).unwrap();
        store.save(&sample(2)).unwrap();
        let p3 = store.save(&sample(3)).unwrap();
        // Corrupt the newest in place.
        let mut bytes = fs::read(&p3).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&p3, &bytes).unwrap();

        let out = store.load_latest_valid(0xfeed_f00d).unwrap();
        let (snap, path) = out.snapshot.expect("fallback snapshot");
        assert_eq!(snap.phase, 2);
        assert!(path.to_string_lossy().contains("snap-"));
        assert_eq!(out.quarantined.len(), 1);
        assert!(out.quarantined[0].path.exists());
        assert!(!p3.exists(), "corrupt file moved aside");
        let report = out.quarantined[0].path.with_extension("quarantine.txt");
        let text = fs::read_to_string(report).unwrap();
        assert!(text.contains("checksum"), "report explains: {text}");
        // The walk is repeatable: quarantined files are no longer live.
        let again = store.load_latest_valid(0xfeed_f00d).unwrap();
        assert_eq!(again.snapshot.unwrap().0.phase, 2);
        assert!(again.quarantined.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_rejected_and_quarantined() {
        let dir = std::env::temp_dir().join(format!("bgps-fp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 10);
        store.save(&sample(5)).unwrap();
        let out = store.load_latest_valid(0xdead_beef).unwrap();
        assert!(out.snapshot.is_none());
        assert_eq!(out.quarantined.len(), 1);
        assert!(out.quarantined[0].reason.contains("fingerprint"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_loads_nothing() {
        let dir = std::env::temp_dir().join(format!("bgps-none-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir, 3);
        let out = store.load_latest_valid(1).unwrap();
        assert!(out.snapshot.is_none());
        assert!(out.quarantined.is_empty());
    }
}
