//! Content-addressed result store: deterministic runs as cache entries.
//!
//! The simulator is a pure function of its [`JobSpec`] fingerprint and
//! the fault seed — run the same job twice and every output byte is
//! identical. That turns a *completed* run into an infinitely cacheable
//! artifact: the counter service (`bgp-serve`) keys finished results by
//! [`CacheKey`]` = (spec fingerprint, seed)` and serves repeats without
//! touching the machine model. This module is the store behind that
//! cache: an in-memory map fronting an optional on-disk directory of
//! checksummed blob files with the same fail-closed discipline as the
//! snapshot container (atomic temp+rename writes, corrupt files treated
//! as misses, never partial reads).
//!
//! Entries are **write-once**: the first `put` for a key wins and every
//! later `put` returns the canonical first bytes. Determinism makes a
//! differing second write a *bug*, and the store surfaces it loudly
//! (see [`BlobStore::put`]) instead of silently serving two truths.
//!
//! [`JobSpec`]: ../bgp_mpi/machine/struct.JobSpec.html

use bgp_arch::error::Result;
use bgp_arch::sync::Mutex;
use bgp_arch::wire::{self, Reader};
use bgp_arch::BgpError;
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Blob file magic: "BGPB".
pub(crate) const BLOB_MAGIC: [u8; 4] = *b"BGPB";
/// Blob envelope version.
pub(crate) const BLOB_VERSION: u32 = 1;
/// File extension of blob entries.
pub(crate) const BLOB_EXTENSION: &str = "bgpb";

/// Largest blob file the loader will read (256 MiB) — a corrupted
/// length field must not drive a giant allocation.
const MAX_BLOB_BYTES: u64 = 256 << 20;

/// Identity of a completed deterministic run: the job-spec fingerprint
/// (see `JobSpec::fingerprint`) plus the fault-plan seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Canonical spec fingerprint — covers every outcome-relevant spec
    /// field, excludes cosmetic ones (checkpoint placement,
    /// `sim_threads`, `cycle_budget`).
    pub spec: u64,
    /// Fault-plan seed (0 = no faults).
    pub seed: u64,
}

impl CacheKey {
    /// The key as 32 lowercase hex digits (`spec` then `seed`), the
    /// form the service protocol and file names use.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.spec, self.seed)
    }

    /// Parse the [`CacheKey::hex`] form back.
    pub fn parse_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let spec = u64::from_str_radix(&s[..16], 16).ok()?;
        let seed = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CacheKey { spec, seed })
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(spec {:#018x}, seed {})", self.spec, self.seed)
    }
}

/// Encode one blob with its checksummed envelope.
fn encode_blob(key: CacheKey, bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(48 + bytes.len());
    out.extend_from_slice(&BLOB_MAGIC);
    wire::put_u32(&mut out, BLOB_VERSION);
    wire::put_u64(&mut out, key.spec);
    wire::put_u64(&mut out, key.seed);
    wire::put_bytes(&mut out, bytes);
    let total = wire::checksum(&out);
    wire::put_u64(&mut out, total);
    out
}

/// Decode a blob file, verifying envelope, key and checksum.
fn decode_blob(key: CacheKey, bytes: &[u8]) -> Result<Vec<u8>> {
    if bytes.len() < BLOB_MAGIC.len() + 8 {
        return Err(BgpError::corrupt("blob shorter than its envelope"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let actual = wire::checksum(body);
    if stored != actual {
        return Err(BgpError::corrupt(format!(
            "blob checksum mismatch: stored {stored:#x}, computed {actual:#x}"
        )));
    }
    let mut r = Reader::new(body);
    let raw_magic = r.take(4, "blob magic")?;
    if raw_magic != BLOB_MAGIC {
        return Err(BgpError::corrupt(format!(
            "bad blob magic {raw_magic:02x?}"
        )));
    }
    let version = r.u32("blob version")?;
    if version != BLOB_VERSION {
        return Err(BgpError::corrupt(format!(
            "unsupported blob version {version} (expected {BLOB_VERSION})"
        )));
    }
    let spec = r.u64("blob spec hash")?;
    let seed = r.u64("blob seed")?;
    if (CacheKey { spec, seed }) != key {
        return Err(BgpError::corrupt(format!(
            "blob key (spec {spec:#018x}, seed {seed}) does not match its file name {key}"
        )));
    }
    let payload = r.bytes("blob payload")?.to_vec();
    r.expect_end("blob envelope")?;
    Ok(payload)
}

/// A content-addressed blob store: in-memory map, optionally backed by
/// a directory so cached results survive a daemon restart.
#[derive(Debug, Default)]
pub struct BlobStore {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<CacheKey, Arc<Vec<u8>>>>,
}

impl BlobStore {
    /// A purely in-memory store (dies with the process).
    pub fn in_memory() -> BlobStore {
        BlobStore {
            dir: None,
            mem: Mutex::new(HashMap::new()),
        }
    }

    /// A store backed by `dir`; entries written there are found again
    /// after a restart. The directory is created on first `put`.
    pub fn persistent(dir: impl Into<PathBuf>) -> BlobStore {
        BlobStore {
            dir: Some(dir.into()),
            mem: Mutex::new(HashMap::new()),
        }
    }

    /// Number of entries currently resident in memory.
    pub fn len(&self) -> usize {
        self.mem.lock().len()
    }

    /// Whether no entry is resident in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn path_of(&self, key: CacheKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.{BLOB_EXTENSION}", key.hex())))
    }

    /// Look `key` up: memory first, then (for persistent stores) disk.
    /// A disk hit is verified against its envelope checksum and pulled
    /// into memory; a corrupt or foreign file is a miss, never an error.
    pub fn get(&self, key: CacheKey) -> Option<Arc<Vec<u8>>> {
        if let Some(hit) = self.mem.lock().get(&key) {
            return Some(Arc::clone(hit));
        }
        let path = self.path_of(key)?;
        let meta = fs::metadata(&path).ok()?;
        if meta.len() > MAX_BLOB_BYTES {
            return None;
        }
        let raw = fs::read(&path).ok()?;
        let payload = decode_blob(key, &raw).ok()?;
        let arc = Arc::new(payload);
        self.mem
            .lock()
            .entry(key)
            .or_insert_with(|| Arc::clone(&arc));
        Some(arc)
    }

    /// Insert the result bytes for `key`, first write wins: if an entry
    /// already exists the **existing** bytes are returned (and kept),
    /// so every consumer observes one canonical payload per key. A
    /// racing second writer producing *different* bytes indicates a
    /// determinism bug; the divergence is reported on stderr but the
    /// canonical entry still wins.
    ///
    /// # Errors
    /// [`BgpError::Io`] when the persistent backing write fails (the
    /// in-memory entry is still installed — serving continues, only
    /// restart durability is lost).
    pub fn put(&self, key: CacheKey, bytes: Vec<u8>) -> Result<Arc<Vec<u8>>> {
        let arc = Arc::new(bytes);
        let canonical = {
            let mut mem = self.mem.lock();
            match mem.get(&key) {
                Some(existing) => {
                    if **existing != *arc {
                        eprintln!(
                            "blobstore: determinism violation: key {key} written twice \
                             with different bytes ({} vs {}); keeping the first",
                            existing.len(),
                            arc.len()
                        );
                    }
                    return Ok(Arc::clone(existing));
                }
                None => {
                    mem.insert(key, Arc::clone(&arc));
                    arc
                }
            }
        };
        if let Some(path) = self.path_of(key) {
            if !path.exists() {
                let dir = self.dir.as_ref().expect("persistent store has a dir");
                fs::create_dir_all(dir)?;
                let tmp = path.with_extension("tmp");
                {
                    let mut f = fs::File::create(&tmp)?;
                    f.write_all(&encode_blob(key, &canonical))?;
                }
                fs::rename(&tmp, &path)?;
            }
        }
        Ok(canonical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(spec: u64, seed: u64) -> CacheKey {
        CacheKey { spec, seed }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bgpb-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn hex_round_trips_and_rejects_junk() {
        let k = key(0xdead_beef_0123_4567, 42);
        assert_eq!(k.hex().len(), 32);
        assert_eq!(CacheKey::parse_hex(&k.hex()), Some(k));
        assert_eq!(CacheKey::parse_hex("xyz"), None);
        assert_eq!(CacheKey::parse_hex(&"g".repeat(32)), None);
        assert_eq!(CacheKey::parse_hex(&k.hex()[..31]), None);
    }

    #[test]
    fn memory_store_put_get_and_first_write_wins() {
        let store = BlobStore::in_memory();
        let k = key(1, 0);
        assert!(store.get(k).is_none());
        let a = store.put(k, b"alpha".to_vec()).unwrap();
        assert_eq!(&**a, b"alpha");
        // Second write (even different — a simulated determinism bug)
        // returns the canonical first bytes.
        let b = store.put(k, b"beta".to_vec()).unwrap();
        assert_eq!(&**b, b"alpha");
        assert_eq!(&**store.get(k).unwrap(), b"alpha");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn persistent_store_survives_a_restart() {
        let dir = tempdir("persist");
        {
            let store = BlobStore::persistent(&dir);
            store.put(key(7, 3), b"result-bytes".to_vec()).unwrap();
        }
        let fresh = BlobStore::persistent(&dir);
        assert_eq!(fresh.len(), 0, "nothing resident before the first get");
        assert_eq!(&**fresh.get(key(7, 3)).unwrap(), b"result-bytes");
        assert_eq!(fresh.len(), 1, "disk hit pulled into memory");
        assert!(fresh.get(key(7, 4)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_misses_not_errors() {
        let dir = tempdir("corrupt");
        let store = BlobStore::persistent(&dir);
        let k = key(9, 9);
        store.put(k, b"payload".to_vec()).unwrap();
        let path = store.path_of(k).unwrap();
        let clean = fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x20;
            fs::write(&path, &bad).unwrap();
            let fresh = BlobStore::persistent(&dir);
            assert!(fresh.get(k).is_none(), "flip at byte {i} served");
        }
        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            let fresh = BlobStore::persistent(&dir);
            assert!(fresh.get(k).is_none(), "truncation to {cut} served");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_key_under_the_right_name_is_rejected() {
        let dir = tempdir("foreign");
        let store = BlobStore::persistent(&dir);
        let right = key(1, 2);
        let wrong = key(3, 4);
        store.put(wrong, b"payload".to_vec()).unwrap();
        // A file renamed to another key's name must not serve.
        fs::rename(store.path_of(wrong).unwrap(), store.path_of(right).unwrap()).unwrap();
        let fresh = BlobStore::persistent(&dir);
        assert!(fresh.get(right).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
