//! Crash-safe file primitives with deterministic disk-fault injection.
//!
//! Everything the workspace persists — the serve cache snapshot and the
//! sweep checkpoint, both in the one [`crate::journal`] format — goes
//! through the two wrappers here, so every durability claim in the crash
//! matrix (ARCHITECTURE.md, "Durability and crash recovery") is
//! exercised by the same injected faults in tests and CI:
//!
//! * [`DurableFile`] — whole-file atomic replace: write to a sibling
//!   temp file, `fsync`, then atomically rename over the destination.
//!   A crash (or injected fault) at any point leaves either the old
//!   file or the new file, never a mix; a stale temp file is ignored by
//!   readers and replaced by the next commit. The snapshot uses it.
//! * [`JournalFile`] — append-only journal: records are appended and
//!   periodically `fsync`ed. A crash can tear the final record; readers
//!   salvage the valid prefix (each record carries its own CRC). The
//!   checkpoint uses it.
//!
//! ## Fault injection
//!
//! Both wrappers and [`read_file_faulty`] take the process's one
//! [`Faults`] state (see [`crate::faults`]) and honor its four disk
//! sites: [`FaultSite::ShortWrite`], [`FaultSite::TornRename`],
//! [`FaultSite::ReadCorrupt`] and [`FaultSite::FsyncFail`]. The
//! `Option<Arc<Faults>>` is `None` in production and costs one
//! pointer-null check per I/O operation.
//!
//! The CRC-32 (IEEE) that frames every journal line lives here too.

use crate::faults::{FaultSite, Faults};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `data`.
///
/// Slicing-by-8: eight 256-entry tables, built on first use and shared
/// for the process lifetime, fold eight bytes per step; the tail goes a
/// byte at a time through the first table (the classic implementation).
/// A journal frame of a few hundred bytes costs a fraction of a
/// microsecond, which matters because every checkpointed record is
/// framed on a thread that also runs scenarios.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in words.remainder() {
        crc = t[0][byte(crc ^ u32::from(b), 0)] ^ (crc >> 8);
    }
    !crc
}

/// The FNV-1a 64-bit offset basis — seed value for [`fnv1a64`] chains.
pub const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// One step of a chained FNV-1a 64-bit digest: folds `bytes` into
/// `hash`. Used for the fingerprints a journal header pins.
pub fn fnv1a64(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn injected_error(what: &str) -> io::Error {
    io::Error::other(format!("injected disk fault: {what}"))
}

/// Writes `buf`, honoring an injected [`FaultSite::ShortWrite`]:
/// under the fault only the first half of the buffer lands before the
/// error surfaces — the on-disk state a real torn write leaves.
fn write_all_faulty(file: &mut File, buf: &[u8], faults: Option<&Arc<Faults>>) -> io::Result<()> {
    if faults.is_some_and(|f| f.fires(FaultSite::ShortWrite)) {
        file.write_all(&buf[..buf.len() / 2])?;
        return Err(injected_error("short write"));
    }
    file.write_all(buf)
}

/// `fsync`s `file`, honoring an injected [`FaultSite::FsyncFail`].
fn sync_faulty(file: &File, faults: Option<&Arc<Faults>>) -> io::Result<()> {
    if faults.is_some_and(|f| f.fires(FaultSite::FsyncFail)) {
        return Err(injected_error("fsync failure"));
    }
    file.sync_all()
}

/// The sibling temp path a [`DurableFile`] stages its contents in.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Whole-file atomic replace: stage in a sibling temp file, `fsync`,
/// rename over the destination.
///
/// Until [`DurableFile::commit`] succeeds, the destination keeps its
/// previous contents (or stays absent); an uncommitted wrapper removes
/// its temp file on drop, and a temp file orphaned by a crash is
/// harmless — readers never look at it and the next commit replaces it.
pub struct DurableFile {
    final_path: PathBuf,
    tmp_path: PathBuf,
    file: Option<File>,
    faults: Option<Arc<Faults>>,
}

impl DurableFile {
    /// Stages a new file destined for `path`.
    ///
    /// # Errors
    ///
    /// Propagates temp-file creation failure.
    pub fn create(path: &Path, faults: Option<Arc<Faults>>) -> io::Result<DurableFile> {
        let tmp_path = temp_path(path);
        let file = File::create(&tmp_path)?;
        Ok(DurableFile {
            final_path: path.to_path_buf(),
            tmp_path,
            file: Some(file),
            faults,
        })
    }

    /// Appends `buf` to the staged contents.
    ///
    /// # Errors
    ///
    /// Propagates write failure (including an injected short write,
    /// which leaves a torn prefix in the temp file).
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let file = self.file.as_mut().expect("write after commit");
        write_all_faulty(file, buf, self.faults.as_ref())
    }

    /// Durably publishes the staged contents: `fsync` the temp file,
    /// atomically rename it over the destination.
    ///
    /// # Errors
    ///
    /// On any failure (including injected fsync/rename faults) the
    /// destination is untouched and the temp file is removed.
    pub fn commit(mut self) -> io::Result<()> {
        let file = self.file.take().expect("commit twice");
        let result = (|| {
            sync_faulty(&file, self.faults.as_ref())?;
            drop(file);
            if self
                .faults
                .as_ref()
                .is_some_and(|f| f.fires(FaultSite::TornRename))
            {
                return Err(injected_error("torn rename"));
            }
            std::fs::rename(&self.tmp_path, &self.final_path)
        })();
        if result.is_ok() {
            // Publishing the rename itself: sync the directory so the
            // new name survives a crash (best-effort — not all
            // platforms allow opening directories).
            if let Some(dir) = self.final_path.parent() {
                if let Ok(d) = File::open(if dir.as_os_str().is_empty() {
                    Path::new(".")
                } else {
                    dir
                }) {
                    let _ = d.sync_all();
                }
            }
        }
        result
    }
}

impl Drop for DurableFile {
    fn drop(&mut self) {
        if self.file.is_some() {
            // Uncommitted (error or early drop): leave no debris. A
            // crash skips this, which is fine — readers ignore temps.
            self.file = None;
            let _ = std::fs::remove_file(&self.tmp_path);
        }
    }
}

/// Reads a whole file, honoring an injected
/// [`FaultSite::ReadCorrupt`]: under the fault one deterministic
/// byte of the returned buffer is flipped (the caller's CRC framing is
/// expected to catch it).
///
/// # Errors
///
/// Propagates open/read failure.
pub fn read_file_faulty(path: &Path, faults: Option<&Arc<Faults>>) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    if let Some(f) = faults.filter(|f| !buf.is_empty() && f.fires(FaultSite::ReadCorrupt)) {
        let n = f.injected(FaultSite::ReadCorrupt);
        let pos = f.stream(FaultSite::ReadCorrupt, n).next_u64() as usize % buf.len();
        buf[pos] ^= 0x40;
    }
    Ok(buf)
}

/// Append-only journal file with periodic durability.
///
/// Appends go straight to the file (no hidden buffering beyond the
/// OS); [`JournalFile::sync`] makes everything appended so far durable.
/// Record framing (CRC per record) is the caller's job — this type owns
/// the fault-injected transport only.
pub struct JournalFile {
    file: File,
    faults: Option<Arc<Faults>>,
}

impl JournalFile {
    /// Opens `path` for appending, creating it if absent.
    ///
    /// # Errors
    ///
    /// Propagates open failure.
    pub fn append_to(path: &Path, faults: Option<Arc<Faults>>) -> io::Result<JournalFile> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalFile { file, faults })
    }

    /// Appends one buffer (callers frame records so a torn tail is
    /// detectable).
    ///
    /// # Errors
    ///
    /// Propagates write failure (including an injected short write —
    /// the journal then ends in a torn record until the next append).
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        write_all_faulty(&mut self.file, buf, self.faults.as_ref())
    }

    /// Makes every append so far durable.
    ///
    /// # Errors
    ///
    /// Propagates `fsync` failure (including injected): the caller must
    /// treat everything since the last successful sync as volatile.
    pub fn sync(&mut self) -> io::Result<()> {
        sync_faulty(&self.file, self.faults.as_ref())
    }
}

/// Truncates `path` to `len` bytes — how a resumer discards a torn
/// journal tail before appending fresh records after it.
///
/// # Errors
///
/// Propagates open/truncate failure.
pub fn truncate_file(path: &Path, len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rvz-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector plus edge cases.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Every length through two 8-byte words plus a tail agrees with
        // the bytewise definition.
        let bytewise = |data: &[u8]| {
            let mut crc = !0u32;
            for &b in data {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        };
        let data: Vec<u8> = (0..40u32).map(|i| (i * 37 + 11) as u8).collect();
        for n in 0..=data.len() {
            assert_eq!(crc32(&data[..n]), bytewise(&data[..n]), "length {n}");
        }
    }

    #[test]
    fn commit_is_atomic_and_cleans_the_temp() {
        let dir = tmp_dir("commit");
        let path = dir.join("data.bin");
        std::fs::write(&path, b"old").unwrap();
        let mut f = DurableFile::create(&path, None).unwrap();
        f.write_all(b"new contents").unwrap();
        // Before commit the destination still holds the old bytes.
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        f.commit().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        assert!(!temp_path(&path).exists(), "temp removed by the rename");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_without_commit_leaves_old_file_and_no_temp() {
        let dir = tmp_dir("drop");
        let path = dir.join("data.bin");
        std::fs::write(&path, b"old").unwrap();
        {
            let mut f = DurableFile::create(&path, None).unwrap();
            f.write_all(b"half-baked").unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert!(!temp_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_rename_fault_keeps_the_old_file() {
        let dir = tmp_dir("torn");
        let path = dir.join("data.bin");
        std::fs::write(&path, b"old").unwrap();
        let faults = Arc::new(Faults::new(FaultPlan {
            seed: 7,
            torn_rename: 1.0,
            limit: 1,
            ..FaultPlan::default()
        }));
        let mut f = DurableFile::create(&path, Some(Arc::clone(&faults))).unwrap();
        f.write_all(b"new").unwrap();
        let err = f.commit().unwrap_err();
        assert!(err.to_string().contains("torn rename"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert_eq!(faults.injected(FaultSite::TornRename), 1);
        // The limit spent, the next commit goes through.
        let mut f = DurableFile::create(&path, Some(faults)).unwrap();
        f.write_all(b"new").unwrap();
        f.commit().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_write_tears_the_buffer_midway() {
        let dir = tmp_dir("short");
        let path = dir.join("journal.log");
        let faults = Arc::new(Faults::new(FaultPlan {
            seed: 1,
            short_write: 1.0,
            limit: 1,
            ..FaultPlan::default()
        }));
        let mut j = JournalFile::append_to(&path, Some(faults)).unwrap();
        let err = j.write_all(b"0123456789").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"01234", "half landed");
        // Limit spent: the next append is whole.
        j.write_all(b"AB").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"01234AB");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_corruption_flips_exactly_one_byte_deterministically() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("data.bin");
        let payload = vec![0u8; 64];
        std::fs::write(&path, &payload).unwrap();
        let plan = FaultPlan {
            seed: 42,
            read_corrupt: 1.0,
            ..FaultPlan::default()
        };
        let a = read_file_faulty(&path, Some(&Arc::new(Faults::new(plan)))).unwrap();
        let b = read_file_faulty(&path, Some(&Arc::new(Faults::new(plan)))).unwrap();
        assert_eq!(a, b, "same seed, same corruption");
        let flipped: Vec<usize> = a
            .iter()
            .zip(&payload)
            .enumerate()
            .filter(|(_, (x, y))| x != y)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(flipped.len(), 1, "exactly one byte flipped");
        assert_ne!(crc32(&a), crc32(&payload), "CRC catches it");
        let clean = read_file_faulty(&path, None).unwrap();
        assert_eq!(clean, payload);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_failure_surfaces_and_counts() {
        let dir = tmp_dir("fsync");
        let path = dir.join("journal.log");
        let faults = Arc::new(Faults::new(FaultPlan {
            seed: 3,
            fsync_fail: 1.0,
            limit: 1,
            ..FaultPlan::default()
        }));
        let mut j = JournalFile::append_to(&path, Some(Arc::clone(&faults))).unwrap();
        j.write_all(b"record").unwrap();
        assert!(j.sync().unwrap_err().to_string().contains("fsync"));
        assert_eq!(faults.injected(FaultSite::FsyncFail), 1);
        j.sync().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
