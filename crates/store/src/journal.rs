//! Write-ahead journal: append-only, CRC-framed, fsync-batched.
//!
//! The engine appends one opaque payload per lifecycle operation
//! (admission / join / media change / freeze / end / plan install) and the
//! journal makes a durable prefix of those payloads survive a process
//! crash. Durability is batched: appends accumulate in an in-memory buffer
//! and are written + `fsync`ed together once either `sync_every` records
//! are pending or the `group_commit` window has elapsed — the classic
//! group-commit trade of bounded loss for bounded write amplification.
//!
//! ## On-disk format
//!
//! ```text
//! [ magic: 8 bytes "SBJRNL01" ]
//! [ frame ]*
//! frame = [ len: u32 LE ]            // 8 + payload length
//!         [ crc: u32 LE ]            // CRC-32 (IEEE) over seq || payload
//!         [ seq: u64 LE ]            // record index, 0-based
//!         [ payload: len - 8 bytes ]
//! ```
//!
//! The sequence number is embedded in (and covered by) every frame, so a
//! scan can detect duplicated or re-ordered records — a frame whose `seq`
//! does not equal its position is a typed [`JournalReadError::SeqMismatch`],
//! never silently accepted. A half-written frame at end-of-file (torn tail)
//! is the *expected* crash artifact and is truncated on recovery; a corrupt
//! frame with valid data after it is a hard [`JournalReadError`].
//!
//! Because appends buffer in memory until the group-commit fires, the file
//! content is always exactly the synced prefix: [`Journal::crash`] models a
//! process death by discarding the buffer, and a subsequent
//! [`Journal::recover`] sees only records that were actually durable.
//!
//! Fault injection mirrors the sharded-map chaos hooks: a
//! [`JournalFault::Stall`] delays every append (slow disk), a
//! [`JournalFault::Drop`] fails appends with a typed error (full disk /
//! dead volume) without consuming sequence numbers, so the surviving log
//! stays dense and scannable.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// File magic: identifies a Switchboard journal, version 01.
pub const JOURNAL_MAGIC: [u8; 8] = *b"SBJRNL01";

/// Per-frame header bytes preceding the payload: len + crc + seq.
const FRAME_HEADER: usize = 4 + 4 + 8;

/// Hard ceiling on one frame's `len` field (8-byte seq + payload). Anything
/// larger is treated as corruption — plan artifacts are the biggest records
/// and stay far below this.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// CRC-32 (IEEE 802.3, reflected) over `seq || payload`. Hand-rolled table
/// — the workspace vendors no checksum crate and the journal must not grow
/// a dependency for 20 lines of table math.
fn crc32(seq: u64, payload: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in seq.to_le_bytes().iter().chain(payload) {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Group-commit tuning for a [`Journal`].
#[derive(Copy, Clone, Debug)]
pub struct JournalConfig {
    /// Maximum time an appended record may sit unsynced before the next
    /// append forces a group commit.
    pub group_commit: Duration,
    /// Sync once this many records are pending, regardless of the window.
    pub sync_every: usize,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            group_commit: Duration::from_millis(5),
            sync_every: 64,
        }
    }
}

/// Injected journal fault (service-layer chaos).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum JournalFault {
    /// Healthy.
    #[default]
    None,
    /// Every append stalls for this long before proceeding (slow disk).
    Stall(Duration),
    /// Every append fails with [`JournalError::Dropped`] (dead volume).
    Drop,
}

/// Append-side failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The journal was crashed ([`Journal::crash`]); no further appends.
    Crashed,
    /// An injected [`JournalFault::Drop`] rejected the append.
    Dropped,
    /// The underlying file write or fsync failed.
    Io(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Crashed => write!(f, "journal crashed"),
            JournalError::Dropped => write!(f, "journal write dropped by injected fault"),
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Scan/recovery-side failure. Torn tails are *not* errors — they are
/// reported via [`JournalScan::torn_tail_bytes`] and truncated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalReadError {
    /// The file could not be opened or read.
    Io(String),
    /// The file does not start with [`JOURNAL_MAGIC`].
    BadMagic,
    /// Frame `index` failed its CRC (or has a nonsense length) while valid
    /// data follows it — mid-log corruption, not a torn tail.
    CorruptRecord {
        /// 0-based frame index.
        index: u64,
    },
    /// Frame `index` carries a sequence number other than its position —
    /// a duplicated, re-ordered, or spliced record.
    SeqMismatch {
        /// 0-based frame index.
        index: u64,
        /// The sequence number the position demands.
        expected: u64,
        /// The sequence number found in the frame.
        found: u64,
    },
}

impl fmt::Display for JournalReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalReadError::Io(e) => write!(f, "journal read error: {e}"),
            JournalReadError::BadMagic => write!(f, "not a journal file (bad magic)"),
            JournalReadError::CorruptRecord { index } => {
                write!(f, "corrupt journal record at index {index}")
            }
            JournalReadError::SeqMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "journal sequence mismatch at index {index}: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for JournalReadError {}

/// Result of scanning a journal file: the durable records in order, plus
/// how many trailing bytes were discarded as a torn tail.
#[derive(Clone, Debug)]
pub struct JournalScan {
    /// Decoded payloads, frame order == sequence order.
    pub records: Vec<Vec<u8>>,
    /// Bytes past the last valid frame (half-written tail), 0 if clean.
    pub torn_tail_bytes: u64,
}

struct Inner {
    file: File,
    /// Encoded frames not yet written+synced. The file on disk always
    /// contains exactly the synced prefix.
    pending: Vec<u8>,
    pending_records: u64,
    next_seq: u64,
    synced_records: u64,
    last_sync: Instant,
    crashed: bool,
}

/// An append-only write-ahead journal with group commit.
pub struct Journal {
    inner: Mutex<Inner>,
    cfg: JournalConfig,
    fault: Mutex<JournalFault>,
    path: PathBuf,
    appended: AtomicU64,
    syncs: AtomicU64,
    dropped: AtomicU64,
    stalled: AtomicU64,
}

impl Journal {
    /// Create (truncating) a fresh journal at `path`.
    pub fn create(path: &Path, cfg: JournalConfig) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| JournalError::Io(e.to_string()))?;
        file.write_all(&JOURNAL_MAGIC)
            .and_then(|()| file.sync_data())
            .map_err(|e| JournalError::Io(e.to_string()))?;
        Ok(Journal::with_file(file, 0, path, cfg))
    }

    fn with_file(file: File, next_seq: u64, path: &Path, cfg: JournalConfig) -> Journal {
        Journal {
            inner: Mutex::new(Inner {
                file,
                pending: Vec::new(),
                pending_records: 0,
                next_seq,
                synced_records: next_seq,
                last_sync: Instant::now(),
                crashed: false,
            }),
            cfg,
            fault: Mutex::new(JournalFault::None),
            path: path.to_path_buf(),
            appended: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
        }
    }

    /// Scan a journal file without opening it for writing: validates magic,
    /// CRCs, and sequence density; truncates nothing.
    pub fn scan(path: &Path) -> Result<JournalScan, JournalReadError> {
        let mut buf = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut buf))
            .map_err(|e| JournalReadError::Io(e.to_string()))?;
        Journal::scan_bytes(&buf)
    }

    fn scan_bytes(buf: &[u8]) -> Result<JournalScan, JournalReadError> {
        if buf.len() < JOURNAL_MAGIC.len() || buf[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(JournalReadError::BadMagic);
        }
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut pos = JOURNAL_MAGIC.len();
        loop {
            let remaining = buf.len() - pos;
            if remaining == 0 {
                return Ok(JournalScan {
                    records,
                    torn_tail_bytes: 0,
                });
            }
            let index = records.len() as u64;
            let torn = |records: Vec<Vec<u8>>| {
                Ok(JournalScan {
                    records,
                    torn_tail_bytes: remaining as u64,
                })
            };
            if remaining < FRAME_HEADER {
                return torn(records);
            }
            let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]);
            let bad_len = !(8..=MAX_FRAME_LEN).contains(&len);
            let frame_end = if bad_len {
                usize::MAX
            } else {
                pos + 8 + len as usize
            };
            if bad_len || frame_end > buf.len() {
                // A nonsense length field or a frame overrunning EOF: if
                // this is the last thing in the file it is a torn tail;
                // there is no "valid data after it" to distinguish, so
                // truncate. (A mid-log flipped length byte degrades to
                // tail truncation too — recovery then rebuilds the prefix,
                // which is exactly the "identical state or typed error"
                // contract.)
                return torn(records);
            }
            let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
            let Ok(seq) = buf[pos + 8..pos + 16].try_into().map(u64::from_le_bytes) else {
                return Err(JournalReadError::CorruptRecord { index });
            };
            let payload = &buf[pos + 16..frame_end];
            if crc32(seq, payload) != crc {
                if frame_end == buf.len() {
                    // bad CRC on the final frame: half-written tail
                    return torn(records);
                }
                return Err(JournalReadError::CorruptRecord { index });
            }
            if seq != index {
                return Err(JournalReadError::SeqMismatch {
                    index,
                    expected: index,
                    found: seq,
                });
            }
            records.push(payload.to_vec());
            pos = frame_end;
        }
    }

    /// Open an existing journal for recovery: scan it, truncate any torn
    /// tail, and return a journal positioned to append record
    /// `scan.records.len()` next.
    pub fn recover(
        path: &Path,
        cfg: JournalConfig,
    ) -> Result<(Journal, JournalScan), JournalReadError> {
        let mut buf = Vec::new();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| JournalReadError::Io(e.to_string()))?;
        file.read_to_end(&mut buf)
            .map_err(|e| JournalReadError::Io(e.to_string()))?;
        let scan = Journal::scan_bytes(&buf)?;
        let valid_len = buf.len() as u64 - scan.torn_tail_bytes;
        if scan.torn_tail_bytes > 0 {
            file.set_len(valid_len)
                .and_then(|()| file.sync_data())
                .map_err(|e| JournalReadError::Io(e.to_string()))?;
        }
        file.seek(SeekFrom::Start(valid_len))
            .map_err(|e| JournalReadError::Io(e.to_string()))?;
        let journal = Journal::with_file(file, scan.records.len() as u64, path, cfg);
        Ok((journal, scan))
    }

    /// Append one record; returns its sequence number. Durability is
    /// deferred to the group commit — call [`Journal::sync`] to force it.
    pub fn append(&self, payload: &[u8]) -> Result<u64, JournalError> {
        match *self.fault.lock() {
            JournalFault::None => {}
            JournalFault::Stall(d) => {
                self.stalled.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(d);
            }
            JournalFault::Drop => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return Err(JournalError::Dropped);
            }
        }
        let mut inner = self.inner.lock();
        if inner.crashed {
            return Err(JournalError::Crashed);
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let crc = crc32(seq, payload);
        let len = (8 + payload.len()) as u32;
        inner.pending.extend_from_slice(&len.to_le_bytes());
        inner.pending.extend_from_slice(&crc.to_le_bytes());
        inner.pending.extend_from_slice(&seq.to_le_bytes());
        inner.pending.extend_from_slice(payload);
        inner.pending_records += 1;
        self.appended.fetch_add(1, Ordering::Relaxed);
        if inner.pending_records >= self.cfg.sync_every as u64
            || inner.last_sync.elapsed() >= self.cfg.group_commit
        {
            self.sync_locked(&mut inner)?;
        }
        Ok(seq)
    }

    fn sync_locked(&self, inner: &mut Inner) -> Result<(), JournalError> {
        if inner.pending.is_empty() {
            inner.last_sync = Instant::now();
            return Ok(());
        }
        let pending = std::mem::take(&mut inner.pending);
        let n = inner.pending_records;
        inner.pending_records = 0;
        inner
            .file
            .write_all(&pending)
            .and_then(|()| inner.file.sync_data())
            .map_err(|e| JournalError::Io(e.to_string()))?;
        inner.synced_records += n;
        inner.last_sync = Instant::now();
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Force the group commit: write and fsync all pending records.
    pub fn sync(&self) -> Result<(), JournalError> {
        let mut inner = self.inner.lock();
        if inner.crashed {
            return Err(JournalError::Crashed);
        }
        self.sync_locked(&mut inner)
    }

    /// Model a process crash: discard every record still in the group-commit
    /// buffer (they were never durable) and refuse further appends. Returns
    /// the number of records lost.
    pub fn crash(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.crashed = true;
        inner.pending.clear();
        let lost = inner.pending_records;
        inner.pending_records = 0;
        lost
    }

    /// Install (or clear) an injected fault.
    pub fn set_fault(&self, fault: JournalFault) {
        *self.fault.lock() = fault;
    }

    /// The path this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records accepted by [`Journal::append`] since creation (durable or
    /// still pending).
    pub fn appended_records(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Records made durable so far.
    pub fn synced_records(&self) -> u64 {
        self.inner.lock().synced_records
    }

    /// Records currently buffered, not yet durable.
    pub fn pending_records(&self) -> u64 {
        self.inner.lock().pending_records
    }

    /// Group commits performed.
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Appends rejected by an injected [`JournalFault::Drop`].
    pub fn dropped_appends(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends delayed by an injected [`JournalFault::Stall`].
    pub fn stalled_appends(&self) -> u64 {
        self.stalled.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sb_journal_test_{}_{}", std::process::id(), name));
        p
    }

    fn cfg_every(n: usize) -> JournalConfig {
        JournalConfig {
            group_commit: Duration::from_secs(3600),
            sync_every: n,
        }
    }

    #[test]
    fn append_sync_scan_roundtrip() {
        let path = tmp("roundtrip");
        let j = Journal::create(&path, cfg_every(2)).unwrap();
        assert_eq!(j.append(b"alpha").unwrap(), 0);
        assert_eq!(j.pending_records(), 1);
        assert_eq!(j.append(b"beta").unwrap(), 1); // hits sync_every=2
        assert_eq!(j.pending_records(), 0);
        j.append(b"gamma").unwrap();
        j.sync().unwrap();
        assert_eq!(j.synced_records(), 3);
        let scan = Journal::scan(&path).unwrap();
        assert_eq!(scan.torn_tail_bytes, 0);
        assert_eq!(
            scan.records,
            vec![b"alpha".to_vec(), b"beta".to_vec(), b"gamma".to_vec()]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_loses_only_the_unsynced_tail() {
        let path = tmp("crash");
        let j = Journal::create(&path, cfg_every(100)).unwrap();
        j.append(b"a").unwrap();
        j.append(b"b").unwrap();
        j.sync().unwrap();
        j.append(b"c").unwrap();
        j.append(b"d").unwrap();
        assert_eq!(j.crash(), 2);
        assert!(matches!(j.append(b"e"), Err(JournalError::Crashed)));
        let scan = Journal::scan(&path).unwrap();
        assert_eq!(scan.records, vec![b"a".to_vec(), b"b".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_recover() {
        let path = tmp("torn");
        let j = Journal::create(&path, cfg_every(1)).unwrap();
        j.append(b"keep-me").unwrap();
        j.append(b"tear-me").unwrap();
        drop(j);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap(); // rip 3 bytes off the last frame
        drop(f);
        let (j2, scan) = Journal::recover(&path, cfg_every(1)).unwrap();
        assert_eq!(scan.records, vec![b"keep-me".to_vec()]);
        assert!(scan.torn_tail_bytes > 0);
        // the journal resumes at the right sequence number
        assert_eq!(j2.append(b"after").unwrap(), 1);
        j2.sync().unwrap();
        let scan2 = Journal::scan(&path).unwrap();
        assert_eq!(scan2.records, vec![b"keep-me".to_vec(), b"after".to_vec()]);
        assert_eq!(scan2.torn_tail_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicated_frame_is_a_seq_mismatch() {
        let path = tmp("dup");
        let j = Journal::create(&path, cfg_every(1)).unwrap();
        j.append(b"only").unwrap();
        drop(j);
        // duplicate the single frame byte-for-byte
        let bytes = std::fs::read(&path).unwrap();
        let frame = bytes[JOURNAL_MAGIC.len()..].to_vec();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame).unwrap();
        drop(f);
        match Journal::scan(&path) {
            Err(JournalReadError::SeqMismatch {
                index,
                expected,
                found,
            }) => {
                assert_eq!((index, expected, found), (1, 1, 0));
            }
            other => panic!("expected SeqMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let path = tmp("midcorrupt");
        let j = Journal::create(&path, cfg_every(1)).unwrap();
        j.append(b"first-record").unwrap();
        j.append(b"second-record").unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // flip a payload byte inside the *first* frame (payload starts at
        // magic + header)
        let idx = JOURNAL_MAGIC.len() + FRAME_HEADER + 2;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::scan(&path),
            Err(JournalReadError::CorruptRecord { index: 0 })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_missing_file_are_typed() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(matches!(
            Journal::scan(&path),
            Err(JournalReadError::BadMagic)
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(Journal::scan(&path), Err(JournalReadError::Io(_))));
    }

    #[test]
    fn drop_fault_is_typed_and_keeps_seq_dense() {
        let path = tmp("dropfault");
        let j = Journal::create(&path, cfg_every(1)).unwrap();
        j.append(b"a").unwrap();
        j.set_fault(JournalFault::Drop);
        assert!(matches!(j.append(b"lost"), Err(JournalError::Dropped)));
        assert_eq!(j.dropped_appends(), 1);
        j.set_fault(JournalFault::None);
        // the dropped append consumed no sequence number
        assert_eq!(j.append(b"b").unwrap(), 1);
        j.sync().unwrap();
        let scan = Journal::scan(&path).unwrap();
        assert_eq!(scan.records, vec![b"a".to_vec(), b"b".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stall_fault_delays_but_succeeds() {
        let path = tmp("stallfault");
        let j = Journal::create(&path, cfg_every(1)).unwrap();
        j.set_fault(JournalFault::Stall(Duration::from_millis(2)));
        let t = Instant::now();
        j.append(b"slow").unwrap();
        assert!(t.elapsed() >= Duration::from_millis(2));
        assert_eq!(j.stalled_appends(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_window_forces_sync() {
        let path = tmp("window");
        let cfg = JournalConfig {
            group_commit: Duration::from_millis(1),
            sync_every: 1_000_000,
        };
        let j = Journal::create(&path, cfg).unwrap();
        j.append(b"first").unwrap();
        std::thread::sleep(Duration::from_millis(3));
        // window elapsed: this append flushes both records
        j.append(b"second").unwrap();
        assert_eq!(j.pending_records(), 0);
        assert_eq!(j.synced_records(), 2);
        std::fs::remove_file(&path).ok();
    }
}
