//! Write-ahead journal: append-only, CRC-framed, fsync-batched.
//!
//! The engine appends the opaque payloads of one lifecycle operation
//! (admission / join / media change / freeze / end / plan install) as one
//! [`Journal::append_with`] call, each framed in place into an in-memory
//! buffer under one lock, and the journal makes a durable prefix of those
//! payloads survive a process crash. Durability is batched: appends
//! accumulate in the buffer and are written + `fsync`ed together once
//! either `sync_every` records are pending or the `group_commit` window has
//! elapsed (checked once per append call) — the classic group-commit trade
//! of bounded loss for bounded write amplification.
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
//! One [`JournalReader`] validates frames, streaming the file through a
//! fixed buffer: [`Journal::scan`] collects its payloads read-only, and
//! recovery ([`Journal::reopen`]) applies each as it is read and truncates
//! a torn tail only once the last one is applied
//! ([`JournalReader::resume`]).
//!
//! Because appends buffer in memory until the group-commit fires, the file
//! content is always exactly the synced prefix: [`Journal::crash`] models a
//! process death by discarding the buffer, and a subsequent
//! [`Journal::reopen`] sees only records that were actually durable.
//!
//! Fault injection mirrors the sharded-map chaos hooks: a
//! [`JournalFault::Stall`] delays every append call (slow disk), a
//! [`JournalFault::Drop`] fails append calls whole with a typed error (full
//! disk / dead volume) without consuming sequence numbers, so the surviving
//! log stays dense and scannable.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
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

/// The CRC-32 (IEEE 802.3, reflected) polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight input bytes fold into the register with eight independent lookups.
/// Hand-rolled — the workspace vendors no checksum crate and the journal
/// must not grow a dependency for a page of table math.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes`: a frame's `seq || payload`.
/// Eight bytes a step through the slice-by-8 tables, the tail bytewise;
/// the same polynomial and the same value as the bytewise loop.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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

/// The records of one [`Journal::append_with`] call, framed in place into
/// the journal's group-commit buffer.
pub struct Frames<'a> {
    buf: &'a mut Vec<u8>,
    next_seq: u64,
    written: u64,
}

impl Frames<'_> {
    /// Frame one record: reserve its header, let `write` append the payload
    /// (it may only append), then patch in the length and the CRC. Returns
    /// the record's sequence number.
    pub fn frame(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let seq = self.next_seq + self.written;
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        self.buf.extend_from_slice(&seq.to_le_bytes());
        write(self.buf);
        let body = &self.buf[start + 8..];
        let len = body.len() as u32;
        let crc = crc32(body);
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        self.written += 1;
        seq
    }
}

/// Bytes of the log a [`JournalReader`] holds at once. Only a frame longer
/// than this (a large plan artifact) grows the buffer, to that one frame.
const READ_BUF: usize = 256 << 10;

fn read_io(e: std::io::Error) -> JournalReadError {
    JournalReadError::Io(e.to_string())
}

/// One validating pass over a journal, frame by frame, through one
/// fixed-size buffer (256 KiB): the magic is checked on open, then
/// [`next_frame`](JournalReader::next_frame) checks each frame's length,
/// CRC and sequence number and lends out its payload. A torn tail ends the
/// frames ([`torn_tail_bytes`](JournalReader::torn_tail_bytes)); mid-log
/// corruption and sequence errors are typed [`JournalReadError`]s, the
/// first one in log order. The reader itself never writes.
pub struct JournalReader<R = File> {
    src: R,
    /// Bytes in the log, taken when the reader opened it.
    len: u64,
    /// Log offset of the next frame; everything before it is valid.
    pos: u64,
    /// Frames handed out: the sequence number the next frame must carry.
    records: u64,
    /// `buf[start..end]` holds the log's bytes from `pos` on.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Bytes past the last valid frame, once the frames have ended.
    torn: Option<u64>,
}

impl JournalReader<File> {
    fn from_file(file: File) -> Result<JournalReader<File>, JournalReadError> {
        let len = file.metadata().map_err(read_io)?.len();
        JournalReader::new(file, len)
    }

    /// Hand the log back as a journal appending after its last valid
    /// frame: truncate the torn tail, if any, and resume at the next
    /// sequence number. The tail is known only once the frames have ended,
    /// so a reader that has not yielded its last frame refuses, typed.
    pub fn resume(self, path: &Path, cfg: JournalConfig) -> Result<Journal, JournalReadError> {
        let Some(torn) = self.torn else {
            return Err(JournalReadError::Io(
                "journal resumed before its last frame was read".into(),
            ));
        };
        let mut file = self.src;
        if torn > 0 {
            file.set_len(self.pos)
                .and_then(|()| file.sync_data())
                .map_err(read_io)?;
        }
        file.seek(SeekFrom::Start(self.pos)).map_err(read_io)?;
        Ok(Journal::with_file(file, self.records, path, cfg))
    }
}

impl<R: Read> JournalReader<R> {
    /// A reader over the `len`-byte log `src`, its magic checked.
    fn new(src: R, len: u64) -> Result<JournalReader<R>, JournalReadError> {
        let magic = JOURNAL_MAGIC.len();
        if len < magic as u64 {
            return Err(JournalReadError::BadMagic);
        }
        let mut reader = JournalReader {
            src,
            len,
            pos: 0,
            records: 0,
            buf: vec![0; len.min(READ_BUF as u64) as usize],
            start: 0,
            end: 0,
            torn: None,
        };
        reader.fill(magic)?;
        if reader.buf[..magic] != JOURNAL_MAGIC {
            return Err(JournalReadError::BadMagic);
        }
        reader.start = magic;
        reader.pos = magic as u64;
        Ok(reader)
    }

    /// The next frame's payload, or `None` once the frames have ended
    /// (cleanly or at a torn tail). A nonsense length field, a frame
    /// overrunning the end of the log, or a bad CRC on the log's last frame
    /// is a torn tail: there is no valid data after it. (A mid-log flipped
    /// length byte degrades to tail truncation too — recovery then rebuilds
    /// the prefix, which is exactly the "identical state or typed error"
    /// contract.) A bad CRC with data after it is
    /// [`JournalReadError::CorruptRecord`]; a sequence number other than
    /// the frame's position is [`JournalReadError::SeqMismatch`]. An error
    /// leaves the reader where it was: asking again returns it again.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, JournalReadError> {
        if self.torn.is_some() {
            return Ok(None);
        }
        let remaining = self.len - self.pos;
        if remaining < FRAME_HEADER as u64 {
            self.torn = Some(remaining);
            return Ok(None);
        }
        self.fill(FRAME_HEADER)?;
        let h = &self.buf[self.start..];
        let len = u32::from_le_bytes([h[0], h[1], h[2], h[3]]);
        let frame = 8 + u64::from(len);
        if !(8..=MAX_FRAME_LEN).contains(&len) || frame > remaining {
            self.torn = Some(remaining);
            return Ok(None);
        }
        let frame = frame as usize;
        self.fill(frame)?;
        let f = &self.buf[self.start..self.start + frame];
        let crc = u32::from_le_bytes([f[4], f[5], f[6], f[7]]);
        if crc32(&f[8..]) != crc {
            if frame as u64 == remaining {
                self.torn = Some(remaining);
                return Ok(None);
            }
            return Err(JournalReadError::CorruptRecord {
                index: self.records,
            });
        }
        let mut seq = [0; 8];
        seq.copy_from_slice(&f[8..16]);
        let seq = u64::from_le_bytes(seq);
        if seq != self.records {
            return Err(JournalReadError::SeqMismatch {
                index: self.records,
                expected: self.records,
                found: seq,
            });
        }
        let payload = self.start + FRAME_HEADER..self.start + frame;
        self.start += frame;
        self.pos += frame as u64;
        self.records += 1;
        Ok(Some(&self.buf[payload]))
    }

    /// Frames yielded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes past the last valid frame (a half-written tail); 0 until the
    /// frames have ended, and 0 for a clean log.
    pub fn torn_tail_bytes(&self) -> u64 {
        self.torn.unwrap_or(0)
    }

    /// Make `buf[start..]` hold at least `n` bytes of the log from `pos`
    /// on, reading as far ahead as the buffer allows. The caller has
    /// checked that the log holds them.
    fn fill(&mut self, n: usize) -> Result<(), JournalReadError> {
        if self.end - self.start >= n {
            return Ok(());
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() < n {
            self.buf.resize(n, 0);
        }
        while self.end < n {
            match self.src.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(JournalReadError::Io(
                        "journal ended before its length while it was read".into(),
                    ))
                }
                Ok(k) => self.end += k,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(read_io(e)),
            }
        }
        Ok(())
    }
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
    /// CRCs, and sequence density; truncates nothing. A collect over a
    /// [`JournalReader`].
    pub fn scan(path: &Path) -> Result<JournalScan, JournalReadError> {
        let file = File::open(path).map_err(read_io)?;
        let mut frames = JournalReader::from_file(file)?;
        let mut records = Vec::new();
        while let Some(payload) = frames.next_frame()? {
            records.push(payload.to_vec());
        }
        Ok(JournalScan {
            records,
            torn_tail_bytes: frames.torn_tail_bytes(),
        })
    }

    /// Open an existing journal to resume it: a reader over its frames,
    /// with the file open for reading and writing. Apply each payload as
    /// [`JournalReader::next_frame`] yields it, then
    /// [`JournalReader::resume`] truncates any torn tail and returns the
    /// journal — so a recovery refused part-way leaves the file as it was.
    pub fn reopen(path: &Path) -> Result<JournalReader, JournalReadError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(read_io)?;
        JournalReader::from_file(file)
    }

    /// Append one record; returns its sequence number. Durability is
    /// deferred to the group commit — call [`Journal::sync`] to force it.
    pub fn append(&self, payload: &[u8]) -> Result<u64, JournalError> {
        self.append_with(|f| f.frame(|out| out.extend_from_slice(payload)))
    }

    /// Append the records `write` frames ([`Frames::frame`]), in order and
    /// as one unit: one fault check, one lock and one group-commit check
    /// whatever their number, each record framed straight into the
    /// group-commit buffer. A [`JournalFault::Drop`] rejects the whole call
    /// before `write` runs and consumes no sequence number; a
    /// [`JournalFault::Stall`] delays it once. Returns what `write` returns.
    pub fn append_with<R>(
        &self,
        write: impl FnOnce(&mut Frames<'_>) -> R,
    ) -> Result<R, JournalError> {
        // copy the fault out: a stall must not hold the fault lock while it
        // sleeps, or concurrent appends serialize and a heal waits it out
        let fault = *self.fault.lock();
        match fault {
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
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if inner.crashed {
            return Err(JournalError::Crashed);
        }
        let mut frames = Frames {
            buf: &mut inner.pending,
            next_seq: inner.next_seq,
            written: 0,
        };
        let out = write(&mut frames);
        let written = frames.written;
        inner.next_seq += written;
        inner.pending_records += written;
        self.appended.fetch_add(written, Ordering::Relaxed);
        if inner.pending_records >= self.cfg.sync_every as u64
            || inner.last_sync.elapsed() >= self.cfg.group_commit
        {
            self.sync_locked(inner)?;
        }
        Ok(out)
    }

    fn sync_locked(&self, inner: &mut Inner) -> Result<(), JournalError> {
        if inner.pending.is_empty() {
            inner.last_sync = Instant::now();
            return Ok(());
        }
        let n = inner.pending_records;
        // the buffer keeps its capacity for the next batch; a failed write
        // loses the batch either way
        let written = inner
            .file
            .write_all(&inner.pending)
            .and_then(|()| inner.file.sync_data());
        inner.pending.clear();
        inner.pending_records = 0;
        written.map_err(|e| JournalError::Io(e.to_string()))?;
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

    /// Records framed by accepted appends since creation (durable or still
    /// pending).
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
        let torn_len = std::fs::metadata(&path).unwrap().len();
        let mut frames = Journal::reopen(&path).unwrap();
        assert_eq!(frames.next_frame().unwrap(), Some(&b"keep-me"[..]));
        // the tail is unknown until the frames end: no resume before that,
        // and nothing is cut while the records are read
        let mut frames = match frames.resume(&path, cfg_every(1)) {
            Err(JournalReadError::Io(_)) => Journal::reopen(&path).unwrap(),
            other => panic!("resumed mid-log: {:?}", other.err()),
        };
        assert_eq!(std::fs::metadata(&path).unwrap().len(), torn_len);
        assert_eq!(frames.next_frame().unwrap(), Some(&b"keep-me"[..]));
        assert_eq!(frames.next_frame().unwrap(), None);
        assert_eq!(frames.records(), 1);
        assert!(frames.torn_tail_bytes() > 0);
        let j2 = frames.resume(&path, cfg_every(1)).unwrap();
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

    /// The bytewise CRC the sliced one replaced: one table lookup per byte of
    /// `seq || payload`, the reference every test below holds it to.
    fn crc32_bytewise(seq: u64, payload: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, e) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        let mut c = !0u32;
        for &b in seq.to_le_bytes().iter().chain(payload) {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn seq_payload(seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut v = seq.to_le_bytes().to_vec();
        v.extend_from_slice(payload);
        v
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // the CRC-32/ISO-HDLC check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let mut rng = StdRng::seed_from_u64(7);
        let mut random = |n: usize| (0..n).map(|_| rng.gen::<u32>() as u8).collect::<Vec<u8>>();
        let payload = random(64);
        for seq in [0, 1, 255, 65_537, u64::MAX / 3, u64::MAX] {
            for len in 0..=64 {
                let p = &payload[..len];
                assert_eq!(
                    crc32(&seq_payload(seq, p)),
                    crc32_bytewise(seq, p),
                    "seq {seq}, payload length {len}"
                );
            }
        }
        let big = random(1 << 20);
        assert_eq!(crc32(&seq_payload(3, &big)), crc32_bytewise(3, &big));
    }

    #[test]
    fn append_with_frames_a_batch_under_one_group_commit_check() {
        let path = tmp("append_with");
        let j = Journal::create(&path, cfg_every(3)).unwrap();
        // two frames in one call: one check, 2 < 3 pending, no sync
        let seqs = j
            .append_with(|f| [f.frame(|o| o.extend_from_slice(b"a")), f.frame(|_| {})])
            .unwrap();
        assert_eq!(seqs, [0, 1]);
        assert_eq!((j.pending_records(), j.sync_count()), (2, 0));
        // two more: 4 >= 3 at the call's one check, both synced together
        j.append_with(|f| {
            f.frame(|o| o.extend_from_slice(b"bb"));
            f.frame(|o| o.extend_from_slice(b"ccc"));
        })
        .unwrap();
        assert_eq!((j.pending_records(), j.sync_count()), (0, 1));
        assert_eq!(j.appended_records(), 4);
        // a dropped call loses all its frames and no sequence number
        j.set_fault(JournalFault::Drop);
        let ran = std::cell::Cell::new(false);
        let dropped = j.append_with(|f| {
            ran.set(true);
            f.frame(|o| o.push(0))
        });
        assert_eq!(dropped, Err(JournalError::Dropped));
        assert!(!ran.get(), "a dropped append never runs its writer");
        j.set_fault(JournalFault::None);
        assert_eq!(j.append(b"dd").unwrap(), 4);
        j.sync().unwrap();
        let scan = Journal::scan(&path).unwrap();
        let want: [&[u8]; 5] = [b"a", b"", b"bb", b"ccc", b"dd"];
        assert_eq!(scan.records, want.map(<[u8]>::to_vec));
        std::fs::remove_file(&path).ok();
    }

    /// Regression: a stall slept with the fault lock held, so two
    /// concurrent stalled appends took two stalls and a heal issued during
    /// a stall waited for it to end.
    #[test]
    fn a_stall_holds_no_lock_while_it_sleeps() {
        let path = tmp("stall_unlocked");
        let j = Journal::create(&path, cfg_every(1_000)).unwrap();
        let stall = Duration::from_millis(60);
        j.set_fault(JournalFault::Stall(stall));
        // two appends released together sleep side by side
        let start = std::sync::Barrier::new(2);
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    j.append(b"slow").unwrap()
                });
            }
        });
        let both = t.elapsed();
        assert!(both < stall * 3 / 2, "two stalls overlap: {both:?}");
        // a heal issued while an append is stalling returns at once
        let heal = std::thread::scope(|s| {
            s.spawn(|| j.append(b"slow").unwrap());
            while j.stalled_appends() < 3 {
                std::thread::yield_now();
            }
            let t = Instant::now();
            j.set_fault(JournalFault::None);
            t.elapsed()
        });
        assert!(heal < stall / 2, "a heal waits for no stall: {heal:?}");
        std::fs::remove_file(&path).ok();
    }

    /// The whole-file scan the streaming reader replaced: the log read into
    /// memory, every frame validated and copied out. The oracle the reader
    /// is held to, result for result.
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
                return torn(records);
            }
            let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
            let Ok(seq) = buf[pos + 8..pos + 16].try_into().map(u64::from_le_bytes) else {
                return Err(JournalReadError::CorruptRecord { index });
            };
            if crc32(&buf[pos + 8..frame_end]) != crc {
                if frame_end == buf.len() {
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
            records.push(buf[pos + 16..frame_end].to_vec());
            pos = frame_end;
        }
    }

    /// A source handing out at most `step` bytes a read, so frames straddle
    /// every refill of the reader's buffer.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = out.len().min(self.step).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    type Collected = Result<(Vec<Vec<u8>>, u64), JournalReadError>;

    /// Collect `bytes` through the streaming reader, `step` bytes a read.
    fn read_through(bytes: &[u8], step: usize) -> Collected {
        let src = Trickle { bytes, step };
        let mut frames = JournalReader::new(src, bytes.len() as u64)?;
        let mut records = Vec::new();
        while let Some(p) = frames.next_frame()? {
            records.push(p.to_vec());
        }
        assert_eq!(frames.records(), records.len() as u64);
        Ok((records, frames.torn_tail_bytes()))
    }

    fn oracle(bytes: &[u8]) -> Collected {
        scan_bytes(bytes).map(|s| (s.records, s.torn_tail_bytes))
    }

    /// A small log shaped like a journaled packing drive's: a plan install,
    /// then ops of one to four records (an admit, a join with its packs, a
    /// freeze, an end), appended and synced through the journal itself.
    fn packing_log(name: &str, plan_bytes: usize, ops: u64) -> Vec<u8> {
        let path = tmp(name);
        let j = Journal::create(&path, cfg_every(5)).unwrap();
        j.append(&vec![b'{'; plan_bytes]).unwrap();
        for op in 0..ops {
            j.append_with(|f| {
                for r in 0..=(op % 4) {
                    f.frame(|out| out.extend((0..9 + 3 * r).map(|b| (op + b) as u8)));
                }
            })
            .unwrap();
        }
        j.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn reader_matches_the_whole_file_scan_on_every_cut_and_flip() {
        let log = packing_log("oracle", 200, 24);
        let clean = oracle(&log).unwrap();
        assert_eq!((clean.0.len(), clean.1), (1 + 60, 0));
        for step in [1, 7, usize::MAX] {
            assert_eq!(read_through(&log, step), Ok(clean.clone()));
        }
        // every byte-prefix truncation, a file shorter than the magic among
        // them, each read both whole and a few bytes at a time
        for cut in 0..=log.len() {
            let want = oracle(&log[..cut]);
            assert_eq!(read_through(&log[..cut], usize::MAX), want, "cut at {cut}");
            assert_eq!(read_through(&log[..cut], 5), want, "cut at {cut}");
        }
        assert_eq!(read_through(&log[..3], 1), Err(JournalReadError::BadMagic));
        // every single-bit flip
        let mut flipped = log.clone();
        let mut kinds = [0usize; 3];
        for at in 0..log.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                let want = oracle(&flipped);
                kinds[match &want {
                    Ok(_) => 0,
                    Err(JournalReadError::CorruptRecord { .. }) => 1,
                    Err(_) => 2,
                }] += 1;
                assert_eq!(read_through(&flipped, 11), want, "bit {bit} of byte {at}");
                flipped[at] ^= 1 << bit;
            }
        }
        // the flips reach a torn tail, mid-log corruption and a bad magic
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
        // a duplicated last frame
        let mut dup = log.clone();
        let last = clean.0.last().unwrap().len() + FRAME_HEADER;
        dup.extend_from_slice(&log[log.len() - last..]);
        let want = oracle(&dup);
        assert!(matches!(want, Err(JournalReadError::SeqMismatch { .. })));
        assert_eq!(read_through(&dup, 3), want);
    }

    /// A log several buffers long, with a plan frame larger than the buffer
    /// itself: the reader refills and grows, and still agrees with the scan.
    #[test]
    fn reader_streams_a_log_longer_than_its_buffer() {
        let log = packing_log("long", READ_BUF + 1_000, 20_000);
        assert!(log.len() > 3 * READ_BUF);
        let clean = oracle(&log).unwrap();
        assert_eq!(read_through(&log, usize::MAX), Ok(clean.clone()));
        assert_eq!(read_through(&log, 4_099), Ok(clean));
        for cut in [
            JOURNAL_MAGIC.len() + READ_BUF / 2,
            log.len() / 2,
            log.len() - 1,
        ] {
            assert_eq!(read_through(&log[..cut], 65_537), oracle(&log[..cut]));
        }
        let mut flipped = log.clone();
        flipped[log.len() / 3] ^= 0x10;
        assert_eq!(read_through(&flipped, usize::MAX), oracle(&flipped));
    }

    #[test]
    fn scan_reads_a_read_only_file() {
        let path = tmp("readonly");
        let j = Journal::create(&path, cfg_every(1)).unwrap();
        j.append(b"kept").unwrap();
        drop(j);
        let mut perms = std::fs::metadata(&path).unwrap().permissions();
        perms.set_readonly(true);
        std::fs::set_permissions(&path, perms.clone()).unwrap();
        let scan = Journal::scan(&path).unwrap();
        assert_eq!(
            (scan.records, scan.torn_tail_bytes),
            (vec![b"kept".to_vec()], 0)
        );
        #[allow(clippy::permissions_set_readonly_false)]
        perms.set_readonly(false);
        std::fs::set_permissions(&path, perms).unwrap();
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
