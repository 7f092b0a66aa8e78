//! The `SGNNSHRD` on-disk sharded-CSR format.
//!
//! One file holds the *structure* of a symmetric {0,1} adjacency matrix —
//! values are implied 1.0, exactly what [`crate::graph::Graph`] stores — cut
//! into row shards sized for the decode ring:
//!
//! ```text
//! offset  size  field
//! 0       8     magic            b"SGNNSHRD"
//! 8       4     version          u32 LE (currently 1)
//! 12      4     flags            u32 LE (bit 0: structure is symmetric)
//! 16      8     n                u64 LE, rows == cols
//! 24      8     nnz              u64 LE, stored entries (no diagonal)
//! 32      8     shard_count      u64 LE
//! 40      8     max_shard_rows   u64 LE (largest shard, rows)
//! 48      8     max_shard_nnz    u64 LE (largest shard, stored entries)
//! 56      8     max_blob_len     u64 LE (largest encoded shard, bytes)
//! 64      8     meta_off         u64 LE (start of the meta block)
//! 72      8     meta_len         u64 LE
//! 80      4     meta_crc         u32 LE (CRC32 of the meta block)
//! 84      ...   shard blobs, concatenated in row order
//! meta_off ...  meta block
//! ```
//!
//! Each **blob** is the rows of one shard, encoded back to back with the
//! gap-delta varint codec of [`super::varint`] (row lengths live in the
//! degree table, so blobs carry columns only). Each blob has its own CRC32
//! in the shard index — decode verifies per shard, so a flipped bit names
//! the shard it hit and opening a file never reads the whole edge set.
//!
//! The **meta block** is the degree table (`n` varints of structural degree)
//! followed by the shard index (`shard_count` entries of varint `rows`,
//! `nnz`, `blob_len` and a raw-LE `u32` blob CRC; row ranges and byte
//! offsets are cumulative). It is `O(n)` — the only part of the graph that
//! must be resident.
//!
//! The header is not the [`sealed`] envelope — one CRC over the payload
//! would make opening a graph read every edge — but it is read through the
//! same count-checked cursor and written through the same atomic file:
//! stream blobs behind a placeholder header, append the meta block, patch
//! the real header, commit.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use sgnn_dense::sealed::{self, crc32, AtomicFile, Cursor};

use super::varint::{self, VarintError};

pub(crate) const MAGIC: &[u8; 8] = b"SGNNSHRD";
pub(crate) const VERSION: u32 = 1;
pub(crate) const HEADER_LEN: u64 = 84;
pub(crate) const FLAG_SYMMETRIC: u32 = 1;

/// Why a shard file was rejected or could not be produced.
#[derive(Debug)]
pub enum ShardError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The magic bytes are not `SGNNSHRD`.
    BadMagic,
    /// A newer (or corrupt) format version.
    UnsupportedVersion(u32),
    /// The file ends before the declared sections do.
    Truncated,
    /// The meta block's CRC does not match.
    MetaCrcMismatch,
    /// Shard `k`'s blob CRC does not match.
    BlobCrcMismatch(usize),
    /// Structurally invalid contents.
    Malformed(&'static str),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard file i/o: {e}"),
            ShardError::BadMagic => write!(f, "not a SGNNSHRD file"),
            ShardError::UnsupportedVersion(v) => write!(f, "unsupported shard version {v}"),
            ShardError::Truncated => write!(f, "shard file truncated"),
            ShardError::MetaCrcMismatch => write!(f, "shard meta block failed CRC"),
            ShardError::BlobCrcMismatch(k) => write!(f, "shard {k} blob failed CRC"),
            ShardError::Malformed(what) => write!(f, "malformed shard file: {what}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// What the shared cursor can refuse the header or meta block for.
impl From<sealed::Error> for ShardError {
    fn from(e: sealed::Error) -> Self {
        match e {
            sealed::Error::Truncated => ShardError::Truncated,
            sealed::Error::Io(why) => ShardError::Io(std::io::Error::other(why)),
            _ => ShardError::Malformed("count out of range"),
        }
    }
}

impl From<VarintError> for ShardError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => ShardError::Truncated,
            VarintError::Overflow => ShardError::Malformed("varint out of range"),
            VarintError::DiagonalCollision => ShardError::Malformed("diagonal entry in structure"),
        }
    }
}

/// One shard's entry in the in-memory index (byte range resolved).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ShardMeta {
    /// First row this shard covers.
    pub first_row: usize,
    /// Rows covered (contiguous).
    pub rows: usize,
    /// Stored entries (no diagonal).
    pub nnz: usize,
    /// Byte offset of the blob within the file.
    pub offset: u64,
    /// Encoded blob length in bytes.
    pub blob_len: usize,
    /// CRC32 of the blob.
    pub crc: u32,
}

/// Parsed header + meta of a shard file — everything resident about the
/// graph structure except the blobs themselves.
#[derive(Debug)]
pub(crate) struct ShardIndex {
    pub n: usize,
    pub nnz: u64,
    pub symmetric: bool,
    pub max_shard_rows: usize,
    pub max_shard_nnz: usize,
    pub max_blob_len: usize,
    /// Structural degree per row (no diagonal).
    pub degs: Vec<u32>,
    pub shards: Vec<ShardMeta>,
}

/// What [`ShardWriter::finish`] reports about the file it produced.
#[derive(Clone, Copy, Debug)]
pub struct ShardSummary {
    pub n: usize,
    pub nnz: u64,
    pub shards: usize,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

/// Streaming writer: rows are pushed in order, [`cut`](Self::cut) ends the
/// current shard, [`finish`](Self::finish) seals the file atomically. The
/// writer buffers one shard (bounded by the caller's shard budget) plus the
/// `O(n)` degree table — never the whole edge set.
pub struct ShardWriter {
    out: AtomicFile,
    n: usize,
    next_row: usize,
    degs: Vec<u32>,
    shards: Vec<(usize, usize, usize, u32)>, // rows, nnz, blob_len, crc
    nnz: u64,
    cur_rows: usize,
    cur_nnz: usize,
    cur_blob: Vec<u8>,
}

impl ShardWriter {
    /// Starts writing a graph on `n` nodes; nothing appears at `path`
    /// until [`finish`](Self::finish) succeeds.
    pub fn create(path: &Path, n: usize) -> Result<Self, ShardError> {
        let mut out = AtomicFile::create(path)?;
        out.writer().write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(Self {
            out,
            n,
            next_row: 0,
            degs: Vec::with_capacity(n),
            shards: Vec::new(),
            nnz: 0,
            cur_rows: 0,
            cur_nnz: 0,
            cur_blob: Vec::new(),
        })
    }

    /// Appends the next row's columns (strictly increasing, in `0..n`, no
    /// diagonal entry — self-loops are injected at decode time). Rows must
    /// be pushed for every index `0..n` in order; empty rows are fine.
    pub fn push_row(&mut self, cols: &[u32]) -> Result<(), ShardError> {
        if self.next_row >= self.n {
            return Err(ShardError::Malformed("more rows pushed than n"));
        }
        let r = self.next_row as u32;
        if cols.iter().any(|&c| c as usize >= self.n) {
            return Err(ShardError::Malformed("column out of range"));
        }
        if cols.contains(&r) {
            return Err(ShardError::Malformed("diagonal entry in structure"));
        }
        varint::encode_row(&mut self.cur_blob, cols);
        self.degs.push(cols.len() as u32);
        self.nnz += cols.len() as u64;
        self.cur_nnz += cols.len();
        self.cur_rows += 1;
        self.next_row += 1;
        Ok(())
    }

    /// Ends the current shard, flushing its blob to disk. A cut with no rows
    /// pushed since the last one is a no-op, so callers can cut on plan
    /// boundaries without special-casing empty chunks.
    pub fn cut(&mut self) -> Result<(), ShardError> {
        if self.cur_rows == 0 {
            return Ok(());
        }
        let crc = crc32(&self.cur_blob);
        self.out.writer().write_all(&self.cur_blob)?;
        self.shards
            .push((self.cur_rows, self.cur_nnz, self.cur_blob.len(), crc));
        self.cur_rows = 0;
        self.cur_nnz = 0;
        self.cur_blob.clear();
        Ok(())
    }

    /// Seals the file: final cut, meta block, header patch, atomic commit.
    /// `symmetric` records whether the structure is its own transpose
    /// (adjoint propagation requires it).
    pub fn finish(mut self, symmetric: bool) -> Result<ShardSummary, ShardError> {
        if self.next_row != self.n {
            return Err(ShardError::Malformed("fewer rows pushed than n"));
        }
        self.cut()?;
        // Meta block: degree table then the shard index.
        let mut meta = Vec::with_capacity(self.degs.len() + self.shards.len() * 8);
        for &d in &self.degs {
            varint::write_u64(&mut meta, d as u64);
        }
        for &(rows, nnz, blob_len, crc) in &self.shards {
            varint::write_u64(&mut meta, rows as u64);
            varint::write_u64(&mut meta, nnz as u64);
            varint::write_u64(&mut meta, blob_len as u64);
            meta.extend_from_slice(&crc.to_le_bytes());
        }
        let meta_off = HEADER_LEN + self.shards.iter().map(|s| s.2 as u64).sum::<u64>();
        self.out.writer().write_all(&meta)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        let flags = if symmetric { FLAG_SYMMETRIC } else { 0 };
        header.extend_from_slice(&flags.to_le_bytes());
        header.extend_from_slice(&(self.n as u64).to_le_bytes());
        header.extend_from_slice(&self.nnz.to_le_bytes());
        header.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        let max_rows = self.shards.iter().map(|s| s.0).max().unwrap_or(0);
        let max_nnz = self.shards.iter().map(|s| s.1).max().unwrap_or(0);
        let max_blob = self.shards.iter().map(|s| s.2).max().unwrap_or(0);
        header.extend_from_slice(&(max_rows as u64).to_le_bytes());
        header.extend_from_slice(&(max_nnz as u64).to_le_bytes());
        header.extend_from_slice(&(max_blob as u64).to_le_bytes());
        header.extend_from_slice(&meta_off.to_le_bytes());
        header.extend_from_slice(&(meta.len() as u64).to_le_bytes());
        header.extend_from_slice(&crc32(&meta).to_le_bytes());
        debug_assert_eq!(header.len() as u64, HEADER_LEN);
        let file_bytes = meta_off + meta.len() as u64;
        self.out.writer().seek(SeekFrom::Start(0))?;
        self.out.writer().write_all(&header)?;
        self.out.commit()?;
        Ok(ShardSummary {
            n: self.n,
            nnz: self.nnz,
            shards: self.shards.len(),
            file_bytes,
        })
    }
}

/// Reads and validates the header + meta block of a shard file. Blobs are
/// *not* read — each is CRC-checked when the decode ring first loads it.
pub(crate) fn read_index(file: &mut File) -> Result<ShardIndex, ShardError> {
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN {
        return Err(ShardError::Truncated);
    }
    let mut header = [0u8; HEADER_LEN as usize];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut header)?;
    let mut h = Cursor::new(&header);
    if &h.array::<8>()? != MAGIC {
        return Err(ShardError::BadMagic);
    }
    let version = h.u32()?;
    if version != VERSION {
        return Err(ShardError::UnsupportedVersion(version));
    }
    let flags = h.u32()?;
    let n = h.u64()?;
    let nnz = h.u64()?;
    let shard_count = h.u64()?;
    let max_shard_rows = h.u64()?;
    let max_shard_nnz = h.u64()?;
    let max_blob_len = h.u64()?;
    let meta_off = h.u64()?;
    let meta_len = h.u64()?;
    let meta_crc = h.u32()?;
    if n > u32::MAX as u64 || shard_count > n.max(1) {
        return Err(ShardError::Malformed("implausible n or shard count"));
    }
    if meta_off < HEADER_LEN || meta_off.checked_add(meta_len) != Some(file_len) {
        return Err(ShardError::Truncated);
    }
    let mut meta = vec![0u8; meta_len as usize];
    file.seek(SeekFrom::Start(meta_off))?;
    file.read_exact(&mut meta)?;
    if crc32(&meta) != meta_crc {
        return Err(ShardError::MetaCrcMismatch);
    }
    // The header carries no CRC of its own, so `n` and `shard_count` are
    // only as good as the meta block that must hold them: a degree is at
    // least one varint byte, an index entry three and a 4-byte CRC.
    let mut m = Cursor::new(&meta);
    let varint = |m: &mut Cursor<&[u8]>| -> Result<u64, ShardError> {
        let mut pos = 0;
        let v = varint::read_u64(m.rest(), &mut pos)?;
        m.skip(pos)?;
        Ok(v)
    };
    m.fits(n, 1)?;
    let mut degs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let d = varint(&mut m)?;
        if d >= n {
            return Err(ShardError::Malformed("degree exceeds n"));
        }
        degs.push(d as u32);
    }
    m.fits(shard_count, 3 + 4)?;
    let mut shards = Vec::with_capacity(shard_count as usize);
    let mut first_row = 0usize;
    let mut offset = HEADER_LEN;
    let mut nnz_sum = 0u64;
    for _ in 0..shard_count {
        let rows = varint(&mut m)? as usize;
        let snnz = varint(&mut m)? as usize;
        let blob_len = varint(&mut m)? as usize;
        let crc = m.u32()?;
        if snnz > blob_len {
            // A stored column is at least one varint byte.
            return Err(ShardError::Malformed("shard has more entries than bytes"));
        }
        shards.push(ShardMeta {
            first_row,
            rows,
            nnz: snnz,
            offset,
            blob_len,
            crc,
        });
        first_row = first_row
            .checked_add(rows)
            .ok_or(ShardError::Malformed("row range overflow"))?;
        offset = offset
            .checked_add(blob_len as u64)
            .ok_or(ShardError::Malformed("blob range overflow"))?;
        nnz_sum += snnz as u64;
    }
    if !m.rest().is_empty() {
        return Err(ShardError::Malformed("trailing bytes in meta block"));
    }
    if first_row != n as usize || nnz_sum != nnz || offset != meta_off {
        return Err(ShardError::Malformed(
            "shard index inconsistent with header",
        ));
    }
    let deg_sum: u64 = degs.iter().map(|&d| d as u64).sum();
    if deg_sum != nnz {
        return Err(ShardError::Malformed("degree table inconsistent with nnz"));
    }
    // The decode ring is allocated from the maxima, and the header that
    // declares them has no CRC: they must be what the index says they are.
    let max = |field: fn(&ShardMeta) -> usize| shards.iter().map(field).max().unwrap_or(0) as u64;
    if (max_shard_rows, max_shard_nnz, max_blob_len)
        != (max(|s| s.rows), max(|s| s.nnz), max(|s| s.blob_len))
    {
        return Err(ShardError::Malformed("declared maxima are not the shards'"));
    }
    Ok(ShardIndex {
        n: n as usize,
        nnz,
        symmetric: flags & FLAG_SYMMETRIC != 0,
        max_shard_rows: max_shard_rows as usize,
        max_shard_nnz: max_shard_nnz as usize,
        max_blob_len: max_blob_len as usize,
        degs,
        shards,
    })
}
