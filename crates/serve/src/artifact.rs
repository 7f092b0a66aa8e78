//! `SGNNTERM` — the propagated-terms serving artifact.
//!
//! The decoupled scheme's precompute stage materializes `channels × terms`
//! dense matrices (`n × F` each) once; serving only ever gathers rows from
//! them. This module persists that tensor alongside the pairing metadata a
//! server needs to rebuild the exact model it was trained with.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    b"SGNNTERM"            8 bytes
//! version  u32                    4 bytes
//! len      u64 payload bytes      8 bytes
//! crc      u32 CRC32-IEEE of payload
//! payload  ServeMeta + terms
//! ```
//!
//! The payload can be hundreds of MB (`n·K·F` floats), so [`load`] streams:
//! one chunked pass computes the CRC without buffering the payload, a second
//! pass parses directly into the term matrices. Peak transient memory is one
//! 64 KiB chunk, not a payload-sized `Vec` — the portable stand-in for mmap.
//! [`save`] is atomic (`.tmp` + CRC patch + fsync + rename), mirroring the
//! PR-4 checkpoint writer, so a torn write leaves no `terms.bin` behind.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use sgnn_dense::{le, DMat};
use sgnn_train::checkpoint::crc32_update;

pub const MAGIC: [u8; 8] = *b"SGNNTERM";
pub const VERSION: u32 = 1;
pub const HEADER_LEN: usize = 8 + 4 + 8 + 4;

/// Dimension sanity bound: no artifact this workspace produces has a single
/// dimension or collection anywhere near this; a larger value is corruption
/// that slipped past the CRC (i.e. an encoder bug).
const MAX_LEN: u64 = 1 << 33;

/// Streaming chunk size for the CRC pass and bulk float reads.
const CHUNK: usize = 64 * 1024;

/// Why a terms artifact was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TermsError {
    /// The file ends before the declared header/payload does.
    Truncated,
    /// The magic bytes are not `SGNNTERM`.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The payload does not match its CRC32.
    CrcMismatch,
    /// The payload passed the CRC but does not parse, or the file has
    /// trailing bytes past the declared payload.
    Malformed(String),
    /// A term matrix contains a non-finite value.
    NonFinite,
    /// Filesystem failure while reading or writing.
    Io(String),
}

impl std::fmt::Display for TermsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TermsError::Truncated => write!(f, "terms artifact truncated"),
            TermsError::BadMagic => write!(f, "not a terms artifact (bad magic)"),
            TermsError::UnsupportedVersion(v) => write!(f, "unsupported terms version {v}"),
            TermsError::CrcMismatch => write!(f, "terms artifact CRC mismatch"),
            TermsError::Malformed(why) => write!(f, "malformed terms artifact: {why}"),
            TermsError::NonFinite => write!(f, "terms artifact contains non-finite values"),
            TermsError::Io(why) => write!(f, "terms artifact I/O error: {why}"),
        }
    }
}

impl std::error::Error for TermsError {}

impl From<std::io::Error> for TermsError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TermsError::Truncated
        } else {
            TermsError::Io(e.to_string())
        }
    }
}

/// Everything a server needs to rebuild the trained model the terms belong
/// to. `seed`/`config_tag` must match the companion `SGNNCKPT` snapshot —
/// the pairing guard against mixing artifacts from different runs.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeMeta {
    /// Registry name of the spectral filter (see `sgnn_core::make_filter`).
    pub filter: String,
    /// Filter order `K` the run was configured with.
    pub hops: usize,
    /// Hidden width of the `φ1` MLP.
    pub hidden: usize,
    /// Dropout rate the parameters were initialized under (eval-mode
    /// serving never applies it, but `DecoupledConfig` is part of the
    /// parameter shapes' provenance).
    pub dropout: f32,
    /// Raw attribute width `F` (term matrices are `nodes × F`).
    pub in_dim: usize,
    /// Output classes of the classification head.
    pub num_classes: usize,
    /// Number of graph nodes (rows of every term matrix).
    pub nodes: usize,
    /// Seed of the training run that produced the terms.
    pub seed: u64,
    /// `TrainConfig::structural_tag("MB")` of the producing run.
    pub config_tag: u64,
}

/// A decoded artifact: metadata plus the `channels × terms` tensor.
#[derive(Debug, PartialEq)]
pub struct TermsArtifact {
    pub meta: ServeMeta,
    pub terms: Vec<Vec<DMat>>,
}

// ---------------------------------------------------------------------------
// Encoding

struct Writer<W: Write> {
    out: W,
    crc: u32,
    written: u64,
}

impl<W: Write> Writer<W> {
    fn new(out: W) -> Self {
        Self {
            out,
            crc: 0xFFFF_FFFF,
            written: 0,
        }
    }

    fn bytes(&mut self, b: &[u8]) -> Result<(), TermsError> {
        // Running CRC over the payload as it streams out, so the header
        // patch at the end never re-reads what was written.
        self.crc = crc32_update(self.crc, b);
        self.written += b.len() as u64;
        self.out.write_all(b)?;
        Ok(())
    }

    fn u64(&mut self, v: u64) -> Result<(), TermsError> {
        self.bytes(&v.to_le_bytes())
    }

    fn f32(&mut self, v: f32) -> Result<(), TermsError> {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    fn str(&mut self, s: &str) -> Result<(), TermsError> {
        self.u64(s.len() as u64)?;
        self.bytes(s.as_bytes())
    }

    fn finish(self) -> (u32, u64) {
        (self.crc ^ 0xFFFF_FFFF, self.written)
    }
}

fn write_payload<W: Write>(
    w: &mut Writer<W>,
    meta: &ServeMeta,
    terms: &[Vec<DMat>],
) -> Result<(), TermsError> {
    w.str(&meta.filter)?;
    w.u64(meta.hops as u64)?;
    w.u64(meta.hidden as u64)?;
    w.f32(meta.dropout)?;
    w.u64(meta.in_dim as u64)?;
    w.u64(meta.num_classes as u64)?;
    w.u64(meta.nodes as u64)?;
    w.u64(meta.seed)?;
    w.u64(meta.config_tag)?;
    w.u64(terms.len() as u64)?;
    for channel in terms {
        w.u64(channel.len() as u64)?;
        for t in channel {
            w.u64(t.rows() as u64)?;
            w.u64(t.cols() as u64)?;
            // Bulk little-endian float dump, chunked to keep the CRC loop in
            // cache-sized pieces.
            let mut buf = Vec::with_capacity(CHUNK);
            for block in t.data().chunks(CHUNK / 4) {
                buf.clear();
                le::put_f32s(&mut buf, block);
                w.bytes(&buf)?;
            }
        }
    }
    Ok(())
}

/// Atomically writes `meta` + `terms` to `path`: payload streams to
/// `path.tmp` behind a placeholder header, the header is patched with the
/// final length and CRC, the file is fsynced, then renamed over `path`.
pub fn save(path: &Path, meta: &ServeMeta, terms: &[Vec<DMat>]) -> Result<(), TermsError> {
    let tmp = path.with_extension("tmp");
    {
        let file = File::create(&tmp)?;
        let mut out = BufWriter::new(file);
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&0u64.to_le_bytes())?; // length, patched below
        out.write_all(&0u32.to_le_bytes())?; // crc, patched below
        let mut w = Writer::new(&mut out);
        write_payload(&mut w, meta, terms)?;
        let (crc, len) = w.finish();
        out.flush()?;
        let mut file = out
            .into_inner()
            .map_err(|e| TermsError::Io(e.to_string()))?;
        file.seek(SeekFrom::Start(12))?;
        file.write_all(&len.to_le_bytes())?;
        file.write_all(&crc.to_le_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding

struct Reader<R: Read> {
    inner: R,
    /// Payload bytes not yet consumed; any read past this is `Truncated`
    /// (the declared length is authoritative — the CRC already passed).
    remaining: u64,
}

impl<R: Read> Reader<R> {
    fn take(&mut self, buf: &mut [u8]) -> Result<(), TermsError> {
        if (buf.len() as u64) > self.remaining {
            return Err(TermsError::Truncated);
        }
        self.inner.read_exact(buf)?;
        self.remaining -= buf.len() as u64;
        Ok(())
    }

    fn u32(&mut self) -> Result<u32, TermsError> {
        let mut b = [0u8; 4];
        self.take(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, TermsError> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// A `u64` length/dimension with the [`MAX_LEN`] sanity bound.
    fn len(&mut self, what: &str) -> Result<usize, TermsError> {
        let v = self.u64()?;
        if v > MAX_LEN {
            return Err(TermsError::Malformed(format!("{what} {v} out of range")));
        }
        Ok(v as usize)
    }

    fn f32(&mut self) -> Result<f32, TermsError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn str(&mut self, what: &str) -> Result<String, TermsError> {
        let n = self.len(what)?;
        if n > 4096 {
            return Err(TermsError::Malformed(format!("{what} length {n}")));
        }
        let mut b = vec![0u8; n];
        self.take(&mut b)?;
        String::from_utf8(b).map_err(|_| TermsError::Malformed(format!("{what} not UTF-8")))
    }
}

fn read_header<R: Read>(r: &mut R) -> Result<(u64, u32), TermsError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(TermsError::BadMagic);
    }
    let mut b4 = [0u8; 4];
    r.read_exact(&mut b4)?;
    let version = u32::from_le_bytes(b4);
    if version != VERSION {
        return Err(TermsError::UnsupportedVersion(version));
    }
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let len = u64::from_le_bytes(b8);
    if len > MAX_LEN {
        return Err(TermsError::Malformed(format!("payload length {len}")));
    }
    r.read_exact(&mut b4)?;
    Ok((len, u32::from_le_bytes(b4)))
}

/// Streamed load: pass 1 CRCs the payload in 64 KiB chunks, pass 2 parses
/// it straight into the term matrices. The file must contain exactly
/// `HEADER_LEN + len` bytes — trailing garbage is rejected.
pub fn load(path: &Path) -> Result<TermsArtifact, TermsError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::with_capacity(CHUNK, file);
    let (len, want_crc) = read_header(&mut reader)?;
    if file_len < HEADER_LEN as u64 + len {
        return Err(TermsError::Truncated);
    }
    if file_len > HEADER_LEN as u64 + len {
        return Err(TermsError::Malformed(format!(
            "{} trailing bytes past declared payload",
            file_len - HEADER_LEN as u64 - len
        )));
    }

    // Pass 1: streaming CRC, constant memory.
    let mut crc = 0xFFFF_FFFFu32;
    {
        let mut left = len;
        let mut chunk = [0u8; CHUNK];
        while left > 0 {
            let take = (left as usize).min(CHUNK);
            reader.read_exact(&mut chunk[..take])?;
            crc = crc32_update(crc, &chunk[..take]);
            left -= take as u64;
        }
    }
    if crc ^ 0xFFFF_FFFF != want_crc {
        return Err(TermsError::CrcMismatch);
    }

    // Pass 2: rewind past the header and parse.
    let mut file = reader.into_inner();
    file.seek(SeekFrom::Start(HEADER_LEN as u64))?;
    let mut r = Reader {
        inner: BufReader::with_capacity(CHUNK, file),
        remaining: len,
    };

    let meta = ServeMeta {
        filter: r.str("filter name")?,
        hops: r.len("hops")?,
        hidden: r.len("hidden")?,
        dropout: r.f32()?,
        in_dim: r.len("in_dim")?,
        num_classes: r.len("num_classes")?,
        nodes: r.len("nodes")?,
        seed: r.u64()?,
        config_tag: r.u64()?,
    };
    let channels = r.len("channel count")?;
    if channels > 4096 {
        return Err(TermsError::Malformed(format!("{channels} channels")));
    }
    let mut terms = Vec::with_capacity(channels);
    for _ in 0..channels {
        let nterms = r.len("term count")?;
        if nterms > 65_536 {
            return Err(TermsError::Malformed(format!("{nterms} terms")));
        }
        let mut channel = Vec::with_capacity(nterms);
        for _ in 0..nterms {
            let rows = r.len("term rows")?;
            let cols = r.len("term cols")?;
            let total = rows
                .checked_mul(cols)
                .filter(|&t| (t as u64) * 4 <= MAX_LEN)
                .ok_or_else(|| TermsError::Malformed(format!("term shape {rows}x{cols}")))?;
            let mut data = Vec::with_capacity(total);
            let mut byte_buf = [0u8; CHUNK];
            let mut left = total * 4;
            while left > 0 {
                let take = left.min(CHUNK);
                r.take(&mut byte_buf[..take])?;
                let decoded = data.len();
                le::get_f32s(&mut data, &byte_buf[..take]);
                if data[decoded..].iter().any(|v| !v.is_finite()) {
                    return Err(TermsError::NonFinite);
                }
                left -= take;
            }
            channel.push(DMat::from_vec(rows, cols, data));
        }
        terms.push(channel);
    }
    if r.remaining != 0 {
        return Err(TermsError::Malformed(format!(
            "{} unparsed payload bytes",
            r.remaining
        )));
    }
    Ok(TermsArtifact { meta, terms })
}

/// In-memory encode (payload + header), for the proptest suite; [`save`]
/// streams the same bytes to disk.
pub fn encode(meta: &ServeMeta, terms: &[Vec<DMat>]) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut w = Writer::new(&mut payload);
    write_payload(&mut w, meta, terms).expect("Vec write cannot fail");
    let (crc, len) = w.finish();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (ServeMeta, Vec<Vec<DMat>>) {
        let meta = ServeMeta {
            filter: "Monomial".into(),
            hops: 3,
            hidden: 16,
            dropout: 0.5,
            in_dim: 4,
            num_classes: 3,
            nodes: 5,
            seed: 42,
            config_tag: 0xDEAD_BEEF,
        };
        let t = |r: usize, c: usize, s: f32| {
            DMat::from_vec(r, c, (0..r * c).map(|i| i as f32 * s).collect())
        };
        (
            meta,
            vec![vec![t(5, 4, 0.5), t(5, 4, -1.25)], vec![t(5, 4, 2.0)]],
        )
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("sgnn-term-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("terms.bin");
        let (meta, terms) = sample();
        save(&path, &meta, &terms).unwrap();
        let got = load(&path).unwrap();
        assert_eq!(got.meta, meta);
        assert_eq!(got.terms, terms);
        // save is atomic: no .tmp left behind.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_matches_save() {
        let dir = std::env::temp_dir().join(format!("sgnn-term-enc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("terms.bin");
        let (meta, terms) = sample();
        save(&path, &meta, &terms).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), encode(&meta, &terms));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_magic_version_and_nan() {
        let dir = std::env::temp_dir().join(format!("sgnn-term-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("terms.bin");
        let (meta, mut terms) = sample();

        let mut bytes = encode(&meta, &terms);
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load(&path).unwrap_err(), TermsError::BadMagic);

        let mut bytes = encode(&meta, &terms);
        bytes[8] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load(&path).unwrap_err(), TermsError::UnsupportedVersion(99));

        terms[0][0].data_mut()[3] = f32::NAN;
        std::fs::write(&path, encode(&meta, &terms)).unwrap();
        assert_eq!(load(&path).unwrap_err(), TermsError::NonFinite);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_trailing_bytes() {
        let dir = std::env::temp_dir().join(format!("sgnn-term-trail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("terms.bin");
        let (meta, terms) = sample();
        let mut bytes = encode(&meta, &terms);
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path).unwrap_err(), TermsError::Malformed(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
