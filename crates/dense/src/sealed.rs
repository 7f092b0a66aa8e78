//! Sealed bytes: the one path every persistent format and the wire frame
//! share for getting bytes out durably and reading them back defensively.
//! Four pieces, each the only one of its kind in the workspace:
//!
//! * **the envelope** — [`Format`]: `magic[8] | version u32 | len u64 |
//!   crc u32 | payload`, little-endian, the header of `SGNNCKPT` and
//!   `SGNNTERM`; in memory ([`Format::seal`]/[`Format::open`]) or streamed
//!   through a 64 KiB buffer ([`Format::save`]/[`Format::load`]). Decoding
//!   is strict: a short input is [`Error::Truncated`], a long one or an
//!   unconsumed payload byte [`Error::Malformed`].
//! * **the cursor** — [`Cursor`], over a slice or a verified file region. A
//!   CRC vouches for the bytes, not for whoever sealed them, so every count
//!   read from the bytes passes one gate ([`Cursor::fits`]) that compares it
//!   with the bytes actually left *before* anything is allocated for it.
//! * **the atomic file** — [`AtomicFile`]: `<dest>.tmp`, `sync_all`, rename,
//!   directory sync; a guard that removes its temporary unless committed. A
//!   failed sync is an error, never a commit.
//! * **the error** — [`Error`], the seven ways such bytes are refused.
//!
//! `SGNNSHRD` keeps its own header (per-shard CRCs, so opening a graph never
//! reads its edges) and the wire frame its `len | body | crc` layout; both
//! read through the cursor, and shard files commit through the atomic file.
//! DESIGN.md § "Sealed bytes" has the reasoning.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::le;

/// Bytes of the [`Format`] header.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8 + 4;

/// Streaming granule of the CRC pass, word runs and file reads (a multiple
/// of every word size, so runs stay aligned).
const CHUNK: usize = 64 * 1024;

/// One incremental step of the workspace's one CRC32 (IEEE 802.3, the
/// checksum gzip uses): start from `0xFFFF_FFFF`, XOR the final state with
/// `0xFFFF_FFFF`. The kernel is the active dense backend's.
pub(crate) fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    crate::backend::active().crc32_update(crc, bytes)
}

/// CRC32 of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Why sealed bytes were refused (or could not be written).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// The input ends before the header, the declared payload, or a field
    /// or counted run inside it does.
    Truncated,
    /// The magic bytes are not this format's.
    BadMagic,
    /// The format version is not the one this build reads.
    UnsupportedVersion(u32),
    /// The payload does not match its CRC32.
    CrcMismatch,
    /// The bytes are intact but do not parse: trailing bytes, a count whose
    /// byte length overflows, an unknown tag, non-UTF-8 text.
    Malformed(String),
    /// A matrix that must be finite holds a NaN or an infinity.
    NonFinite,
    /// Filesystem failure while reading or writing.
    Io(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Truncated => write!(f, "truncated"),
            Error::BadMagic => write!(f, "bad magic (not this format)"),
            Error::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            Error::CrcMismatch => write!(f, "CRC mismatch"),
            Error::Malformed(why) => write!(f, "malformed: {why}"),
            Error::NonFinite => write!(f, "contains non-finite values"),
            Error::Io(why) => write!(f, "I/O error: {why}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            Error::Truncated
        } else {
            Error::Io(e.to_string())
        }
    }
}

// ---------------------------------------------------------------------------
// The atomic file.

/// A file that appears at its destination complete and durable, or not at
/// all: write through [`writer`](Self::writer), then [`commit`](Self::commit).
#[derive(Debug)]
pub struct AtomicFile {
    out: BufWriter<File>,
    tmp: PathBuf,
    dest: PathBuf,
    committed: bool,
}

impl AtomicFile {
    /// Creates (truncating) `<dest>.tmp` beside the destination.
    pub fn create(dest: &Path) -> io::Result<Self> {
        let mut tmp = dest.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        Ok(Self {
            out: BufWriter::new(File::create(&tmp)?),
            tmp,
            dest: dest.to_path_buf(),
            committed: false,
        })
    }

    /// The buffered temporary (`Write + Seek`).
    pub fn writer(&mut self) -> &mut BufWriter<File> {
        &mut self.out
    }

    /// Makes the bytes durable, then the name: flush, `sync_all`, rename
    /// over the destination, sync the directory entry. Any failure is
    /// returned and the temporary removed.
    pub fn commit(mut self) -> io::Result<()> {
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        std::fs::rename(&self.tmp, &self.dest)?;
        self.committed = true;
        #[cfg(unix)]
        {
            let dir = self.dest.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        Ok(())
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding: the sink and the envelope.

/// Where a payload is written: little-endian fields in, bytes out, with the
/// CRC and the length kept as they pass.
pub struct Sink<'a> {
    out: &'a mut dyn Write,
    crc: u32,
    len: u64,
    /// Staging for bulk word runs, one [`CHUNK`] at most.
    words: Vec<u8>,
}

impl Sink<'_> {
    pub fn bytes(&mut self, b: &[u8]) -> Result<(), Error> {
        self.crc = crc32_update(self.crc, b);
        self.len += b.len() as u64;
        Ok(self.out.write_all(b)?)
    }
    pub fn u8(&mut self, v: u8) -> Result<(), Error> {
        self.bytes(&[v])
    }
    pub fn u64(&mut self, v: u64) -> Result<(), Error> {
        self.bytes(&v.to_le_bytes())
    }
    pub fn f32(&mut self, v: f32) -> Result<(), Error> {
        self.bytes(&v.to_le_bytes())
    }
    pub fn f64(&mut self, v: f64) -> Result<(), Error> {
        self.bytes(&v.to_le_bytes())
    }
    /// A `u64` byte length, then the bytes.
    pub fn str(&mut self, s: &str) -> Result<(), Error> {
        self.u64(s.len() as u64)?;
        self.bytes(s.as_bytes())
    }
    /// A bare run of words (the count is the caller's to write).
    pub fn u32s(&mut self, vals: &[u32]) -> Result<(), Error> {
        self.words(vals, le::put_u32s)
    }
    pub fn f32s(&mut self, vals: &[f32]) -> Result<(), Error> {
        self.words(vals, le::put_f32s)
    }
    fn words<T>(&mut self, vals: &[T], put: fn(&mut Vec<u8>, &[T])) -> Result<(), Error> {
        let mut staged = std::mem::take(&mut self.words);
        for block in vals.chunks(CHUNK / 4) {
            staged.clear();
            put(&mut staged, block);
            self.bytes(&staged)?;
        }
        self.words = staged;
        Ok(())
    }
}

/// One enveloped format: its magic and the version this build reads and writes.
pub struct Format {
    pub magic: [u8; 8],
    pub version: u32,
}

impl Format {
    /// Header with placeholders, payload through a [`Sink`], then length and
    /// CRC patched in — the one encoder under [`seal`](Self::seal) and
    /// [`save`](Self::save).
    fn write<W: Write + Seek>(
        &self,
        mut out: W,
        payload: impl FnOnce(&mut Sink) -> Result<(), Error>,
    ) -> Result<W, Error> {
        out.write_all(&self.magic)?;
        out.write_all(&self.version.to_le_bytes())?;
        out.write_all(&[0; 12])?;
        let mut sink = Sink {
            out: &mut out,
            crc: 0xFFFF_FFFF,
            len: 0,
            words: Vec::new(),
        };
        payload(&mut sink)?;
        let (len, crc) = (sink.len, sink.crc ^ 0xFFFF_FFFF);
        out.seek(SeekFrom::Start(12))?;
        out.write_all(&len.to_le_bytes())?;
        out.write_all(&crc.to_le_bytes())?;
        Ok(out)
    }

    /// Checks magic and version; returns the declared payload length and CRC.
    fn header(&self, h: &[u8; HEADER_LEN]) -> Result<(u64, u32), Error> {
        let mut c = Cursor::new(&h[..]);
        if c.array::<8>()? != self.magic {
            return Err(Error::BadMagic);
        }
        let version = c.u32()?;
        if version != self.version {
            return Err(Error::UnsupportedVersion(version));
        }
        Ok((c.u64()?, c.u32()?))
    }

    /// Envelope + payload as one in-memory buffer.
    pub fn seal(&self, payload: impl FnOnce(&mut Sink) -> Result<(), Error>) -> Vec<u8> {
        self.write(io::Cursor::new(Vec::new()), payload)
            .expect("writing to memory cannot fail")
            .into_inner()
    }

    /// Verifies the envelope around `bytes` and parses the payload, which
    /// `parse` must consume exactly.
    pub fn open<'a, T>(
        &self,
        bytes: &'a [u8],
        parse: impl FnOnce(&mut Cursor<&'a [u8]>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let Some((head, rest)) = bytes.split_first_chunk::<HEADER_LEN>() else {
            return Err(Error::Truncated);
        };
        let (len, crc) = self.header(head)?;
        check_len(rest.len() as u64, len)?;
        if crc32(rest) != crc {
            return Err(Error::CrcMismatch);
        }
        let mut c = Cursor::new(rest);
        let out = parse(&mut c)?;
        c.done()?;
        Ok(out)
    }

    /// [`seal`](Self::seal), streamed to `path` through an [`AtomicFile`].
    pub fn save(
        &self,
        path: &Path,
        payload: impl FnOnce(&mut Sink) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let mut file = AtomicFile::create(path)?;
        self.write(file.writer(), payload)?;
        Ok(file.commit()?)
    }

    /// [`open`](Self::open), streamed from `path`: peak transient memory is
    /// one `CHUNK`, not a payload-sized buffer.
    pub fn load<T>(
        &self,
        path: &Path,
        parse: impl FnOnce(&mut Cursor<FileRegion>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut head = [0u8; HEADER_LEN];
        file.read_exact(&mut head)?;
        let (len, want) = self.header(&head)?;
        check_len(file_len.saturating_sub(HEADER_LEN as u64), len)?;
        let mut region = FileRegion {
            reader: BufReader::with_capacity(CHUNK, file),
            chunk: vec![0; CHUNK],
        };
        let mut crc = 0xFFFF_FFFF;
        region.feed(len, |piece| crc = crc32_update(crc, piece))?;
        if crc ^ 0xFFFF_FFFF != want {
            return Err(Error::CrcMismatch);
        }
        region.reader.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        let mut c = Cursor {
            src: region,
            left: len,
        };
        let out = parse(&mut c)?;
        c.done()?;
        Ok(out)
    }
}

/// The declared payload length must be exactly what follows the header.
fn check_len(present: u64, declared: u64) -> Result<(), Error> {
    match present.checked_sub(declared) {
        None => Err(Error::Truncated),
        Some(0) => Ok(()),
        Some(extra) => Err(Error::Malformed(format!(
            "{extra} bytes after the declared payload"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Decoding: the cursor.

/// Where a [`Cursor`]'s bytes come from.
pub trait Source {
    /// Hands the next `n` bytes to `sink`, in order, in pieces that are
    /// whole words except possibly the last. The cursor has already checked
    /// that `n` bytes are left.
    fn feed(&mut self, n: u64, sink: impl FnMut(&[u8])) -> Result<(), Error>;
}

impl Source for &[u8] {
    #[inline]
    fn feed(&mut self, n: u64, mut sink: impl FnMut(&[u8])) -> Result<(), Error> {
        let (head, tail) = self.split_at(n as usize);
        *self = tail;
        sink(head);
        Ok(())
    }
}

/// The payload of a file whose envelope [`Format::load`] has verified, read
/// one `CHUNK` at a time.
pub struct FileRegion {
    reader: BufReader<File>,
    chunk: Vec<u8>,
}

impl Source for FileRegion {
    fn feed(&mut self, mut n: u64, mut sink: impl FnMut(&[u8])) -> Result<(), Error> {
        while n > 0 {
            let take = n.min(CHUNK as u64) as usize;
            self.reader.read_exact(&mut self.chunk[..take])?;
            sink(&self.chunk[..take]);
            n -= take as u64;
        }
        Ok(())
    }
}

/// A forward-only reader of little-endian fields that knows how many bytes
/// are left and refuses anything — a field, a run, a stored count — that
/// needs more.
pub struct Cursor<S> {
    src: S,
    left: u64,
}

impl<'a> Cursor<&'a [u8]> {
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            src: bytes,
            left: bytes.len() as u64,
        }
    }

    /// The unread bytes, for codecs whose fields have no fixed width
    /// (varints); pair with [`skip`](Self::skip).
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.src
    }
}

impl<S: Source> Cursor<S> {
    /// Claims the next `n` bytes and feeds them to `sink`.
    #[inline]
    fn take(&mut self, n: u64, sink: impl FnMut(&[u8])) -> Result<(), Error> {
        if n > self.left {
            return Err(Error::Truncated);
        }
        self.left -= n;
        self.src.feed(n, sink)
    }

    /// The next `N` bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let (mut out, mut at) = ([0u8; N], 0);
        self.take(N as u64, |piece| {
            out[at..at + piece.len()].copy_from_slice(piece);
            at += piece.len();
        })?;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.array::<1>()?[0])
    }
    pub fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    pub fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    pub fn f32(&mut self) -> Result<f32, Error> {
        Ok(f32::from_le_bytes(self.array()?))
    }
    pub fn f64(&mut self) -> Result<f64, Error> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Passes over `n` bytes.
    pub fn skip(&mut self, n: usize) -> Result<(), Error> {
        self.take(n as u64, |_| {})
    }

    /// The gate: may `count` items of at least `each` bytes still follow?
    /// Returns their byte length. Nothing may be allocated for a count read
    /// from the input until it has passed here.
    pub fn fits(&self, count: u64, each: usize) -> Result<u64, Error> {
        let bytes = count
            .checked_mul(each as u64)
            .ok_or_else(|| Error::Malformed(format!("{count} items of {each} bytes overflow")))?;
        if bytes > self.left {
            return Err(Error::Truncated);
        }
        Ok(bytes)
    }

    /// Reads a stored `u64` count of items whose smallest encoding is
    /// `min_bytes_each`, through the [gate](Self::fits).
    pub fn count(&mut self, min_bytes_each: usize) -> Result<usize, Error> {
        let count = self.u64()?;
        self.fits(count, min_bytes_each)?;
        usize::try_from(count).map_err(|_| Error::Malformed(format!("count {count}")))
    }

    /// `len` bytes of UTF-8.
    pub fn str(&mut self, len: usize) -> Result<String, Error> {
        let mut out = Vec::with_capacity(self.fits(len as u64, 1)? as usize);
        self.take(len as u64, |piece| out.extend_from_slice(piece))?;
        String::from_utf8(out).map_err(|_| Error::Malformed("text is not UTF-8".into()))
    }

    /// A run of `count` 4-byte words, each decoded piece passing `ok`.
    fn words<T>(
        &mut self,
        count: usize,
        get: fn(&mut Vec<T>, &[u8]),
        mut ok: impl FnMut(&[T]) -> bool,
    ) -> Result<Vec<T>, Error> {
        let bytes = self.fits(count as u64, 4)?;
        let (mut out, mut good) = (Vec::with_capacity(count), true);
        self.take(bytes, |piece| {
            let at = out.len();
            get(&mut out, piece);
            good &= ok(&out[at..]);
        })?;
        good.then_some(out).ok_or(Error::NonFinite)
    }

    /// A run of `count` words.
    pub fn u32s(&mut self, count: usize) -> Result<Vec<u32>, Error> {
        self.words(count, le::get_u32s, |_| true)
    }

    /// A run of `count` floats, bit-exact.
    pub fn f32s(&mut self, count: usize) -> Result<Vec<f32>, Error> {
        self.words(count, le::get_f32s, |_| true)
    }

    /// [`f32s`](Self::f32s) that must all be finite, checked piece by piece
    /// while each is still in cache.
    pub fn finite_f32s(&mut self, count: usize) -> Result<Vec<f32>, Error> {
        self.words(count, le::get_f32s, |vals| {
            vals.iter().all(|v| v.is_finite())
        })
    }

    /// Every byte must have been consumed.
    pub fn done(&self) -> Result<(), Error> {
        if self.left != 0 {
            return Err(Error::Malformed(format!("{} trailing bytes", self.left)));
        }
        Ok(())
    }
}

#[cfg(test)]
#[path = "../tests/support/codec_props.rs"]
mod codec_props;

#[cfg(test)]
mod tests {
    use super::codec_props::*;
    use super::*;

    const TEST: Format = Format {
        magic: *b"SGNNTEST",
        version: 3,
    };

    /// A toy schema with an odd-length prefix, so word runs start
    /// misaligned in the file buffer: `tag: str, vals: f32s`.
    type Toy = (String, Vec<f32>);

    fn put(w: &mut Sink, (tag, vals): &Toy) -> Result<(), Error> {
        w.str(tag)?;
        w.u64(vals.len() as u64)?;
        w.f32s(vals)
    }

    fn get<S: Source>(c: &mut Cursor<S>) -> Result<Toy, Error> {
        let len = c.count(1)?;
        let tag = c.str(len)?;
        let n = c.count(4)?;
        Ok((tag, c.finite_f32s(n)?))
    }

    fn seal(v: &Toy) -> Vec<u8> {
        TEST.seal(|w| put(w, v))
    }

    fn open(bytes: &[u8]) -> Result<Toy, Error> {
        TEST.open(bytes, get)
    }

    /// `bytes` as a file, through the streamed loader.
    fn load(bytes: &[u8]) -> Result<Toy, Error> {
        via_file(bytes, |path| TEST.load(path, get))
    }

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sgnn-sealed-{}-{name}", std::process::id()))
    }

    fn tmp_of(dest: &Path) -> PathBuf {
        PathBuf::from(format!("{}.tmp", dest.display()))
    }

    fn small() -> Toy {
        ("abc".into(), vec![0.5, -0.0, f32::MIN_POSITIVE, 1e30])
    }

    /// Pins the polynomial and reflection conventions with the canonical
    /// "123456789" check value of CRC-32/ISO-HDLC: every file and frame
    /// format in the workspace depends on them.
    #[test]
    fn crc32_matches_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn envelope_has_the_documented_layout() {
        let bytes = seal(&small());
        let payload = &bytes[HEADER_LEN..];
        assert_eq!(&bytes[..8], b"SGNNTEST");
        assert_eq!(bytes[8..12], 3u32.to_le_bytes());
        assert_eq!(bytes[12..20], (payload.len() as u64).to_le_bytes());
        assert_eq!(bytes[20..24], crc32(payload).to_le_bytes());
        assert_eq!(payload[..8], 3u64.to_le_bytes());
        assert_eq!(&payload[8..11], b"abc");
    }

    #[test]
    fn memory_and_file_paths_agree_and_refuse_the_same_damage() {
        let v = small();
        for decode in [open, load] {
            let bytes = round_trips(&v, seal, decode);
            for e in rejects_every_truncation(&bytes, decode) {
                assert_eq!(e, Error::Truncated);
            }
            let flips = rejects_every_bit_flip(&bytes, 0, decode);
            assert!(flips[..64].iter().all(|e| *e == Error::BadMagic));
            assert!(flips[64..96]
                .iter()
                .all(|e| matches!(e, Error::UnsupportedVersion(_))));
            // A length that lies is caught by the exact-length check, the
            // CRC field and every payload bit by the CRC.
            assert!(flips[96..160]
                .iter()
                .all(|e| matches!(e, Error::Truncated | Error::Malformed(_))));
            assert!(flips[160..].iter().all(|e| *e == Error::CrcMismatch));
            let e = rejects_trailing_bytes(&bytes, 1, decode);
            assert!(matches!(e, Error::Malformed(_)), "{e:?}");
        }
    }

    #[test]
    fn save_streams_the_sealed_bytes_across_chunk_boundaries() {
        // 3 + 16 header-ish bytes, then 40 000 floats: the run starts
        // misaligned and spans three 64 KiB chunks on both passes.
        let v: Toy = ("odd".into(), (0..40_000).map(|i| i as f32 * 0.25).collect());
        let path = scratch("stream");
        TEST.save(&path, |w| put(w, &v)).unwrap();
        assert!(!tmp_of(&path).exists(), "commit leaves no temporary");
        assert_eq!(std::fs::read(&path).unwrap(), seal(&v));
        assert_eq!(TEST.load(&path, get).unwrap(), v);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unread_payload_and_non_finite_runs_are_refused() {
        let bytes = seal(&small());
        let e = TEST.open(&bytes, |c| c.u64()).unwrap_err();
        assert!(matches!(e, Error::Malformed(_)), "{e:?}");
        let nan = ("x".to_string(), vec![1.0, f32::NAN]);
        assert_eq!(open(&seal(&nan)), Err(Error::NonFinite));
        assert_eq!(load(&seal(&nan)), Err(Error::NonFinite));
    }

    #[test]
    fn a_count_is_checked_against_the_bytes_left_before_it_is_used() {
        let c = Cursor::new(&[0u8; 16]);
        assert_eq!(c.fits(4, 4), Ok(16));
        assert_eq!(c.fits(5, 4), Err(Error::Truncated));
        assert_eq!(c.fits(u64::MAX / 4, 4), Err(Error::Truncated));
        assert!(matches!(c.fits(1 << 62, 4), Err(Error::Malformed(_))));
        // A stored count: 2⁴⁰ items of 8 bytes over 8 bytes of input.
        let mut lie = (1u64 << 40).to_le_bytes().to_vec();
        lie.extend_from_slice(&[0; 8]);
        assert_eq!(Cursor::new(&lie).count(8), Err(Error::Truncated));
        let mut c = Cursor::new(&lie);
        c.skip(8).unwrap();
        assert_eq!(c.u32s(3), Err(Error::Truncated));
        assert_eq!(c.f32s(2).map(|v| v.len()), Ok(2));
        c.done().unwrap();
    }

    #[test]
    fn a_write_that_fails_half_way_leaves_the_destination_untouched() {
        let path = scratch("halfway");
        std::fs::write(&path, b"old").unwrap();
        let e = TEST.save(&path, |w| {
            w.f32s(&[1.0; 50_000])?;
            Err(Error::Io("disk on fire".into()))
        });
        assert_eq!(e, Err(Error::Io("disk on fire".into())));
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert!(!tmp_of(&path).exists(), "the temporary is removed");

        // The guard itself: abandoned, then committed.
        let mut f = AtomicFile::create(&path).unwrap();
        f.writer().write_all(b"new").unwrap();
        assert!(tmp_of(&path).exists());
        drop(f);
        assert!(!tmp_of(&path).exists());
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        let mut f = AtomicFile::create(&path).unwrap();
        f.writer().write_all(b"new").unwrap();
        f.commit().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!tmp_of(&path).exists());
        // A destination that cannot be renamed over: error, no litter.
        let dir = scratch("is-a-dir");
        std::fs::create_dir_all(dir.join("occupied")).unwrap();
        assert!(AtomicFile::create(&dir).unwrap().commit().is_err());
        assert!(!tmp_of(&dir).exists());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
