//! Versioned, CRC-guarded training snapshots.
//!
//! A snapshot captures everything the trainers need to resume a run
//! mid-training **bit-for-bit**: model parameters, Adam moment buffers, the
//! RNG state, the epoch counter, the best-validation state, and — for the
//! mini-batch scheme — the cumulatively shuffled training order. The binary
//! layout is
//!
//! ```text
//! magic  b"SGNNCKPT"          8 bytes
//! version u32 LE              4 bytes  (currently 1)
//! payload length u64 LE       8 bytes
//! CRC32 (IEEE) of payload     4 bytes
//! payload                     ...
//! ```
//!
//! and decoding is *strict*: the declared payload length must match the file
//! exactly and the payload reader must consume every byte, so **any**
//! single-byte truncation or bit flip is rejected with a typed [`CkptError`]
//! rather than resumed from. Writes are atomic (tmp file + rename) and the
//! last two good snapshots are kept (`ckpt-latest.bin`, `ckpt-prev.bin`):
//! a torn or corrupted latest file falls back to the previous snapshot.
//! Final snapshots written on divergence/timeout go to a separate
//! `ckpt-final.bin` slot so a poisoned parameter state never evicts a good
//! periodic snapshot from the rotation.

use std::path::{Path, PathBuf};

use sgnn_autograd::AdamState;
use sgnn_dense::{le, DMat};
/// The workspace's one CRC32, re-exported so the serving codecs (which seal
/// frames and artifacts with the checkpoint's checksum) need no new edge.
pub use sgnn_sparse::shard::{crc32, crc32_update};

use crate::config::TrainConfig;

/// Good snapshots written (periodic and final).
pub(crate) static CKPT_WRITTEN: sgnn_obs::Counter = sgnn_obs::Counter::new("ckpt.written");
/// Snapshots successfully loaded for a resume.
pub(crate) static CKPT_LOADED: sgnn_obs::Counter = sgnn_obs::Counter::new("ckpt.loaded");
/// Snapshot files rejected (bad CRC, truncation, non-finite parameters).
pub(crate) static CKPT_CORRUPT: sgnn_obs::Counter = sgnn_obs::Counter::new("ckpt.corrupt");

/// File names inside a checkpoint directory.
pub const LATEST_FILE: &str = "ckpt-latest.bin";
pub const PREV_FILE: &str = "ckpt-prev.bin";
pub const FINAL_FILE: &str = "ckpt-final.bin";

const MAGIC: [u8; 8] = *b"SGNNCKPT";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 8 + 4 + 8 + 4;

/// Why a snapshot file was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// The file ends before the declared header/payload does.
    Truncated,
    /// The magic bytes are not `SGNNCKPT`.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The payload does not match its CRC32.
    CrcMismatch,
    /// The payload passed the CRC but does not parse (encoder bug or
    /// trailing garbage).
    Malformed(String),
    /// A parameter or optimizer moment contains a non-finite value.
    NonFinite,
    /// Filesystem failure while reading or writing.
    Io(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "snapshot truncated"),
            CkptError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            CkptError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            CkptError::CrcMismatch => write!(f, "snapshot CRC mismatch"),
            CkptError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
            CkptError::NonFinite => write!(f, "snapshot contains non-finite values"),
            CkptError::Io(why) => write!(f, "snapshot I/O error: {why}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Where in a run's lifecycle a snapshot was taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotStatus {
    /// Written every `ckpt_every` epochs while training is healthy.
    Periodic,
    /// Final snapshot after the wall-clock budget expired (parameters good).
    FinalTimeout,
    /// Final snapshot after a non-finite loss (parameters suspect — never
    /// resumed from, kept for post-mortems only).
    FinalDiverged,
}

impl SnapshotStatus {
    fn to_byte(self) -> u8 {
        match self {
            SnapshotStatus::Periodic => 0,
            SnapshotStatus::FinalTimeout => 1,
            SnapshotStatus::FinalDiverged => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, CkptError> {
        match b {
            0 => Ok(SnapshotStatus::Periodic),
            1 => Ok(SnapshotStatus::FinalTimeout),
            2 => Ok(SnapshotStatus::FinalDiverged),
            other => Err(CkptError::Malformed(format!("status byte {other}"))),
        }
    }
}

/// Complete resumable training state at an epoch boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Seed of the run that wrote this snapshot — a resume with a different
    /// seed must ignore it.
    pub seed: u64,
    /// [`TrainConfig::structural_tag`] of the writing run. Covers only the
    /// fields that change the *trajectory shape* (hops, widths, schedule),
    /// not recovery knobs (learning rate, clipping), so a warm restart with
    /// a halved learning rate still matches its own snapshots.
    pub config_tag: u64,
    pub status: SnapshotStatus,
    /// First epoch (0-based) that has **not** run yet.
    pub epoch_next: usize,
    /// xoshiro256++ state of the training RNG at the boundary.
    pub rng_state: [u64; 4],
    pub best_valid: f64,
    pub best_test: f64,
    pub bad_epochs: usize,
    pub prop_hops: usize,
    pub device_peak: usize,
    /// Mini-batch only: the cumulatively shuffled training order (empty for
    /// full-batch, which never reorders its split).
    pub train_idx: Vec<u32>,
    pub params: Vec<(String, DMat)>,
    pub adam: AdamState,
}

impl Snapshot {
    /// Restores model parameters and optimizer moments into a live store and
    /// Adam instance. Every name and shape is verified up front, so an
    /// incompatible snapshot returns `Err` without touching either — the
    /// caller then simply trains from scratch.
    pub fn apply_model(
        &self,
        store: &mut sgnn_autograd::ParamStore,
        opt: &mut sgnn_autograd::Adam,
    ) -> Result<(), String> {
        if self.adam.m.len() != self.params.len() || self.adam.v.len() != self.params.len() {
            return Err(format!(
                "snapshot has {} adam moments for {} parameters",
                self.adam.m.len(),
                self.params.len()
            ));
        }
        for ((name, p), (m, v)) in self.params.iter().zip(self.adam.m.iter().zip(&self.adam.v)) {
            if p.shape() != m.shape() || p.shape() != v.shape() {
                return Err(format!("adam moment shape mismatch for {name:?}"));
            }
        }
        store.load_values(&self.params)?;
        opt.load_state(self.adam.clone())?;
        Ok(())
    }

    /// True when every parameter and optimizer moment is finite — a
    /// snapshot that fails this is never resumed from.
    pub fn is_finite(&self) -> bool {
        let mats = self
            .params
            .iter()
            .map(|(_, m)| m)
            .chain(self.adam.m.iter())
            .chain(self.adam.v.iter());
        for m in mats {
            if m.data().iter().any(|v| !v.is_finite()) {
                return false;
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Binary encoding.

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
    fn mat(&mut self, m: &DMat) {
        let (r, c) = m.shape();
        self.u64(r as u64);
        self.u64(c as u64);
        le::put_f32s(&mut self.buf, m.data());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.pos + n > self.buf.len() {
            return Err(CkptError::Malformed("payload ends early".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Length prefix for a following sequence, sanity-bounded so a decoded
    /// length can never ask for more bytes than the payload holds.
    fn len(&mut self) -> Result<usize, CkptError> {
        let n = self.u64()? as usize;
        if n > self.buf.len() {
            return Err(CkptError::Malformed(format!("length {n} exceeds payload")));
        }
        Ok(n)
    }
    fn mat(&mut self) -> Result<DMat, CkptError> {
        let r = self.len()?;
        let c = self.len()?;
        let n = r
            .checked_mul(c)
            .filter(|&n| n.checked_mul(4).is_some_and(|b| b <= self.buf.len()))
            .ok_or_else(|| CkptError::Malformed("matrix too large".into()))?;
        let mut data = Vec::new();
        le::get_f32s(&mut data, self.take(n * 4)?);
        Ok(DMat::from_vec(r, c, data))
    }
    fn finish(self) -> Result<(), CkptError> {
        if self.pos != self.buf.len() {
            return Err(CkptError::Malformed(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Serializes a snapshot to the on-disk byte layout (header + payload).
pub fn encode(s: &Snapshot) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.u64(s.seed);
    w.u64(s.config_tag);
    w.u8(s.status.to_byte());
    w.u64(s.epoch_next as u64);
    for &word in &s.rng_state {
        w.u64(word);
    }
    w.f64(s.best_valid);
    w.f64(s.best_test);
    w.u64(s.bad_epochs as u64);
    w.u64(s.prop_hops as u64);
    w.u64(s.device_peak as u64);
    w.u64(s.train_idx.len() as u64);
    le::put_u32s(&mut w.buf, &s.train_idx);
    w.u64(s.params.len() as u64);
    for (name, value) in &s.params {
        w.bytes(name.as_bytes());
        w.mat(value);
    }
    w.u64(s.adam.t);
    w.u64(s.adam.m.len() as u64);
    for m in &s.adam.m {
        w.mat(m);
    }
    for v in &s.adam.v {
        w.mat(v);
    }
    let payload = w.buf;

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Strictly parses snapshot bytes; any truncation or bit flip is rejected.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
    if bytes.len() < HEADER_LEN {
        return Err(CkptError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(CkptError::UnsupportedVersion(version));
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    let rest = &bytes[HEADER_LEN..];
    if rest.len() < payload_len {
        return Err(CkptError::Truncated);
    }
    if rest.len() > payload_len {
        return Err(CkptError::Malformed(format!(
            "{} bytes after payload",
            rest.len() - payload_len
        )));
    }
    if crc32(rest) != crc {
        return Err(CkptError::CrcMismatch);
    }

    let mut r = Reader { buf: rest, pos: 0 };
    let seed = r.u64()?;
    let config_tag = r.u64()?;
    let status = SnapshotStatus::from_byte(r.u8()?)?;
    let epoch_next = r.u64()? as usize;
    let mut rng_state = [0u64; 4];
    for word in &mut rng_state {
        *word = r.u64()?;
    }
    let best_valid = r.f64()?;
    let best_test = r.f64()?;
    let bad_epochs = r.u64()? as usize;
    let prop_hops = r.u64()? as usize;
    let device_peak = r.u64()? as usize;
    let n_idx = r.len()?;
    let idx_bytes = n_idx
        .checked_mul(4)
        .ok_or_else(|| CkptError::Malformed(format!("{n_idx} training indices")))?;
    let mut train_idx = Vec::new();
    le::get_u32s(&mut train_idx, r.take(idx_bytes)?);
    let n_params = r.len()?;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let name_len = r.len()?;
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| CkptError::Malformed("parameter name not UTF-8".into()))?;
        params.push((name, r.mat()?));
    }
    let t = r.u64()?;
    let n_moments = r.len()?;
    let mut m = Vec::with_capacity(n_moments);
    for _ in 0..n_moments {
        m.push(r.mat()?);
    }
    let mut v = Vec::with_capacity(n_moments);
    for _ in 0..n_moments {
        v.push(r.mat()?);
    }
    r.finish()?;

    Ok(Snapshot {
        seed,
        config_tag,
        status,
        epoch_next,
        rng_state,
        best_valid,
        best_test,
        bad_epochs,
        prop_hops,
        device_peak,
        train_idx,
        params,
        adam: AdamState { t, m, v },
    })
}

// ---------------------------------------------------------------------------
// On-disk rotation.

/// Atomic snapshot writer/loader over one directory, keeping the last two
/// good snapshots plus an out-of-rotation final slot.
pub struct Checkpointer {
    dir: PathBuf,
}

impl Checkpointer {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| CkptError::Io(e.to_string()))?;
        Ok(Self { dir })
    }

    /// The directory this checkpointer writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a periodic snapshot atomically and rotates: the previous
    /// latest becomes `ckpt-prev.bin`, so a corrupted latest always has a
    /// good predecessor to fall back to.
    pub fn write(&self, snap: &Snapshot) -> Result<(), CkptError> {
        let latest = self.dir.join(LATEST_FILE);
        let prev = self.dir.join(PREV_FILE);
        self.write_to(snap, &latest, |tmp| {
            if latest.exists() {
                std::fs::rename(&latest, &prev).map_err(|e| CkptError::Io(e.to_string()))?;
            }
            std::fs::rename(tmp, &latest).map_err(|e| CkptError::Io(e.to_string()))
        })
    }

    /// Writes a final (divergence/timeout) snapshot to its own slot,
    /// leaving the periodic rotation untouched.
    pub fn write_final(&self, snap: &Snapshot) -> Result<(), CkptError> {
        let dest = self.dir.join(FINAL_FILE);
        self.write_to(snap, &dest, |tmp| {
            std::fs::rename(tmp, &dest).map_err(|e| CkptError::Io(e.to_string()))
        })
    }

    fn write_to(
        &self,
        snap: &Snapshot,
        dest: &Path,
        commit: impl FnOnce(&Path) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        let tmp = dest.with_extension("tmp");
        let bytes = encode(snap);
        std::fs::write(&tmp, &bytes).map_err(|e| CkptError::Io(e.to_string()))?;
        // Make the rename durable: the tmp file's contents must hit disk
        // before the name does, or a crash could commit a torn file.
        if let Ok(f) = std::fs::File::open(&tmp) {
            let _ = f.sync_all();
        }
        commit(&tmp)?;
        CKPT_WRITTEN.incr();
        Ok(())
    }

    /// Loads the newest usable periodic snapshot for (`seed`, `config_tag`):
    /// tries `ckpt-latest.bin` then `ckpt-prev.bin`, counting corrupt or
    /// non-finite files in `ckpt.corrupt` and skipping stale snapshots
    /// (wrong seed/tag) silently.
    pub fn load_good(&self, seed: u64, config_tag: u64) -> Option<Snapshot> {
        for name in [LATEST_FILE, PREV_FILE] {
            let path = self.dir.join(name);
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(_) => continue,
            };
            let snap = match decode(&bytes) {
                Ok(s) => s,
                Err(_) => {
                    CKPT_CORRUPT.incr();
                    continue;
                }
            };
            if !snap.is_finite() {
                CKPT_CORRUPT.incr();
                continue;
            }
            if snap.status != SnapshotStatus::Periodic
                || snap.seed != seed
                || snap.config_tag != config_tag
            {
                continue;
            }
            CKPT_LOADED.incr();
            return Some(snap);
        }
        None
    }

    /// Removes every snapshot (called after a run completes successfully —
    /// there is nothing left to resume).
    pub fn clear(&self) {
        for name in [LATEST_FILE, PREV_FILE, FINAL_FILE] {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
    }
}

/// True when `dir` holds a periodic snapshot a run with `seed` could resume
/// from. Counter-free: the cell runner uses this to pick the warm-restart
/// rung without double-counting loads (the trainer's [`Checkpointer::load_good`]
/// does the counted load).
pub fn peek_resumable(dir: &Path, seed: u64) -> bool {
    for name in [LATEST_FILE, PREV_FILE] {
        if let Ok(bytes) = std::fs::read(dir.join(name)) {
            if let Ok(snap) = decode(&bytes) {
                if snap.status == SnapshotStatus::Periodic && snap.seed == seed && snap.is_finite()
                {
                    return true;
                }
            }
        }
    }
    false
}

impl TrainConfig {
    /// FNV-1a hash of the fields that shape the optimization trajectory
    /// (architecture + schedule + scheme), deliberately **excluding** the
    /// recovery knobs a warm restart changes (learning rates, weight decay,
    /// clipping) and the seed (checked separately in the snapshot header).
    pub fn structural_tag(&self, scheme: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(scheme.as_bytes());
        eat(&(self.hops as u64).to_le_bytes());
        eat(&(self.hidden as u64).to_le_bytes());
        eat(&(self.epochs as u64).to_le_bytes());
        eat(&(self.patience as u64).to_le_bytes());
        eat(&self.dropout.to_bits().to_le_bytes());
        eat(&self.rho.to_bits().to_le_bytes());
        eat(&(self.batch_size as u64).to_le_bytes());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_snapshot() -> Snapshot {
        Snapshot {
            seed: 42,
            config_tag: 0xDEAD_BEEF,
            status: SnapshotStatus::Periodic,
            epoch_next: 7,
            rng_state: [1, 2, 3, 4],
            best_valid: f64::NEG_INFINITY,
            best_test: 0.25,
            bad_epochs: 5,
            prop_hops: 140,
            device_peak: 4096,
            train_idx: vec![3, 1, 2],
            params: vec![
                ("w".into(), DMat::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.0])),
                ("theta".into(), DMat::from_vec(1, 3, vec![1.0, 0.5, 0.25])),
            ],
            adam: AdamState {
                t: 7,
                m: vec![DMat::zeros(2, 2), DMat::filled(1, 3, 0.1)],
                v: vec![DMat::filled(2, 2, 0.01), DMat::zeros(1, 3)],
            },
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = sample_snapshot();
        let bytes = encode(&snap);
        assert_eq!(decode(&bytes).unwrap(), snap);
    }

    #[test]
    fn every_header_field_is_guarded() {
        let bytes = encode(&sample_snapshot());
        let mut bad = bytes.clone();
        bad[0] ^= 0x01;
        assert_eq!(decode(&bad), Err(CkptError::BadMagic));
        let mut bad = bytes.clone();
        bad[8] ^= 0x01;
        assert!(matches!(
            decode(&bad),
            Err(CkptError::UnsupportedVersion(_))
        ));
        let mut bad = bytes.clone();
        bad[20] ^= 0x01; // CRC field itself
        assert_eq!(decode(&bad), Err(CkptError::CrcMismatch));
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 9] ^= 0x80; // payload byte
        assert_eq!(decode(&bad), Err(CkptError::CrcMismatch));
        let mut bad = bytes;
        bad.push(0); // trailing garbage
        assert!(matches!(decode(&bad), Err(CkptError::Malformed(_))));
    }

    #[test]
    fn rotation_keeps_previous_snapshot() {
        let dir = std::env::temp_dir().join(format!("sgnn_ckpt_rot_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = Checkpointer::create(&dir).unwrap();
        let mut snap = sample_snapshot();
        ck.write(&snap).unwrap();
        snap.epoch_next = 9;
        ck.write(&snap).unwrap();

        let latest = decode(&std::fs::read(dir.join(LATEST_FILE)).unwrap()).unwrap();
        let prev = decode(&std::fs::read(dir.join(PREV_FILE)).unwrap()).unwrap();
        assert_eq!(latest.epoch_next, 9);
        assert_eq!(prev.epoch_next, 7);

        // Corrupt the latest: load_good falls back to the previous snapshot.
        let mut bytes = std::fs::read(dir.join(LATEST_FILE)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(dir.join(LATEST_FILE), &bytes).unwrap();
        let got = ck.load_good(42, 0xDEAD_BEEF).expect("prev snapshot");
        assert_eq!(got.epoch_next, 7);

        ck.clear();
        assert!(ck.load_good(42, 0xDEAD_BEEF).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_and_nonfinite_snapshots_are_not_resumed() {
        let dir = std::env::temp_dir().join(format!("sgnn_ckpt_stale_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = Checkpointer::create(&dir).unwrap();
        let snap = sample_snapshot();
        ck.write(&snap).unwrap();
        // Wrong seed / wrong tag: stale, not corrupt.
        assert!(ck.load_good(43, 0xDEAD_BEEF).is_none());
        assert!(ck.load_good(42, 1).is_none());
        assert!(peek_resumable(&dir, 42));
        assert!(!peek_resumable(&dir, 43));

        // A NaN parameter disqualifies a snapshot even with a valid CRC:
        // with the good snapshot still in the prev slot the run remains
        // resumable, and the load falls back to it.
        let mut bad = snap.clone();
        bad.params[0].1 = DMat::filled(2, 2, f32::NAN);
        ck.write(&bad).unwrap();
        assert!(peek_resumable(&dir, 42), "prev slot still holds a good one");
        let got = ck.load_good(42, 0xDEAD_BEEF).expect("falls back to prev");
        assert_eq!(got, snap);
        // Once both slots are poisoned, nothing is resumable.
        ck.write(&bad).unwrap();
        assert!(!peek_resumable(&dir, 42), "both slots poisoned");
        assert!(ck.load_good(42, 0xDEAD_BEEF).is_none());

        // Final snapshots never enter the resume rotation.
        let mut fin = snap;
        fin.status = SnapshotStatus::FinalDiverged;
        ck.write_final(&fin).unwrap();
        assert!(dir.join(FINAL_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn structural_tag_ignores_recovery_knobs() {
        let a = TrainConfig::fast_test(0);
        let mut b = a.clone();
        b.lr *= 0.5;
        b.weight_decay = 0.0;
        b.clip_norm = 1.0;
        b.seed = 99;
        assert_eq!(a.structural_tag("FB"), b.structural_tag("FB"));
        assert_ne!(a.structural_tag("FB"), a.structural_tag("MB"));
        let mut c = a.clone();
        c.hidden += 1;
        assert_ne!(a.structural_tag("FB"), c.structural_tag("FB"));
    }
}
