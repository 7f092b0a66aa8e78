//! Versioned, CRC-guarded training snapshots.
//!
//! A snapshot captures everything the trainers need to resume a run
//! mid-training **bit-for-bit**: model parameters, Adam moment buffers, the
//! RNG state, the epoch counter, the best-validation state, and — for the
//! mini-batch scheme — the cumulatively shuffled training order. This module
//! owns the `SGNNCKPT` *schema* (which fields, in which order); the envelope
//! around it, the strict count-checked decoding and the atomic durable write
//! are [`sgnn_dense::sealed`]'s, so **any** truncation or bit flip is
//! rejected with a typed [`CkptError`] rather than resumed from.
//!
//! The last two good snapshots are kept (`ckpt-latest.bin`,
//! `ckpt-prev.bin`): a torn or corrupted latest file falls back to the
//! previous snapshot. Final snapshots written on divergence/timeout go to a
//! separate `ckpt-final.bin` slot so a poisoned parameter state never evicts
//! a good periodic snapshot from the rotation.

use std::path::{Path, PathBuf};

use sgnn_autograd::AdamState;
use sgnn_dense::sealed::{self, Cursor, Format, Sink};
use sgnn_dense::DMat;

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
/// Where a periodic snapshot is made durable before the rotation renames it.
const STAGED_FILE: &str = "ckpt-next.bin";

const FORMAT: Format = Format {
    magic: *b"SGNNCKPT",
    version: 1,
};

/// Why a snapshot file was rejected.
pub type CkptError = sealed::Error;

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
// The SGNNCKPT schema.

fn put_mat(w: &mut Sink, m: &DMat) -> Result<(), CkptError> {
    w.u64(m.rows() as u64)?;
    w.u64(m.cols() as u64)?;
    w.f32s(m.data())
}

/// A matrix whose stored shape must fit in the bytes that are left.
fn get_mat(r: &mut Cursor<&[u8]>) -> Result<DMat, CkptError> {
    let (rows, cols) = (r.u64()?, r.u64()?);
    let n = rows
        .checked_mul(cols)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| CkptError::Malformed(format!("matrix shape {rows}x{cols}")))?;
    let data = r.f32s(n)?;
    Ok(DMat::from_vec(rows as usize, cols as usize, data))
}

fn put_snapshot(w: &mut Sink, s: &Snapshot) -> Result<(), CkptError> {
    w.u64(s.seed)?;
    w.u64(s.config_tag)?;
    w.u8(s.status.to_byte())?;
    w.u64(s.epoch_next as u64)?;
    for &word in &s.rng_state {
        w.u64(word)?;
    }
    w.f64(s.best_valid)?;
    w.f64(s.best_test)?;
    w.u64(s.bad_epochs as u64)?;
    w.u64(s.prop_hops as u64)?;
    w.u64(s.device_peak as u64)?;
    w.u64(s.train_idx.len() as u64)?;
    w.u32s(&s.train_idx)?;
    w.u64(s.params.len() as u64)?;
    for (name, value) in &s.params {
        w.str(name)?;
        put_mat(w, value)?;
    }
    w.u64(s.adam.t)?;
    w.u64(s.adam.m.len() as u64)?;
    let mut moments = s.adam.m.iter().chain(&s.adam.v);
    moments.try_for_each(|m| put_mat(w, m))
}

/// Serializes a snapshot to the on-disk byte layout (header + payload).
pub fn encode(s: &Snapshot) -> Vec<u8> {
    FORMAT.seal(|w| put_snapshot(w, s))
}

/// Writes the bytes of [`encode`] to `path`, atomically and durably.
pub fn save(path: &Path, s: &Snapshot) -> Result<(), CkptError> {
    FORMAT.save(path, |w| put_snapshot(w, s))
}

/// Strictly parses snapshot bytes; any truncation or bit flip is rejected.
pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
    /// Smallest encodings: a parameter is a name length and a shape, a
    /// moment pair two shapes.
    const MIN_PARAM: usize = 8 + 16;
    const MIN_MOMENT_PAIR: usize = 16 + 16;
    FORMAT.open(bytes, |r| {
        Ok(Snapshot {
            seed: r.u64()?,
            config_tag: r.u64()?,
            status: SnapshotStatus::from_byte(r.u8()?)?,
            epoch_next: r.u64()? as usize,
            rng_state: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
            best_valid: r.f64()?,
            best_test: r.f64()?,
            bad_epochs: r.u64()? as usize,
            prop_hops: r.u64()? as usize,
            device_peak: r.u64()? as usize,
            train_idx: {
                let n = r.count(4)?;
                r.u32s(n)?
            },
            params: {
                let n = r.count(MIN_PARAM)?;
                let mut param = || {
                    let name_len = r.count(1)?;
                    Ok((r.str(name_len)?, get_mat(r)?))
                };
                (0..n).map(|_| param()).collect::<Result<_, CkptError>>()?
            },
            adam: {
                let t = r.u64()?;
                let n = r.count(MIN_MOMENT_PAIR)?;
                let mut mats = || (0..n).map(|_| get_mat(r)).collect::<Result<_, CkptError>>();
                AdamState {
                    t,
                    m: mats()?,
                    v: mats()?,
                }
            },
        })
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
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory this checkpointer writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a periodic snapshot and rotates: the previous latest becomes
    /// `ckpt-prev.bin`, so a corrupted latest always has a good predecessor
    /// to fall back to. The new bytes are durable under a staging name
    /// before either rename, so no failure leaves the rotation without its
    /// newest good snapshot.
    pub fn write(&self, snap: &Snapshot) -> Result<(), CkptError> {
        let latest = self.dir.join(LATEST_FILE);
        let staged = self.dir.join(STAGED_FILE);
        save(&staged, snap)?;
        if latest.exists() {
            std::fs::rename(&latest, self.dir.join(PREV_FILE))?;
        }
        std::fs::rename(&staged, &latest)?;
        CKPT_WRITTEN.incr();
        Ok(())
    }

    /// Writes a final (divergence/timeout) snapshot to its own slot,
    /// leaving the periodic rotation untouched.
    pub fn write_final(&self, snap: &Snapshot) -> Result<(), CkptError> {
        save(&self.dir.join(FINAL_FILE), snap)?;
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
        for name in [LATEST_FILE, PREV_FILE, FINAL_FILE, STAGED_FILE] {
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
