//! `SGNNTERM` — the propagated-terms serving artifact.
//!
//! The decoupled scheme's precompute stage materializes `channels × terms`
//! dense matrices (`n × F` each) once; serving only ever gathers rows from
//! them. This module persists that tensor alongside the pairing metadata a
//! server needs to rebuild the exact model it was trained with: it owns the
//! payload *schema* ([`ServeMeta`], then the terms), and
//! [`sgnn_dense::sealed`] owns the envelope around it.
//!
//! The payload can be hundreds of MB (`n·K·F` floats), so both directions
//! stream through the envelope's 64 KiB buffer: [`load`] never holds a
//! payload-sized byte buffer beside the term matrices it fills — the
//! portable stand-in for mmap — and [`save`] is atomic, so a torn write
//! leaves no `terms.bin` behind.

use std::path::Path;

use sgnn_dense::sealed::{self, Cursor, FileRegion, Format, Sink};
use sgnn_dense::DMat;

const FORMAT: Format = Format {
    magic: *b"SGNNTERM",
    version: 1,
};

/// Why a terms artifact was rejected.
pub type TermsError = sealed::Error;

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
// The SGNNTERM schema.

fn write_payload(w: &mut Sink, meta: &ServeMeta, terms: &[Vec<DMat>]) -> Result<(), TermsError> {
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
            w.f32s(t.data())?;
        }
    }
    Ok(())
}

/// Every stored count is checked against the bytes that are left (a channel
/// is at least its term count, a term at least its shape) before anything
/// is allocated for it.
fn read_payload(r: &mut Cursor<FileRegion>) -> Result<TermsArtifact, TermsError> {
    let name_len = r.count(1)?;
    let meta = ServeMeta {
        filter: r.str(name_len)?,
        hops: r.u64()? as usize,
        hidden: r.u64()? as usize,
        dropout: r.f32()?,
        in_dim: r.u64()? as usize,
        num_classes: r.u64()? as usize,
        nodes: r.u64()? as usize,
        seed: r.u64()?,
        config_tag: r.u64()?,
    };
    let channels = r.count(8)?;
    let mut terms = Vec::with_capacity(channels);
    for _ in 0..channels {
        let nterms = r.count(16)?;
        let mut channel = Vec::with_capacity(nterms);
        for _ in 0..nterms {
            let (rows, cols) = (r.u64()?, r.u64()?);
            let total = rows
                .checked_mul(cols)
                .and_then(|t| usize::try_from(t).ok())
                .ok_or_else(|| TermsError::Malformed(format!("term shape {rows}x{cols}")))?;
            let data = r.finite_f32s(total)?;
            channel.push(DMat::from_vec(rows as usize, cols as usize, data));
        }
        terms.push(channel);
    }
    Ok(TermsArtifact { meta, terms })
}

/// Atomically writes `meta` + `terms` to `path`.
pub fn save(path: &Path, meta: &ServeMeta, terms: &[Vec<DMat>]) -> Result<(), TermsError> {
    FORMAT.save(path, |w| write_payload(w, meta, terms))
}

/// Streamed load; the file must hold exactly the declared payload.
pub fn load(path: &Path) -> Result<TermsArtifact, TermsError> {
    FORMAT.load(path, read_payload)
}

/// In-memory encode (header + payload), for the proptest suite; [`save`]
/// streams the same bytes to disk.
pub fn encode(meta: &ServeMeta, terms: &[Vec<DMat>]) -> Vec<u8> {
    FORMAT.seal(|w| write_payload(w, meta, terms))
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

    /// The schema-level refusal: the envelope is intact, a term is not finite.
    #[test]
    fn rejects_nan_terms() {
        let dir = std::env::temp_dir().join(format!("sgnn-term-nan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("terms.bin");
        let (meta, mut terms) = sample();
        save(&path, &meta, &terms).unwrap();
        assert_eq!(load(&path).unwrap().terms, terms);
        terms[0][0].data_mut()[3] = f32::NAN;
        save(&path, &meta, &terms).unwrap();
        assert_eq!(load(&path).unwrap_err(), TermsError::NonFinite);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
