//! Disk-resident CSR with a pinned decode ring and double-buffered prefetch.
//!
//! [`ShardedCsr`] holds the `O(n)` parts of a graph in RAM (degree table,
//! shard index) and streams the `O(m)` column structure from disk shard by
//! shard. Propagation walks shards in row order; while the worker pool
//! consumes shard `k`, one auxiliary pool task (posted through
//! [`sgnn_dense::runtime::run_plan_aux`]) decodes shard `k+1` into the next
//! ring slot, so on multi-lane hosts decode I/O hides behind SpMM compute.
//! Ring slots are allocated once at open to the file's declared maxima and
//! never grow — the RAM bound is `O(n + ring · max_shard)` regardless of
//! `m`.
//!
//! # Bit-identity
//!
//! The streamed kernel reproduces [`crate::csr::CsrMat::fused_into`]
//! exactly: each output row is one call of the same row microkernel
//! (`Backend::spmm_row`: zero → column-ordered FMAs → `b`-term → `c`-term),
//! made by exactly one task. Stored values are implied 1.0 and the
//! normalization weight `row_scale[r] · col_scale[c]` is recomputed per edge
//! into a per-chunk scratch — bit-equal to the in-memory `scale_rows_cols`
//! product because `1.0 · (rs·cs)` is exact.
//! Self-loops are injected at decode time into their sorted column
//! position, exactly where the in-memory `CsrMat::plus_identity` merges them.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use sgnn_dense::backend;
use sgnn_dense::runtime::{num_threads, run_plan_aux};
use sgnn_dense::DMat;
use sgnn_obs as obs;

use super::format::{self, ShardError, ShardMeta};
use super::varint;
use crate::plan::SpmmPlan;

/// Shards fully decoded from disk (both prefetched and stalled loads).
static SHARD_DECODED: obs::Counter = obs::Counter::new("shard.decoded");
/// Compressed bytes read from the shard file.
static SHARD_BYTES_READ: obs::Counter = obs::Counter::new("shard.bytes_read");
/// Consumer found its shard already decoded by the prefetch task.
static SHARD_PREFETCH_HIT: obs::Counter = obs::Counter::new("shard.prefetch_hit");
/// Wall time of one shard decode (read + CRC + varint + plan).
static SHARD_DECODE_NS: obs::Histogram = obs::Histogram::new("shard.decode_ns");
/// Time the consumer waited for its shard: ~0 on a prefetch hit, a full
/// synchronous decode on a miss. The streaming-efficiency headline.
static SHARD_STALL_NS: obs::Histogram = obs::Histogram::new("shard.prefetch_stall_ns");

/// Default shard budget in stored entries (~1 MiB of decoded `u32` columns,
/// sized so a shard's columns sit in cache while its rows stream).
pub const DEFAULT_SHARD_NNZ: usize = 1 << 18;

/// Ring size: one slot consumed by the kernel, one decoding the next shard.
/// The streamed kernel only ever prefetches shard `k+1`, so a third slot
/// could never be filled.
const RING_SLOTS: usize = 2;

/// One pinned decode buffer. `shard == usize::MAX` means empty.
#[derive(Debug)]
struct Slot {
    shard: usize,
    /// Compressed blob, reused across decodes.
    raw: Vec<u8>,
    /// Decoded columns (diagonal injected when the owner adds self-loops).
    cols: Vec<u32>,
    /// Shard-local row pointers over `cols`, `rows + 1` entries.
    indptr: Vec<usize>,
    /// nnz-balanced chunk boundaries for the pool, from [`SpmmPlan`].
    boundaries: Vec<usize>,
}

impl Slot {
    fn with_capacity(max_blob: usize, max_decoded: usize, max_rows: usize) -> Self {
        Self {
            shard: usize::MAX,
            raw: Vec::with_capacity(max_blob),
            cols: Vec::with_capacity(max_decoded),
            indptr: Vec::with_capacity(max_rows + 1),
            boundaries: Vec::new(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.raw.capacity()
            + self.cols.capacity() * 4
            + (self.indptr.capacity() + self.boundaries.capacity()) * 8
    }
}

#[derive(Debug)]
struct Ring {
    file: File,
    slots: Vec<Slot>,
}

/// A compressed, disk-resident symmetric adjacency structure, streamed
/// through a fixed ring of decode buffers. See the module docs.
#[derive(Debug)]
pub struct ShardedCsr {
    n: usize,
    /// Stored structural entries (no diagonal).
    nnz: u64,
    symmetric: bool,
    add_diagonal: bool,
    /// Structural degree per row (no diagonal).
    degs: Vec<u32>,
    shards: Vec<ShardMeta>,
    ring: Mutex<Ring>,
}

/// Decodes shard `k` into `slot`: read, CRC, varint-expand, inject the
/// diagonal, build the slot's pool boundaries. Free function so the
/// prefetch closure can run it over split borrows of the ring.
#[allow(clippy::too_many_arguments)]
fn decode_slot(
    file: &mut File,
    slot: &mut Slot,
    meta: &ShardMeta,
    k: usize,
    degs: &[u32],
    n: u32,
    add_diagonal: bool,
    chunks_hint: usize,
) -> Result<(), ShardError> {
    let t = Instant::now();
    slot.shard = usize::MAX;
    slot.raw.resize(meta.blob_len, 0);
    file.seek(SeekFrom::Start(meta.offset))?;
    file.read_exact(&mut slot.raw)?;
    if sgnn_dense::sealed::crc32(&slot.raw) != meta.crc {
        return Err(ShardError::BlobCrcMismatch(k));
    }
    slot.cols.clear();
    slot.indptr.clear();
    slot.indptr.push(0);
    let mut pos = 0usize;
    for local in 0..meta.rows {
        let r = meta.first_row + local;
        let deg = degs[r] as usize;
        if add_diagonal {
            // The diagonal lands at its sorted position, exactly where the
            // in-memory build merges it — spliced in while decoding.
            varint::decode_row_with_diag(&slot.raw, &mut pos, deg, n, r as u32, &mut slot.cols)?;
        } else {
            varint::decode_row(&slot.raw, &mut pos, deg, n, &mut slot.cols)?;
        }
        slot.indptr.push(slot.cols.len());
    }
    if pos != slot.raw.len() {
        return Err(ShardError::Malformed("trailing bytes in shard blob"));
    }
    let plan = SpmmPlan::with_chunks(&slot.indptr, chunks_hint);
    slot.boundaries.clear();
    slot.boundaries.extend_from_slice(plan.boundaries());
    slot.shard = k;
    SHARD_DECODED.incr();
    SHARD_BYTES_READ.add(meta.blob_len as u64);
    SHARD_DECODE_NS.record_duration(t.elapsed());
    Ok(())
}

/// Disjoint `&mut` pair from one slice.
fn pair_mut(slots: &mut [Slot], i: usize, j: usize) -> (&mut Slot, &mut Slot) {
    assert_ne!(i, j);
    if i < j {
        let (a, b) = slots.split_at_mut(j);
        (&mut a[i], &mut b[0])
    } else {
        let (a, b) = slots.split_at_mut(i);
        (&mut b[0], &mut a[j])
    }
}

impl ShardedCsr {
    /// Opens a shard file and pins its two-slot decode ring (each slot sized
    /// to the file's largest shard).
    /// `add_diagonal` injects a unit self-loop per row at decode time —
    /// matching `Ā = A + I` of the in-memory propagation build.
    pub fn open(path: &Path, add_diagonal: bool) -> Result<Self, ShardError> {
        let mut file = File::open(path)?;
        let idx = format::read_index(&mut file)?;
        let max_decoded = idx.max_shard_nnz + if add_diagonal { idx.max_shard_rows } else { 0 };
        let slots = (0..RING_SLOTS)
            .map(|_| Slot::with_capacity(idx.max_blob_len, max_decoded, idx.max_shard_rows))
            .collect();
        Ok(Self {
            n: idx.n,
            nnz: idx.nnz,
            symmetric: idx.symmetric,
            add_diagonal,
            degs: idx.degs,
            shards: idx.shards,
            ring: Mutex::new(Ring { file, slots }),
        })
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Entries the decoded operator carries (diagonal included when added).
    pub(crate) fn nnz_decoded(&self) -> u64 {
        self.nnz + if self.add_diagonal { self.n as u64 } else { 0 }
    }

    /// Whether the stored structure is its own transpose.
    pub(crate) fn symmetric(&self) -> bool {
        self.symmetric
    }

    /// Whether decode injects unit self-loops.
    pub(crate) fn add_diagonal(&self) -> bool {
        self.add_diagonal
    }

    /// Structural degree per row (no diagonal).
    pub fn degs(&self) -> &[u32] {
        &self.degs
    }

    /// Resident heap bytes: degree table, shard index, pinned ring. The
    /// whole point: independent of `m` beyond the ring's shard budget.
    pub(crate) fn resident_bytes(&self) -> usize {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        self.degs.capacity() * 4
            + self.shards.capacity() * std::mem::size_of::<ShardMeta>()
            + ring.slots.iter().map(Slot::heap_bytes).sum::<usize>()
    }

    /// Streamed fused kernel: `out = a·(S∘W)·x [+ b·x] [+ c·z]` where `S` is
    /// the stored {0,1} structure (plus the injected diagonal) and
    /// `W[r][c] = row_scale[r] · col_scale[c]` — the factored normalization
    /// weights. Bit-identical to the in-memory
    /// [`CsrMat::fused_into`](crate::csr::CsrMat) on the equivalent scaled
    /// matrix; see the module docs. For the adjoint of a symmetric
    /// structure, pass the scale vectors swapped (f32 multiplication is
    /// bitwise commutative).
    ///
    /// Propagations are serialized on the ring (one streaming pass at a
    /// time); decode I/O failures and CRC mismatches panic — by the time
    /// the ring is streaming, the file has already validated at open.
    #[allow(clippy::too_many_arguments)]
    pub fn fused_into(
        &self,
        a: f32,
        b: f32,
        x: &DMat,
        cz: Option<(f32, &DMat)>,
        out: &mut DMat,
        row_scale: &[f32],
        col_scale: &[f32],
    ) {
        assert_eq!(x.rows(), self.n, "spmm dimension mismatch");
        assert_eq!(out.shape(), (self.n, x.cols()), "output shape mismatch");
        assert_eq!(row_scale.len(), self.n, "row_scale length");
        assert_eq!(col_scale.len(), self.n, "col_scale length");
        if let Some((_, z)) = cz {
            assert_eq!(z.shape(), (self.n, x.cols()), "z-term shape mismatch");
        }
        let f = x.cols();
        let fs = f.max(1);
        let _sp = obs::span!(
            "spmm.sharded",
            nnz = self.nnz_decoded() as usize,
            cols = f,
            shards = self.shards.len()
        );
        let xdat = x.data();
        let zdat = cz.map(|(c, z)| (c, z.data()));
        let be = backend::for_axpy();
        let chunks_hint = num_threads().max(1) * 4;
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let Ring { file, slots } = &mut *ring;
        let nb = slots.len();
        let outdat = out.data_mut();
        let nshards = self.shards.len();
        for k in 0..nshards {
            let meta = self.shards[k];
            let cur_idx = k % nb;
            // Ensure shard k is decoded; a miss is a synchronous (stalled)
            // decode, a hit cost ~nothing — both land in the stall histogram.
            {
                let slot = &mut slots[cur_idx];
                if slot.shard != k {
                    let t = Instant::now();
                    decode_slot(
                        file,
                        slot,
                        &meta,
                        k,
                        &self.degs,
                        self.n as u32,
                        self.add_diagonal,
                        chunks_hint,
                    )
                    .unwrap_or_else(|e| panic!("sharded propagation failed: {e}"));
                    SHARD_STALL_NS.record_duration(t.elapsed());
                } else {
                    SHARD_PREFETCH_HIT.incr();
                    SHARD_STALL_NS.record(0);
                }
            }
            // Split the ring: shard k's slot is read by the kernel while the
            // aux task decodes shard k+1 into a different slot (nb ≥ 2
            // guarantees distinct indices).
            let (cur, prefetch) = if k + 1 < nshards {
                let (cur, pre) = pair_mut(slots, cur_idx, (k + 1) % nb);
                (&*cur, (pre.shard != k + 1).then_some(pre))
            } else {
                (&slots[cur_idx], None)
            };
            let aux = || {
                if let Some(pre) = prefetch {
                    // A failed prefetch leaves the slot empty; the consumer
                    // retries synchronously and surfaces the real error.
                    let _ = decode_slot(
                        file,
                        pre,
                        &self.shards[k + 1],
                        k + 1,
                        &self.degs,
                        self.n as u32,
                        self.add_diagonal,
                        chunks_hint,
                    );
                }
            };
            let region = &mut outdat[meta.first_row * fs..(meta.first_row + meta.rows) * fs];
            let kernel = |first: usize, chunk: &mut [f32]| {
                // The row's normalization weights, recomputed per edge; one
                // buffer per chunk, reused from row to row.
                let mut weights = Vec::new();
                for (local, orow) in chunk.chunks_exact_mut(fs).enumerate() {
                    let lr = first + local;
                    let r = meta.first_row + lr;
                    let cols = &cur.cols[cur.indptr[lr]..cur.indptr[lr + 1]];
                    let rs = row_scale[r];
                    weights.clear();
                    weights.extend(cols.iter().map(|&c| rs * col_scale[c as usize]));
                    let bx = (b != 0.0).then(|| (b, &xdat[r * f..(r + 1) * f]));
                    let cz = zdat.map(|(cc, zd)| (cc, &zd[r * f..(r + 1) * f]));
                    be.spmm_row(a, cols, &weights, xdat, bx, cz, orow);
                }
            };
            run_plan_aux(region, fs, &cur.boundaries, aux, kernel);
        }
    }
}
