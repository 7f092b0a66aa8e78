//! Edge-list ("EI") propagation backend.
//!
//! PyG's default `EdgeIndex` backend implements propagation as
//! gather-source-rows → per-edge messages → scatter-add into targets. The
//! intermediate message tensor is `m × F`, which is exactly the memory
//! blow-up Table 6 of the paper demonstrates (OOM on large graphs where the
//! CSR backend survives). This module reproduces that behaviour faithfully —
//! including the intermediate allocation — so the backend comparison can be
//! re-run.

use crate::csr::CsrMat;
use sgnn_dense::backend;
use sgnn_dense::runtime::run_chunks;
use sgnn_dense::DMat;
use sgnn_obs as obs;

/// Per-edge messages materialized by the EI backend (gather + scatter).
static EDGE_MESSAGES: obs::Counter = obs::Counter::new("spmm.edge_messages");

/// A weighted directed edge list `dst[e] <- w[e] * src[e]`.
#[derive(Clone, Debug)]
pub(crate) struct EdgeList {
    n: usize,
    src: Vec<u32>,
    dst: Vec<u32>,
    w: Vec<f32>,
}

impl EdgeList {
    /// Extracts the edge list of a square CSR operator.
    pub(crate) fn from_csr(csr: &CsrMat) -> Self {
        assert_eq!(
            csr.rows(),
            csr.cols(),
            "edge list requires a square operator"
        );
        let mut src = Vec::with_capacity(csr.nnz());
        let mut dst = Vec::with_capacity(csr.nnz());
        let mut w = Vec::with_capacity(csr.nnz());
        for (r, c, v) in csr.iter() {
            dst.push(r);
            src.push(c);
            w.push(v);
        }
        Self {
            n: csr.rows(),
            src,
            dst,
            w,
        }
    }

    /// Number of directed edges (messages per propagation).
    pub(crate) fn len(&self) -> usize {
        self.src.len()
    }

    /// Heap bytes of the index/weight arrays.
    pub(crate) fn nbytes(&self) -> usize {
        self.src.len() * 4 + self.dst.len() * 4 + self.w.len() * 4
    }

    /// Message-passing propagation with an explicit `m × F` message tensor.
    ///
    /// Returns the propagated features and reports the peak transient bytes
    /// of the message buffer through the return value's side: callers that
    /// need the footprint read [`message_bytes`](Self::message_bytes).
    pub(crate) fn propagate(&self, x: &DMat) -> DMat {
        assert_eq!(x.rows(), self.n, "feature rows must match node count");
        let f = x.cols();
        let _sp = obs::span!("spmm.edge", edges = self.len(), cols = f);
        EDGE_MESSAGES.add(self.len() as u64);
        // Stage 1: gather + weight — the materialized message tensor. Each
        // message row is independent, so the gather runs over the pool.
        let mut messages = DMat::zeros(self.len(), f);
        let (src, w) = (&self.src, &self.w);
        let be = backend::for_elementwise();
        run_chunks(messages.data_mut(), self.len(), f.max(1), |first, chunk| {
            for (local, m) in chunk.chunks_exact_mut(f.max(1)).enumerate() {
                let e = first + local;
                m.copy_from_slice(x.row(src[e] as usize));
                be.scale(w[e], m);
            }
        });
        // Stage 2: scatter-add into destinations. Stays serial: multiple
        // edges target the same output row, so parallel writes would race
        // (PyG pays for this with atomics; the comparison only needs the
        // memory behaviour to be faithful).
        let mut out = DMat::zeros(self.n, f);
        for (e, &d) in self.dst.iter().enumerate() {
            be.add_assign(out.row_mut(d as usize), messages.row(e));
        }
        out
    }

    /// Bytes of the transient message tensor for a width-`f` propagation —
    /// the quantity that makes this backend OOM at scale.
    pub(crate) fn message_bytes(&self, f: usize) -> usize {
        self.len() * f * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    #[test]
    fn matches_csr_spmm() {
        let mut coo = Coo::new(4, 4);
        coo.push_sym(0, 1, 0.5);
        coo.push_sym(1, 2, 0.25);
        coo.push(3, 3, 1.0);
        let csr = coo.into_csr();
        let el = EdgeList::from_csr(&csr);
        let x = DMat::from_fn(4, 3, |r, c| (r * 3 + c) as f32 - 4.0);
        let a = csr.spmm(&x);
        let b = el.propagate(&x);
        for (u, v) in a.data().iter().zip(b.data()) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    fn message_bytes_scales_with_edges() {
        let mut coo = Coo::new(3, 3);
        coo.push_sym(0, 1, 1.0);
        coo.push_sym(1, 2, 1.0);
        let el = EdgeList::from_csr(&coo.into_csr());
        assert_eq!(el.len(), 4);
        assert_eq!(el.message_bytes(8), 4 * 8 * 4);
    }
}
