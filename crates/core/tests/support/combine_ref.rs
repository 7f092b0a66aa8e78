//! The mini-batch term combination as the chain of primitive tape nodes a
//! framework records for it, and this crate did before `combine_batch`
//! became one node: the terms as constants, one `lin_comb` per shared-θ
//! channel (over `M·p` for a transformed scheme), `gather_rows` +
//! `col_scale` + `add` per per-feature term, then `lin_comb` over the
//! channel outputs with γ, or `hcat`. The reference for that node's value
//! and parameter-gradient bits.

use std::sync::Arc;

use sgnn_autograd::{NodeId, ParamStore, Tape};
use sgnn_dense::DMat;

use crate::op::ParamHandles;
use crate::spec::{FilterSpec, Fusion, ThetaSpec};

/// Records the chain for `terms` (the batch rows of every channel's terms)
/// on `tape` and returns its output node.
pub(crate) fn combine_chain(
    tape: &mut Tape,
    spec: &FilterSpec,
    handles: &ParamHandles,
    terms: Vec<Vec<DMat>>,
    store: &ParamStore,
) -> NodeId {
    let mut channel_outs = Vec::with_capacity(terms.len());
    for ((ch, terms), theta_id) in spec.channels.iter().zip(terms).zip(&handles.theta) {
        let term_nodes: Vec<NodeId> = terms.into_iter().map(|t| tape.constant(t)).collect();
        let out = match (&ch.theta, theta_id) {
            (ThetaSpec::Fixed(c), _) => {
                let coeffs = tape.constant(DMat::from_vec(c.len(), 1, c.clone()));
                tape.lin_comb(&term_nodes, coeffs)
            }
            (ThetaSpec::Learnable { .. }, Some(pid)) => {
                let theta = tape.param(store, *pid);
                tape.lin_comb(&term_nodes, theta)
            }
            (ThetaSpec::Transformed { transform, .. }, Some(pid)) => {
                let theta = tape.param(store, *pid);
                let m = tape.constant(transform.clone());
                let coeffs = tape.matmul(m, theta);
                tape.lin_comb(&term_nodes, coeffs)
            }
            (ThetaSpec::PerFeature { .. }, Some(pid)) => {
                let theta = tape.param(store, *pid);
                let mut acc: Option<NodeId> = None;
                for (k, &tn) in term_nodes.iter().enumerate() {
                    let row = tape.gather_rows(theta, Arc::new(vec![k as u32]));
                    let scaled = tape.col_scale(tn, row);
                    acc = Some(match acc {
                        None => scaled,
                        Some(a) => tape.add(a, scaled),
                    });
                }
                acc.expect("per-feature channel with no terms")
            }
            _ => unreachable!("learnable channel without parameter"),
        };
        channel_outs.push(out);
    }
    match &spec.fusion {
        Fusion::FixedSum(w) => {
            let coeffs = tape.constant(DMat::from_vec(w.len(), 1, w.clone()));
            tape.lin_comb(&channel_outs, coeffs)
        }
        Fusion::LearnableSum(_) => {
            let gamma = tape.param(store, handles.gamma.expect("gamma param"));
            tape.lin_comb(&channel_outs, gamma)
        }
        Fusion::Concat => tape.hcat(&channel_outs),
    }
}
