//! Figure 8: t-SNE structure of learned representations.
//!
//! The visualization becomes data: 2-D coordinates are dumped as JSON and
//! the cluster quality is quantified with silhouette scores — high on
//! homophilous graphs for most filters, preserved only by suitable filters
//! under heterophily.

use std::sync::Arc;

use sgnn_analysis::cluster::intra_inter_ratio;
use sgnn_analysis::{silhouette_score, tsne, TsneConfig};
use sgnn_core::op::{filter_output, CoeffValues};
use sgnn_core::PropCtx;
use sgnn_sparse::PropMatrix;

use crate::harness::{save_json, Opts};
use crate::table::{Cell, Column, Layout, Table};

/// Embeds filter outputs with t-SNE and scores cluster separation.
pub fn run(opts: &Opts) -> String {
    let datasets = opts.dataset_names(&["cora", "chameleon"]);
    let filters = opts.filter_names(&["Impulse", "PPR", "Monomial", "Chebyshev", "Jacobi"]);
    let mut table = Table::new(
        "fig8",
        "Figure 8: t-SNE cluster quality of filter embeddings",
        Layout::Lines,
        vec![
            Column::hidden("dataset"),
            Column::left("filter", 12),
            Column::right("silhouette", 0),
            Column::right("intra_inter", 0).head("intra/inter"),
            Column::hidden("x"),
            Column::hidden("y"),
        ],
    );
    for dname in &datasets {
        let data = opts.load_dataset(dname, 0);
        let pm = Arc::new(PropMatrix::new(&data.graph, 0.5));
        // Subsample for the O(n²) embedding.
        let cap = 400usize.min(data.nodes());
        let idx: Vec<u32> = (0..cap as u32).collect();
        let labels: Vec<u32> = idx.iter().map(|&i| data.labels[i as usize]).collect();
        table.section(format!("{dname} (n shown = {cap})"));
        for fname in &filters {
            // Representation: the filter applied to raw attributes (the
            // graph-processing half of the model) — isolating the spectral
            // behaviour, independent of downstream network training.
            let filter = opts.build_filter(fname);
            let spec = filter.spec(data.features.cols());
            let cv = CoeffValues::resolve(&spec, &spec.initial_params());
            let ctx = PropCtx::forward(&pm);
            let rep = filter_output(filter.as_ref(), &spec, &ctx, &data.features, &cv);
            let sub = rep.gather_rows(&idx);
            let coords = tsne(
                &sub,
                &TsneConfig {
                    iterations: 200,
                    seed: 0,
                    ..Default::default()
                },
            );
            let sil = silhouette_score(&coords, &labels);
            let ratio = intra_inter_ratio(&coords, &labels);
            let axis = |c: usize| {
                (0..coords.rows())
                    .map(|r| sgnn_obs::json::widen_f32(coords.get(r, c)))
                    .collect()
            };
            table.push(vec![
                dname.into(),
                fname.into(),
                Cell::signed(sil, 3),
                Cell::f(ratio, 3),
                Cell::List(axis(0)),
                Cell::List(axis(1)),
            ]);
        }
    }
    save_json(opts, &table);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tsne_analysis_emits_scores() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.filters = vec!["PPR".into()];
        opts.epochs = 5;
        let out = run(&opts);
        assert!(out.contains("silhouette="));
    }
}
