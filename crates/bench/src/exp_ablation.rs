//! Ablation studies for the design choices DESIGN.md calls out — beyond the
//! paper's own tables, these probe the knobs the unified framework exposes:
//!
//! * **PPR decay `α`** — the heterophily knob of RQ3: smaller `α` reaches
//!   further (better under homophily), larger `α` keeps node identity
//!   (survives heterophily).
//! * **Learned frequency responses** — after training, the variable filter's
//!   `g(λ)` is read back from its parameters: low-pass on homophilous
//!   graphs, high-frequency-heavy on heterophilous ones (the mechanism
//!   behind C3/C6).
//! * **Propagation backends** — CSR vs edge-list wall-clock on the same
//!   filter, isolating the backend constant factor from Table 6.

use sgnn_dense::rng as drng;
use sgnn_sparse::{Backend, Dir, PropMatrix};
use sgnn_train::timer::StageTimer;
use sgnn_train::Scheme;

use crate::harness::{save_json, Opts};
use crate::table::{Cell, Column, Layout, Table};

/// (a) PPR α sweep across the homophily spectrum.
fn alpha_sweep(opts: &Opts) -> Table {
    let datasets = opts.dataset_names(&["cora", "roman-empire"]);
    let alphas = [0.05f32, 0.15, 0.3, 0.5, 0.8];
    let mut columns = vec![Column::left("dataset", 14)];
    columns.extend(alphas.map(|a| Column::right(format!("α={a:.2}"), 0)));
    let title = "Ablations: framework design knobs";
    let mut table = Table::new("ablation_alpha", title, Layout::Lines, columns);
    table.section("(a) PPR decay α");
    for dname in &datasets {
        let data = opts.load_dataset(dname, 0);
        let metric = |alpha| {
            let filter = sgnn_core::ppr(opts.hops, alpha);
            Cell::f(
                Scheme::FullBatch
                    .train(filter, &data, None, &opts.train_config(0))
                    .report
                    .test_metric,
                3,
            )
        };
        table.push([vec![dname.into()], alphas.map(metric).to_vec()].concat());
    }
    table
}

/// (b) Learned frequency responses of a variable filter.
fn learned_responses(opts: &Opts) -> Table {
    let datasets = opts.dataset_names(&["cora", "roman-empire"]);
    let grid: Vec<f64> = (0..=8).map(|i| 0.25 * i as f64).collect();
    let mut columns = vec![Column::left("dataset", 14)];
    columns.extend(grid.iter().map(|l| Column::right(format!("g({l:.2})"), 0)));
    let mut table = Table::new("ablation_responses", "", Layout::Lines, columns);
    table.section("(b) learned VarMonomial responses g(λ)");
    for dname in &datasets {
        let data = opts.load_dataset(dname, 0);
        let filter = opts.build_filter("VarMonomial");
        let trained = Scheme::FullBatch.train(filter, &data, None, &opts.train_config(0));
        let (model, store) = (&trained.model, &trained.store);
        let rp = model.filter.response_params(store);
        let mut row = vec![dname.into()];
        row.extend(
            grid.iter()
                .map(|&l| Cell::signed(model.filter.filter().response(l, &rp), 3)),
        );
        table.push(row);
    }
    table.note("  (expected: mass at small λ under homophily; flat/high-λ mass under heterophily)");
    table
}

/// (c) Backend wall-clock per propagation hop.
fn backend_ablation(opts: &Opts) -> Table {
    let data = opts.load_dataset(&opts.dataset_names(&["pubmed"])[0], 0);
    let x = drng::randn_mat(data.nodes(), opts.hidden, 1.0, &mut drng::seeded(0));
    let mut table = Table::new(
        "ablation_backend",
        "",
        Layout::Lines,
        vec![Column::hidden("backend"), Column::hidden("seconds_per_hop")],
    );
    table.section(format!(
        "(c) propagation backend (n = {}, m = {})",
        data.nodes(),
        data.edges()
    ));
    for (name, backend) in [
        ("SP/csr", Backend::Csr),
        ("EI/edge-list", Backend::EdgeList),
    ] {
        let pm = PropMatrix::with_options(&data.graph, 0.5, true, backend);
        let mut t = StageTimer::new();
        for _ in 0..5 {
            t.time(|| std::hint::black_box(pm.hop(Dir::Forward, 1.0, 0.0, &x)));
        }
        table.push(vec![name.into(), Cell::f(t.mean(), 5)]);
        table.note(format!(
            "  {:<14} {:.5}s/hop (±{:.5})",
            name,
            t.mean(),
            t.stddev()
        ));
    }
    table
}

/// Runs all three ablations.
pub fn run(opts: &Opts) -> String {
    let tables = [
        alpha_sweep(opts),
        learned_responses(opts),
        backend_ablation(opts),
    ];
    let mut out = String::new();
    for table in &tables {
        save_json(opts, table);
        out.push_str(&table.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_produces_all_three_sections() {
        let mut opts = Opts::tiny();
        opts.datasets = vec!["cora".into()];
        opts.epochs = 8;
        let out = run(&opts);
        assert!(out.contains("(a) PPR decay"));
        assert!(out.contains("(b) learned VarMonomial"));
        assert!(out.contains("(c) propagation backend"));
    }
}
