//! Table 1: the filter taxonomy, with *measured* propagation-hop counts on a
//! sample graph appended to the asymptotic complexities.

use sgnn_core::{taxonomy::taxonomy, PropCtx};
use sgnn_dense::rng as drng;
use sgnn_obs as obs;
use sgnn_sparse::PropMatrix;

use crate::harness::{save_json, Opts};
use crate::table::{Column, Layout, Table};

/// Renders the taxonomy table.
pub fn run(opts: &Opts) -> String {
    let data = opts.load_dataset("cora", 0);
    let pm = PropMatrix::new(&data.graph, 0.5);
    let x = drng::randn_mat(pm.n(), 8, 1.0, &mut drng::seeded(0));

    let mut table = Table::new(
        "table1",
        format!("Table 1: taxonomy of spectral filters (K = {})", opts.hops),
        Layout::Grid,
        vec![
            Column::left("filter", 12),
            Column::left("type", 9),
            Column::left("function", 34).head("g(L)"),
            Column::left("time", 14),
            Column::left("memory", 10),
            Column::right("hops", 6),
            Column::right("terms", 6),
        ],
    );
    for row in taxonomy() {
        let _sp = obs::span!("cell", table = "table1", filter = row.filter);
        let filter = opts.build_filter(row.filter);
        let ctx = PropCtx::forward(&pm);
        let terms = filter.propagate(&ctx, &x);
        let total_terms: usize = terms.iter().map(Vec::len).sum();
        table.push(vec![
            row.filter.into(),
            row.kind.to_string().into(),
            truncate(row.function, 34).into(),
            row.time.into(),
            row.memory.into(),
            ctx.hops_used().into(),
            total_terms.into(),
        ]);
    }
    save_json(opts, &table);
    table.render()
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n - 1).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_filters_with_hop_counts() {
        let out = run(&Opts::tiny());
        for name in sgnn_core::all_filter_names() {
            assert!(out.contains(name), "missing {name}");
        }
        // Bernstein executes O(K²) hops — visibly more than K.
        let bern_line = out.lines().find(|l| l.starts_with("Bernstein")).unwrap();
        let hops: usize = bern_line
            .split_whitespace()
            .rev()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(hops > 4, "Bernstein hops {hops}");
    }
}
