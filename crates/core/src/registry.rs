//! The filter registry: one table of name → constructor with the default
//! hyperparameters used across the main experiments (K = 10, Table 4's
//! universal scheme), in Table-1 order.

use std::sync::Arc;

use crate::adaptive::{Favard, OptBasis};
use crate::bank::{self, AdaGnn};
use crate::filter::SpectralFilter;
use crate::fixed;
use crate::variable::{self, VarLinear};

type Make = fn(&'static str, usize) -> Arc<dyn SpectralFilter>;

/// Every filter of Table 1: its canonical name, and its constructor at
/// order `K` (the name is handed in, so it is written here only).
const FILTERS: [(&str, Make); 27] = [
    ("Identity", |n, _| Arc::new(fixed::identity(n))),
    ("Linear", |n, _| Arc::new(fixed::linear(n))),
    ("Impulse", |n, k| Arc::new(fixed::impulse(n, k))),
    ("Monomial", |n, k| Arc::new(fixed::monomial(n, k))),
    ("PPR", |n, k| Arc::new(fixed::ppr(n, k, 0.15))),
    ("HK", |n, k| Arc::new(fixed::heat_kernel(n, k, 1.0))),
    ("Gaussian", |n, k| Arc::new(fixed::gaussian(n, k, 1.0, 0.0))),
    ("VarLinear", |name, hops| Arc::new(VarLinear { name, hops })),
    ("VarMonomial", |n, k| {
        Arc::new(variable::var_monomial(n, k, 0.15))
    }),
    ("Horner", |n, k| Arc::new(variable::horner(n, k))),
    ("Chebyshev", |n, k| Arc::new(variable::chebyshev(n, k))),
    ("Clenshaw", |n, k| Arc::new(variable::clenshaw(n, k))),
    ("ChebInterp", |n, k| Arc::new(variable::cheb_interp(n, k))),
    ("Bernstein", |n, k| Arc::new(variable::bernstein(n, k))),
    ("Legendre", |n, k| Arc::new(variable::legendre(n, k))),
    ("Jacobi", |n, k| Arc::new(variable::jacobi(n, k, 1.0, 1.0))),
    ("Favard", |name, hops| Arc::new(Favard { name, hops })),
    ("OptBasis", |n, k| Arc::new(OptBasis::new(n, k))),
    ("AdaGNN", |name, hops| {
        Arc::new(AdaGnn {
            name,
            hops,
            init_gate: 0.5,
        })
    }),
    ("FBGNNI", |n, k| Arc::new(bank::fbgnn_i(n, k))),
    ("FBGNNII", |n, k| Arc::new(bank::fbgnn_ii(n, k))),
    ("ACMGNNI", |n, k| Arc::new(bank::acmgnn_i(n, k))),
    ("ACMGNNII", |n, k| Arc::new(bank::acmgnn_ii(n, k))),
    ("FAGNN", |n, k| Arc::new(bank::fagnn(n, k, 0.3))),
    ("G2CN", |n, k| Arc::new(bank::g2cn(n, k, 1.0, 1.0))),
    ("GNN-LF/HF", |n, k| {
        Arc::new(bank::gnn_lf_hf(n, k, 0.15, 0.4, 0.4))
    }),
    ("FiGURe", |n, k| Arc::new(bank::figure(n, k))),
];

/// All 27 canonical filter names, in Table-1 order.
pub fn all_filter_names() -> Vec<&'static str> {
    FILTERS.iter().map(|&(name, _)| name).collect()
}

/// Constructs a filter by canonical name with order `hops` and default
/// filter-level hyperparameters; returns `None` for unknown names.
///
/// ```
/// use sgnn_core::make_filter;
/// let ppr = make_filter("PPR", 10).unwrap();
/// assert_eq!(ppr.name(), "PPR");
/// assert_eq!(ppr.hops(), 10);
/// // The PPR response is low-pass: g(0) > g(2).
/// assert!(ppr.initial_response(0.0, 4) > ppr.initial_response(2.0, 4));
/// assert!(make_filter("NotAFilter", 10).is_none());
/// ```
pub fn make_filter(name: &str, hops: usize) -> Option<Arc<dyn SpectralFilter>> {
    let &(name, make) = FILTERS.iter().find(|&&(n, _)| n == name)?;
    Some(make(name, hops))
}

/// The registry's PPR at restart probability `alpha` instead of 0.15.
pub fn ppr(hops: usize, alpha: f32) -> Arc<dyn SpectralFilter> {
    Arc::new(fixed::ppr("PPR", hops, alpha))
}

/// The registry's Gaussian at concentration `alpha` around `center`
/// instead of 1 around 0.
pub fn gaussian(hops: usize, alpha: f32, center: f32) -> Arc<dyn SpectralFilter> {
    Arc::new(fixed::gaussian("Gaussian", hops, alpha, center))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::taxonomy;
    use crate::testutil::{check_filter_matches_spectral, Params};

    #[test]
    fn every_name_constructs() {
        for name in all_filter_names() {
            let f = make_filter(name, 6).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(f.name(), name);
            let spec = f.spec(4);
            spec.validate();
        }
        assert!(make_filter("NoSuchFilter", 4).is_none());
    }

    /// Every registry filter's output, through the path training takes,
    /// against exact spectral filtering by its own response: at initial
    /// parameters and at seeded random ones, so basis parameters
    /// `propagate` never sees (VarLinear's, Favard's, AdaGNN's) are checked
    /// too. OptBasis derives its basis from the signal and has no response.
    #[test]
    fn every_filter_matches_exact_spectral_filtering() {
        for name in all_filter_names() {
            if name == "OptBasis" {
                continue;
            }
            let filter = make_filter(name, 5).unwrap();
            for params in [Params::Initial, Params::Random(11)] {
                check_filter_matches_spectral(&filter, params, 1e-4);
            }
        }
    }

    /// The hyperparameter constructors build registry filters.
    #[test]
    fn hyperparameter_constructors_keep_registry_names() {
        let names = all_filter_names();
        for f in [ppr(4, 0.3), gaussian(4, 2.0, 1.0)] {
            assert!(names.contains(&f.name()), "{}", f.name());
        }
    }

    #[test]
    fn registry_matches_taxonomy_table() {
        let tax = taxonomy();
        let names = all_filter_names();
        assert_eq!(tax.len(), names.len());
        for row in &tax {
            let f = make_filter(row.filter, 4).unwrap_or_else(|| panic!("missing {}", row.filter));
            assert_eq!(f.name(), row.filter);
        }
    }

    #[test]
    fn mb_compatibility_matches_table_10() {
        // Filters absent from Table 10 (mini-batch results) in the paper.
        let fb_only = [
            "Favard", "AdaGNN", "FBGNNI", "FBGNNII", "ACMGNNI", "ACMGNNII",
        ];
        for name in all_filter_names() {
            let f = make_filter(name, 4).unwrap();
            assert_eq!(
                f.mb_compatible(),
                !fb_only.contains(&name),
                "{name} mini-batch compatibility"
            );
        }
    }
}
