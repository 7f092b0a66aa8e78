//! Name → filter constructors with the default hyperparameters used across
//! the main experiments (K = 10, Table 4's universal scheme).

use std::sync::Arc;

use crate::adaptive::{Favard, OptBasis};
use crate::bank::{AcmGnnI, AcmGnnII, AdaGnn, FaGnn, FbGnnI, FbGnnII, FiGURe, G2Cn, GnnLfHf};
use crate::filter::SpectralFilter;
use crate::fixed::{Gaussian, HeatKernel, Identity, Impulse, Linear, Monomial, Ppr};
use crate::variable::{
    Bernstein, ChebInterp, Chebyshev, Clenshaw, Horner, Jacobi, Legendre, VarLinear, VarMonomial,
};

/// All 27 canonical filter names, in Table-1 order.
pub fn all_filter_names() -> Vec<&'static str> {
    vec![
        "Identity",
        "Linear",
        "Impulse",
        "Monomial",
        "PPR",
        "HK",
        "Gaussian",
        "VarLinear",
        "VarMonomial",
        "Horner",
        "Chebyshev",
        "Clenshaw",
        "ChebInterp",
        "Bernstein",
        "Legendre",
        "Jacobi",
        "Favard",
        "OptBasis",
        "AdaGNN",
        "FBGNNI",
        "FBGNNII",
        "ACMGNNI",
        "ACMGNNII",
        "FAGNN",
        "G2CN",
        "GNN-LF/HF",
        "FiGURe",
    ]
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
    let f: Arc<dyn SpectralFilter> = match name {
        "Identity" => Arc::new(Identity),
        "Linear" => Arc::new(Linear),
        "Impulse" => Arc::new(Impulse { hops }),
        "Monomial" => Arc::new(Monomial { hops }),
        "PPR" => Arc::new(Ppr { hops, alpha: 0.15 }),
        "HK" => Arc::new(HeatKernel { hops, alpha: 1.0 }),
        "Gaussian" => Arc::new(Gaussian {
            hops,
            alpha: 1.0,
            center: 0.0,
        }),
        "VarLinear" => Arc::new(VarLinear { hops }),
        "VarMonomial" => Arc::new(VarMonomial {
            hops,
            init_alpha: 0.15,
        }),
        "Horner" => Arc::new(Horner { hops }),
        "Chebyshev" => Arc::new(Chebyshev { hops }),
        "Clenshaw" => Arc::new(Clenshaw { hops }),
        "ChebInterp" => Arc::new(ChebInterp { hops }),
        "Bernstein" => Arc::new(Bernstein { hops }),
        "Legendre" => Arc::new(Legendre { hops }),
        "Jacobi" => Arc::new(Jacobi {
            hops,
            a: 1.0,
            b: 1.0,
        }),
        "Favard" => Arc::new(Favard { hops }),
        "OptBasis" => Arc::new(OptBasis::new(hops)),
        "AdaGNN" => Arc::new(AdaGnn {
            hops,
            init_gate: 0.5,
        }),
        "FBGNNI" => Arc::new(FbGnnI { hops }),
        "FBGNNII" => Arc::new(FbGnnII { hops }),
        "ACMGNNI" => Arc::new(AcmGnnI { hops }),
        "ACMGNNII" => Arc::new(AcmGnnII { hops }),
        "FAGNN" => Arc::new(FaGnn { hops, beta: 0.3 }),
        "G2CN" => Arc::new(G2Cn {
            hops,
            alpha_low: 1.0,
            alpha_high: 1.0,
        }),
        "GNN-LF/HF" => Arc::new(GnnLfHf {
            hops,
            alpha: 0.15,
            beta_lf: 0.4,
            beta_hf: 0.4,
        }),
        "FiGURe" => Arc::new(FiGURe { hops }),
        _ => return None,
    };
    Some(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::{taxonomy, FilterKind};

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

    #[test]
    fn registry_matches_taxonomy_table() {
        let tax = taxonomy();
        let names = all_filter_names();
        assert_eq!(tax.len(), names.len());
        for row in &tax {
            let reg_name = match row.filter {
                "VarLinear" | "VarMonomial" => row.filter,
                other => other,
            };
            let f = make_filter(reg_name, 4).unwrap_or_else(|| panic!("missing {}", row.filter));
            assert_eq!(f.kind(), row.kind, "{}", row.filter);
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

    #[test]
    fn kind_counts() {
        let (mut fixed, mut var, mut bank) = (0, 0, 0);
        for name in all_filter_names() {
            match make_filter(name, 4).unwrap().kind() {
                FilterKind::Fixed => fixed += 1,
                FilterKind::Variable => var += 1,
                FilterKind::Bank => bank += 1,
            }
        }
        assert_eq!((fixed, var, bank), (7, 11, 9));
    }
}
