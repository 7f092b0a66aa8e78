//! Experiment harness: one module per table/figure of the paper.
//!
//! The `experiments` binary dispatches to these modules; each renders a
//! plain-text table mirroring the paper's layout and (optionally) dumps the
//! raw measurements as JSON under `results/`. See DESIGN.md for the full
//! experiment index and EXPERIMENTS.md for the recorded paper-vs-measured
//! comparison.

pub mod exp_ablation;
pub mod exp_fig10;
pub mod exp_fig2;
pub mod exp_fig3;
pub mod exp_fig4;
pub mod exp_fig5;
pub mod exp_fig6;
pub mod exp_fig7;
pub mod exp_fig8;
pub mod exp_fig9;
pub mod exp_oocsr;
pub mod exp_table1;
pub mod exp_table3;
pub mod exp_table5;
pub mod exp_table6;
pub mod exp_table7;
pub mod exp_table9;
pub mod faults;
pub mod flame;
pub mod harness;
pub mod regress;
pub mod runner;
pub mod serve_cli;
pub mod store;
pub mod table;
pub mod trace;

pub use harness::Opts;
