//! Every printed `device` column, pinned to the byte: each tiny `table5`
//! (full-batch, every registry filter), `table10` (mini-batch), `table6`
//! (the message-passing baselines on both backends and the two graph
//! transformers) and `fig6` (the link head) cell, at the bench shape
//! (hidden 64, K = 10) on `flickr` and `cora` and at hidden 16, K = 3 on
//! `cora`. The values were recorded from the per-step walk over the
//! training tape that the device formula (`sgnn_train::memory::device`)
//! replaced; epochs do not move a step's peak, so one epoch is enough.

use std::path::PathBuf;
use std::process::Command;

use sgnn_obs::json::{self, Value};

/// A run's row-key prefix and its flags beside `--scale tiny --seeds 1
/// --epochs 1 --json`.
type Run<'a> = (&'a str, &'a [&'a str]);

const BENCH: &[&str] = &["--datasets", "flickr,cora"];
const SMALL: &[&str] = &["--datasets", "cora", "--hidden", "16", "--hops", "3"];

/// Runs `target` once per run and returns every row as `(key, device)`:
/// the run's prefix, then the row's text cells in column order.
fn device_column(target: &str, runs: &[Run<'_>]) -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for (i, (prefix, flags)) in runs.iter().enumerate() {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "sgnn_device_golden_{target}_{i}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .arg(target)
            .args(["--scale", "tiny", "--seeds", "1", "--epochs", "1", "--json"])
            .args(*flags)
            .current_dir(&dir)
            .env_remove("SGNN_TRACE")
            .output()
            .expect("spawn experiments");
        assert!(
            out.status.success(),
            "{target} {flags:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(dir.join(format!("results/{target}.json"))).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let Value::Arr(table) = json::parse(&text).unwrap() else {
            panic!("{target}: a JSON array of rows");
        };
        for row in &table {
            let Value::Obj(fields) = row else {
                panic!("{target}: a row is an object");
            };
            let mut key = prefix.to_string();
            for (_, v) in fields {
                if let Some(s) = v.as_str() {
                    key.push(' ');
                    key.push_str(s);
                }
            }
            let device = row.get("device_bytes").and_then(Value::as_u64);
            rows.push((key, device.unwrap_or_else(|| panic!("{target}: {row:?}"))));
        }
    }
    rows
}

fn check(target: &str, runs: &[Run<'_>], want: &[(&str, u64)]) {
    let got = device_column(target, runs);
    let want: Vec<(String, u64)> = want.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let moved: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("{} {}: got {} B, pinned {} B", w.0, g.0, g.1, w.1))
        .collect();
    assert!(moved.is_empty(), "{target}:\n{}", moved.join("\n"));
    assert_eq!(got.len(), want.len(), "{target}: row count");
}

#[test]
fn table5_full_batch_device_bytes_are_pinned() {
    check("table5", &[("h64k10", BENCH), ("h16k3", SMALL)], TABLE5);
}

#[test]
fn table10_mini_batch_device_bytes_are_pinned() {
    check("table10", &[("h64k10", BENCH), ("h16k3", SMALL)], TABLE10);
}

#[test]
fn table6_baseline_device_bytes_are_pinned() {
    check("table6", &[("h64k10", BENCH), ("h16k3", SMALL)], TABLE6);
}

#[test]
fn fig6_link_head_device_bytes_are_pinned() {
    let flickr: &[&str] = &["--datasets", "flickr"];
    let cora: &[&str] = &["--datasets", "cora"];
    let runs = [
        ("h64 flickr", flickr),
        ("h64 cora", cora),
        ("h16 cora", SMALL),
    ];
    check("fig6", &runs, FIG6);
}

/// The OOM verdict reads the number the `device` column prints: under a
/// 32 MiB budget the three symbolic filters, whose steps hold 63.10 MiB
/// (Favard), 33.80 MiB (VarLinear) and 33.82 MiB (AdaGNN) on tiny
/// `flickr`, print `(OOM)`, while Chebyshev's 10.85 MiB trains; no
/// printed column exceeds the budget.
#[test]
fn a_step_over_the_budget_prints_oom() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table9", "--scale", "tiny", "--seeds", "1", "--epochs", "1"])
        .args(["--datasets", "flickr", "--device-budget-mb", "32"])
        .env_remove("SGNN_TRACE")
        .output()
        .expect("spawn experiments");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let row = |filter: &str| {
        let prefix = format!("{filter} ");
        let line = text.lines().find(|l| l.starts_with(&prefix));
        line.unwrap_or_else(|| panic!("no {filter} row in\n{text}"))
    };
    for filter in ["Favard", "VarLinear", "AdaGNN"] {
        assert!(row(filter).contains("(OOM)"), "{}", row(filter));
    }
    assert!(
        row("Chebyshev").contains(" 10.85 MiB "),
        "{}",
        row("Chebyshev")
    );
    for line in text.lines() {
        let cells: Vec<&str> = line.split_whitespace().collect();
        if let Some(i) = cells.iter().position(|&c| c == "MiB") {
            let mib: f64 = cells[i - 1].parse().unwrap();
            assert!(mib <= 32.0, "over the budget: {line}");
        }
    }
}

const TABLE5: &[(&str, u64)] = &[
    ("h64k10 Identity flickr FB", 6_256_112),
    ("h64k10 Linear flickr FB", 6_256_112),
    ("h64k10 Impulse flickr FB", 6_256_112),
    ("h64k10 Monomial flickr FB", 6_256_112),
    ("h64k10 PPR flickr FB", 6_256_112),
    ("h64k10 HK flickr FB", 6_256_112),
    ("h64k10 Gaussian flickr FB", 6_256_112),
    ("h64k10 VarLinear flickr FB", 35_440_432),
    ("h64k10 VarMonomial flickr FB", 11_376_376),
    ("h64k10 Horner flickr FB", 11_376_376),
    ("h64k10 Chebyshev flickr FB", 11_376_376),
    ("h64k10 Clenshaw flickr FB", 11_376_376),
    ("h64k10 ChebInterp flickr FB", 11_376_376),
    ("h64k10 Bernstein flickr FB", 11_376_376),
    ("h64k10 Legendre flickr FB", 11_376_376),
    ("h64k10 Jacobi flickr FB", 11_376_376),
    ("h64k10 Favard flickr FB", 66_161_216),
    ("h64k10 OptBasis flickr FB", 11_393_008),
    ("h64k10 AdaGNN flickr FB", 35_460_592),
    ("h64k10 FBGNNI flickr FB", 6_768_160),
    ("h64k10 FBGNNII flickr FB", 17_008_688),
    ("h64k10 ACMGNNI flickr FB", 7_280_184),
    ("h64k10 ACMGNNII flickr FB", 19_590_168),
    ("h64k10 FAGNN flickr FB", 6_768_160),
    ("h64k10 G2CN flickr FB", 6_768_160),
    ("h64k10 GNN-LF/HF flickr FB", 6_768_160),
    ("h64k10 FiGURe flickr FB", 23_153_024),
    ("h64k10 Identity cora FB", 6_159_568),
    ("h64k10 Linear cora FB", 6_159_568),
    ("h64k10 Impulse cora FB", 6_159_568),
    ("h64k10 Monomial cora FB", 6_159_568),
    ("h64k10 PPR cora FB", 6_159_568),
    ("h64k10 HK cora FB", 6_159_568),
    ("h64k10 Gaussian cora FB", 6_159_568),
    ("h64k10 VarLinear cora FB", 35_343_888),
    ("h64k10 VarMonomial cora FB", 11_279_832),
    ("h64k10 Horner cora FB", 11_279_832),
    ("h64k10 Chebyshev cora FB", 11_279_832),
    ("h64k10 Clenshaw cora FB", 11_279_832),
    ("h64k10 ChebInterp cora FB", 11_279_832),
    ("h64k10 Bernstein cora FB", 11_279_832),
    ("h64k10 Legendre cora FB", 11_279_832),
    ("h64k10 Jacobi cora FB", 11_279_832),
    ("h64k10 Favard cora FB", 66_064_672),
    ("h64k10 OptBasis cora FB", 11_296_464),
    ("h64k10 AdaGNN cora FB", 35_364_048),
    ("h64k10 FBGNNI cora FB", 6_671_616),
    ("h64k10 FBGNNII cora FB", 16_912_144),
    ("h64k10 ACMGNNI cora FB", 7_183_640),
    ("h64k10 ACMGNNII cora FB", 19_493_624),
    ("h64k10 FAGNN cora FB", 6_671_616),
    ("h64k10 G2CN cora FB", 6_671_616),
    ("h64k10 GNN-LF/HF cora FB", 6_671_616),
    ("h64k10 FiGURe cora FB", 23_056_480),
    ("h16k3 Identity cora FB", 2_620_624),
    ("h16k3 Linear cora FB", 2_620_624),
    ("h16k3 Impulse cora FB", 2_620_624),
    ("h16k3 Monomial cora FB", 2_620_624),
    ("h16k3 PPR cora FB", 2_620_624),
    ("h16k3 HK cora FB", 2_620_624),
    ("h16k3 Gaussian cora FB", 2_620_624),
    ("h16k3 VarLinear cora FB", 4_540_720),
    ("h16k3 VarMonomial cora FB", 3_004_720),
    ("h16k3 Horner cora FB", 3_004_720),
    ("h16k3 Chebyshev cora FB", 3_004_720),
    ("h16k3 Clenshaw cora FB", 3_004_720),
    ("h16k3 ChebInterp cora FB", 3_004_720),
    ("h16k3 Bernstein cora FB", 3_004_720),
    ("h16k3 Legendre cora FB", 3_004_720),
    ("h16k3 Jacobi cora FB", 3_004_720),
    ("h16k3 Favard cora FB", 6_845_000),
    ("h16k3 OptBasis cora FB", 3_006_160),
    ("h16k3 AdaGNN cora FB", 4_542_160),
    ("h16k3 FBGNNI cora FB", 2_748_672),
    ("h16k3 FBGNNII cora FB", 3_516_864),
    ("h16k3 ACMGNNI cora FB", 2_876_696),
    ("h16k3 ACMGNNII cora FB", 4_162_216),
    ("h16k3 FAGNN cora FB", 2_748_672),
    ("h16k3 G2CN cora FB", 2_748_672),
    ("h16k3 GNN-LF/HF cora FB", 2_748_672),
    ("h16k3 FiGURe cora FB", 4_157_032),
];

const TABLE10: &[(&str, u64)] = &[
    ("h64k10 Identity flickr MB", 3_971_600),
    ("h64k10 Linear flickr MB", 3_971_600),
    ("h64k10 Impulse flickr MB", 3_971_600),
    ("h64k10 Monomial flickr MB", 3_971_600),
    ("h64k10 PPR flickr MB", 3_971_600),
    ("h64k10 HK flickr MB", 3_971_600),
    ("h64k10 Gaussian flickr MB", 3_971_600),
    ("h64k10 VarLinear flickr MB", 3_971_760),
    ("h64k10 VarMonomial flickr MB", 7_664_404),
    ("h64k10 Horner flickr MB", 7_664_404),
    ("h64k10 Chebyshev flickr MB", 7_664_404),
    ("h64k10 Clenshaw flickr MB", 7_664_404),
    ("h64k10 ChebInterp flickr MB", 7_664_976),
    ("h64k10 Bernstein flickr MB", 7_664_404),
    ("h64k10 Legendre flickr MB", 7_664_404),
    ("h64k10 Jacobi flickr MB", 7_664_404),
    ("h64k10 OptBasis flickr MB", 19_995_148),
    ("h64k10 FAGNN flickr MB", 4_894_784),
    ("h64k10 G2CN flickr MB", 4_894_784),
    ("h64k10 GNN-LF/HF flickr MB", 4_894_784),
    ("h64k10 FiGURe flickr MB", 16_588_696),
    ("h64k10 Identity cora MB", 3_971_600),
    ("h64k10 Linear cora MB", 3_971_600),
    ("h64k10 Impulse cora MB", 3_971_600),
    ("h64k10 Monomial cora MB", 3_971_600),
    ("h64k10 PPR cora MB", 3_971_600),
    ("h64k10 HK cora MB", 3_971_600),
    ("h64k10 Gaussian cora MB", 3_971_600),
    ("h64k10 VarLinear cora MB", 3_971_760),
    ("h64k10 VarMonomial cora MB", 7_664_404),
    ("h64k10 Horner cora MB", 7_664_404),
    ("h64k10 Chebyshev cora MB", 7_664_404),
    ("h64k10 Clenshaw cora MB", 7_664_404),
    ("h64k10 ChebInterp cora MB", 7_664_976),
    ("h64k10 Bernstein cora MB", 7_664_404),
    ("h64k10 Legendre cora MB", 7_664_404),
    ("h64k10 Jacobi cora MB", 7_664_404),
    ("h64k10 OptBasis cora MB", 19_995_148),
    ("h64k10 FAGNN cora MB", 4_894_784),
    ("h64k10 G2CN cora MB", 4_894_784),
    ("h64k10 GNN-LF/HF cora MB", 4_894_784),
    ("h64k10 FiGURe cora MB", 16_588_696),
    ("h16k3 Identity cora MB", 1_811_600),
    ("h16k3 Linear cora MB", 1_811_600),
    ("h16k3 Impulse cora MB", 1_811_600),
    ("h16k3 Monomial cora MB", 1_811_600),
    ("h16k3 PPR cora MB", 1_811_600),
    ("h16k3 HK cora MB", 1_811_600),
    ("h16k3 Gaussian cora MB", 1_811_600),
    ("h16k3 VarLinear cora MB", 1_811_648),
    ("h16k3 VarMonomial cora MB", 3_350_252),
    ("h16k3 Horner cora MB", 3_350_252),
    ("h16k3 Chebyshev cora MB", 3_350_252),
    ("h16k3 Clenshaw cora MB", 3_350_252),
    ("h16k3 ChebInterp cora MB", 3_350_348),
    ("h16k3 Bernstein cora MB", 3_350_252),
    ("h16k3 Legendre cora MB", 3_350_252),
    ("h16k3 Jacobi cora MB", 3_350_252),
    ("h16k3 OptBasis cora MB", 7_050_892),
    ("h16k3 FAGNN cora MB", 2_734_784),
    ("h16k3 G2CN cora MB", 2_734_784),
    ("h16k3 GNN-LF/HF cora MB", 2_734_784),
    ("h16k3 FiGURe cora MB", 7_966_240),
];

const TABLE6: &[(&str, u64)] = &[
    ("h64k10 GCN SP flickr", 6_256_112),
    ("h64k10 GraphSAGE SP flickr", 9_437_168),
    ("h64k10 GCN EI flickr", 12_030_440),
    ("h64k10 GraphSAGE EI flickr", 15_211_496),
    ("h64k10 ChebNet EI flickr", 19_928_552),
    ("h64k10 NAGphormer - flickr", 33_527_384),
    ("h64k10 GT-sample - flickr", 13_198_872),
    ("h64k10 GCN SP cora", 6_159_568),
    ("h64k10 GraphSAGE SP cora", 9_340_624),
    ("h64k10 GCN EI cora", 8_699_672),
    ("h64k10 GraphSAGE EI cora", 11_880_728),
    ("h64k10 ChebNet EI cora", 16_597_784),
    ("h64k10 NAGphormer - cora", 33_527_384),
    ("h64k10 GT-sample - cora", 13_198_872),
    ("h16k3 GCN SP cora", 3_004_624),
    ("h16k3 GraphSAGE SP cora", 4_567_888),
    ("h16k3 GCN EI cora", 3_724_952),
    ("h16k3 GraphSAGE EI cora", 5_288_216),
    ("h16k3 ChebNet EI cora", 7_619_480),
    ("h16k3 NAGphormer - cora", 5_247_560),
    ("h16k3 GT-sample - cora", 6_993_432),
];

const FIG6: &[(&str, u64)] = &[
    ("h64 flickr Identity", 12_766_240),
    ("h64 flickr Linear", 12_766_240),
    ("h64 flickr Impulse", 12_766_240),
    ("h64 flickr PPR", 12_766_240),
    ("h64 flickr Monomial", 12_766_240),
    ("h64 flickr VarMonomial", 12_766_240),
    ("h64 flickr Chebyshev", 12_766_240),
    ("h64 flickr Jacobi", 12_766_240),
    ("h64 flickr FAGNN", 12_766_240),
    ("h64 flickr FiGURe", 12_766_240),
    ("h64 cora Identity", 12_766_240),
    ("h64 cora Linear", 12_766_240),
    ("h64 cora Impulse", 12_766_240),
    ("h64 cora PPR", 12_766_240),
    ("h64 cora Monomial", 12_766_240),
    ("h64 cora VarMonomial", 12_766_240),
    ("h64 cora Chebyshev", 12_766_240),
    ("h64 cora Jacobi", 12_766_240),
    ("h64 cora FAGNN", 12_766_240),
    ("h64 cora FiGURe", 12_766_240),
    ("h16 cora Identity", 5_612_320),
    ("h16 cora Linear", 5_612_320),
    ("h16 cora Impulse", 5_612_320),
    ("h16 cora PPR", 5_612_320),
    ("h16 cora Monomial", 5_612_320),
    ("h16 cora VarMonomial", 5_612_320),
    ("h16 cora Chebyshev", 5_612_320),
    ("h16 cora Jacobi", 5_612_320),
    ("h16 cora FAGNN", 5_612_320),
    ("h16 cora FiGURe", 5_612_320),
];
