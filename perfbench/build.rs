//! Records the compiler and the commit the benchmark was built from, for the
//! host fingerprint. The driver's checkout is not a git repository, so the
//! commit falls back to "unknown" there.

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = first_line(Command::new(rustc).arg("--version")).unwrap_or("unknown".into());
    let commit = first_line(Command::new("git").args(["rev-parse", "--short=12", "HEAD"]))
        .unwrap_or("unknown".into());
    println!("cargo:rustc-env=SGNN_BENCH_RUSTC={version}");
    println!("cargo:rustc-env=SGNN_BENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
