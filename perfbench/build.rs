//! Records the compiler and the commit in the binary, for the `env`
//! line of every run. Outside a git checkout the commit reads "unknown".

use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = first_line(Command::new(rustc).arg("--version"));
    let commit = first_line(Command::new("git").args(["rev-parse", "--short", "HEAD"]));
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.as_deref().unwrap_or("unknown")
    );
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit.as_deref().unwrap_or("unknown")
    );
    println!("cargo:rerun-if-changed=build.rs");
}
