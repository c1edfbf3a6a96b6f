//! Where and how a result was measured, and the guard rails that refuse
//! a run whose numbers could not be compared.

use pbg_tensor::kernels::dispatch;
use serde_json::Value;
use std::process::Command;

/// Refuses runs that cannot be compared with a baseline: a debug build,
/// or a kernel variant forced through `PBG_KERNEL`.
pub fn guard_rails() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure a debug build: run with `cargo run --release`".to_string(),
        );
    }
    if let Ok(forced) = std::env::var("PBG_KERNEL") {
        return Err(format!(
            "refusing to measure with PBG_KERNEL={forced} forced: unset it so the default dispatch is measured"
        ));
    }
    Ok(())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_info() -> (String, Vec<String>) {
    let text = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    // the SIMD flags the kernels dispatch on, not all ~100 of them
    let wanted = ["sse2", "avx", "avx2", "fma", "avx512f"];
    let flags = field("flags")
        .split_whitespace()
        .filter(|f| wanted.contains(f))
        .map(str::to_string)
        .collect();
    (field("model name"), flags)
}

/// The envelope every result file carries.
pub fn envelope(seed: u64) -> Value {
    let (cpu_model, cpu_flags) = cpu_info();
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_default();
    // the driver's checkout is not a git repository: the rev is then unknown
    let git_rev = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let git_dirty = command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    Value::Map(vec![
        ("host".into(), Value::Str(host)),
        ("nproc".into(), Value::U64(nproc() as u64)),
        ("cpu_model".into(), Value::Str(cpu_model)),
        (
            "cpu_flags".into(),
            Value::Seq(cpu_flags.into_iter().map(Value::Str).collect()),
        ),
        (
            "kernel_dispatch".into(),
            Value::Str(dispatch::active().name().to_string()),
        ),
        (
            "PBG_KERNEL".into(),
            std::env::var("PBG_KERNEL").map_or(Value::Null, Value::Str),
        ),
        ("git_rev".into(), Value::Str(git_rev)),
        ("git_dirty".into(), Value::Bool(git_dirty)),
        ("rustc".into(), Value::Str(rustc)),
        ("seed".into(), Value::U64(seed)),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}
