//! Metric collection, the run manifest, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Record `name`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Names in order.
    pub fn names(&self) -> Vec<&str> {
        self.0.iter().map(|m| m.name.as_str()).collect()
    }
}

/// Counts of checked operations.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation, failed if `failures` is not empty.
    pub fn record(&mut self, what: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        for f in failures {
            self.failures.push(format!("{what}: {f}"));
        }
    }
}

/// Format a float as JSON (non-finite values become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, x) in metrics.0.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&x.name),
            json_num(x.value),
            json_str(x.unit)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        checks.failures.is_empty(),
        checks.attempted.max(1),
        checks.failed
    )
}

/// Reproducibility stamp printed ahead of every result.
pub struct Manifest {
    /// Ordered key/value pairs, values already JSON.
    pub fields: BTreeMap<&'static str, String>,
}

impl Manifest {
    /// Stamp a run of `workload`.
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> Self {
        let mut fields = BTreeMap::new();
        fields.insert("schema", json_str("jl-perfbench-manifest/v1"));
        fields.insert("workload", json_str(workload));
        fields.insert("seed", seed.to_string());
        fields.insert("seconds", seconds.to_string());
        fields.insert("trace", trace.to_string());
        let root = repo_root();
        fields.insert("git_rev", json_str(&git_rev(&root)));
        fields.insert("source_digest", json_str(&source_digest(&root)));
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        fields.insert("nproc", nproc.to_string());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        fields.insert("profile", json_str(profile));
        Manifest { fields }
    }

    /// Add a workload parameter (`value` already JSON).
    pub fn param(&mut self, key: &'static str, value: String) {
        self.fields.insert(key, value);
    }

    /// The manifest as one JSON object.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The repository root this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

/// The commit checked out at `root`, read from `.git` inside it, or
/// `"none"` when the tree is not a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// FNV-1a digest over the program's sources and manifests under `root`
/// (`Cargo.*` and `crates/`), in path order: names the code measured
/// even where the tree carries no git metadata.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for name in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(name));
    }
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let Ok(bytes) = std::fs::read(&f) else {
            continue;
        };
        let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy();
        for b in rel.bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if matches!(
            p.extension().and_then(|x| x.to_str()),
            Some("rs") | Some("toml")
        ) {
            out.push(p);
        }
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
