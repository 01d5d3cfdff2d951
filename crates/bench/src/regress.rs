//! Perf-regression gate: diffs freshly produced `BENCH_*.json` artifacts
//! against committed baselines under noise-aware tolerances.
//!
//! The bench harnesses emit two very different kinds of numbers, and the
//! gate treats them accordingly:
//!
//! * **Deterministic metrics** — modeled seconds, triangle counts, message
//!   totals. Pure functions of the counters and the cost model: identical
//!   across hosts at the same scale, so they get a *tight* fractional
//!   tolerance and any drift (either direction) fails the gate. These are
//!   the gate's teeth.
//! * **Measured metrics** — wall seconds, measured speedups. Properties of
//!   the host du jour, so they get a *loose* factor tolerance that only
//!   catches catastrophic regressions; CI widens it further for shared
//!   runners.
//!
//! The JSON is parsed by the self-contained flattener below (the workspace
//! builds without registry access — no serde): nested objects flatten to
//! `a/b/c` keys, numeric leaves are compared, string leaves (notably
//! `"scale"`) must match exactly.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// How a metric key is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyClass {
    /// Pure function of counters/cost model: tight tolerance, both
    /// directions.
    Deterministic,
    /// Measured time (wall seconds): loose factor tolerance, only growth
    /// fails.
    LowerIsBetter,
    /// Measured speedup/rate: loose factor tolerance, only shrinkage
    /// fails.
    HigherIsBetter,
}

/// Key families that `push_seconds` emits without any `wall`/`seconds`
/// marker in the label — measured kernel timings by construction.
const MEASURED_TIME_MARKERS: &[&str] = &[
    "wall",
    "seconds",
    "nanos",
    "latency",
    "_p50",
    "_p99",
    "seq/",
    "intersect/",
    "preprocess/",
    "amq/",
    "kernel_matrix/",
    "dist_e2e/",
    "local_pass/",
];

/// Classifies a flattened metric key by naming convention.
pub fn classify(key: &str) -> KeyClass {
    let k = key.to_ascii_lowercase();
    if k.contains("modeled") {
        KeyClass::Deterministic
    } else if k.contains("speedup") || k.contains("rate") || k.contains("per_second") {
        KeyClass::HigherIsBetter
    } else if MEASURED_TIME_MARKERS.iter().any(|m| k.contains(m)) {
        KeyClass::LowerIsBetter
    } else {
        KeyClass::Deterministic
    }
}

/// Comparison tolerances. Defaults suit a quiet local machine; CI loosens
/// the measured factors for shared runners.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Fractional tolerance for deterministic metrics (relative drift
    /// beyond this fails, both directions).
    pub det_frac: f64,
    /// Factor by which a measured lower-is-better metric may grow.
    pub wall_factor: f64,
    /// Factor by which a measured higher-is-better metric may shrink.
    pub better_factor: f64,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances {
            det_frac: 0.10,
            wall_factor: 4.0,
            better_factor: 4.0,
        }
    }
}

/// Severity of a [`Finding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the gate.
    Fail,
    /// Informational only (improvements, new keys).
    Note,
}

/// One comparison outcome worth reporting.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Artifact file name (`BENCH_<name>.json`).
    pub file: String,
    /// Flattened metric key (empty for file-level findings).
    pub key: String,
    /// Whether this finding fails the gate.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Fail => "FAIL",
            Severity::Note => "note",
        };
        if self.key.is_empty() {
            write!(f, "[{tag}] {}: {}", self.file, self.message)
        } else {
            write!(f, "[{tag}] {}: {}: {}", self.file, self.key, self.message)
        }
    }
}

/// A flattened benchmark artifact: numeric leaves plus string leaves.
#[derive(Debug, Default, Clone)]
pub struct FlatReport {
    /// `a/b/c`-flattened numeric leaves.
    pub numbers: BTreeMap<String, f64>,
    /// `a/b/c`-flattened string leaves (e.g. `scale`).
    pub strings: BTreeMap<String, String>,
}

/// Parses a `BENCH_*.json` document into a [`FlatReport`]. Tolerant of any
/// JSON shape the harnesses emit; rejects malformed documents.
pub fn flatten_json(text: &str) -> Result<FlatReport, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let mut out = FlatReport::default();
    p.skip_ws();
    p.value("", &mut out)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(out)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            // \uXXXX — decode the BMP scalar, enough for
                            // the ASCII keys the harnesses emit
                            if self.i + 4 >= self.b.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            s.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.i += 4;
                        }
                        Some(c) => s.push(c as char),
                        None => return Err("unterminated escape".to_string()),
                    }
                    self.i += 1;
                }
                Some(c) => {
                    // multi-byte UTF-8 passes through byte by byte; keys
                    // are ASCII in practice
                    s.push(c as char);
                    self.i += 1;
                }
            }
        }
    }

    fn join(prefix: &str, key: &str) -> String {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}/{key}")
        }
    }

    fn value(&mut self, prefix: &str, out: &mut FlatReport) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.i += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.value(&Self::join(prefix, &k), out)?;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(());
                }
                let mut idx = 0usize;
                loop {
                    self.value(&Self::join(prefix, &idx.to_string()), out)?;
                    idx += 1;
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                let s = self.string()?;
                out.strings.insert(prefix.to_string(), s);
                Ok(())
            }
            Some(b't') => self.literal("true", prefix, out, 1.0),
            Some(b'f') => self.literal("false", prefix, out, 0.0),
            Some(b'n') => {
                if self.b[self.i..].starts_with(b"null") {
                    self.i += 4;
                    Ok(())
                } else {
                    Err(format!("bad literal at offset {}", self.i))
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self
                    .peek()
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(&c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i])
                    .map_err(|_| "bad number".to_string())?;
                let v: f64 = text
                    .parse()
                    .map_err(|_| format!("bad number '{text}' at offset {start}"))?;
                out.numbers.insert(prefix.to_string(), v);
                Ok(())
            }
            _ => Err(format!("unexpected byte at offset {}", self.i)),
        }
    }

    fn literal(
        &mut self,
        word: &str,
        prefix: &str,
        out: &mut FlatReport,
        v: f64,
    ) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            out.numbers.insert(prefix.to_string(), v);
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }
}

/// Compares one fresh artifact against its baseline.
pub fn diff_reports(
    file: &str,
    baseline: &FlatReport,
    fresh: &FlatReport,
    tol: &Tolerances,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let push = |f: &mut Vec<Finding>, key: &str, severity, message| {
        f.push(Finding {
            file: file.to_string(),
            key: key.to_string(),
            severity,
            message,
        });
    };

    // scale (and any other string metadata) must match: comparing a quick
    // baseline against a full fresh run is meaningless.
    for (k, base) in &baseline.strings {
        match fresh.strings.get(k) {
            Some(now) if now == base => {}
            Some(now) => push(
                &mut findings,
                k,
                Severity::Fail,
                format!("metadata changed: baseline \"{base}\", fresh \"{now}\""),
            ),
            None => push(
                &mut findings,
                k,
                Severity::Fail,
                format!("metadata missing from fresh artifact (baseline \"{base}\")"),
            ),
        }
    }

    for (k, &base) in &baseline.numbers {
        let Some(&now) = fresh.numbers.get(k) else {
            push(
                &mut findings,
                k,
                Severity::Fail,
                format!("metric missing from fresh artifact (baseline {base})"),
            );
            continue;
        };
        match classify(k) {
            KeyClass::Deterministic => {
                let denom = base.abs().max(1e-12);
                let drift = (now - base).abs() / denom;
                if drift > tol.det_frac {
                    push(
                        &mut findings,
                        k,
                        Severity::Fail,
                        format!(
                            "deterministic metric drifted {:.1}% (baseline {base}, fresh {now}, tolerance {:.1}%)",
                            drift * 100.0,
                            tol.det_frac * 100.0
                        ),
                    );
                }
            }
            KeyClass::LowerIsBetter => {
                if base > 0.0 && now > base * tol.wall_factor {
                    push(
                        &mut findings,
                        k,
                        Severity::Fail,
                        format!(
                            "measured time regressed {:.2}x (baseline {base}, fresh {now}, tolerance {:.1}x)",
                            now / base,
                            tol.wall_factor
                        ),
                    );
                } else if base > 0.0 && now < base / tol.wall_factor {
                    push(
                        &mut findings,
                        k,
                        Severity::Note,
                        format!("improved {:.2}x (baseline {base}, fresh {now})", base / now),
                    );
                }
            }
            KeyClass::HigherIsBetter => {
                if base > 0.0 && now < base / tol.better_factor {
                    push(
                        &mut findings,
                        k,
                        Severity::Fail,
                        format!(
                            "measured gain regressed to {:.2}x of baseline (baseline {base}, fresh {now}, tolerance {:.1}x)",
                            now / base,
                            tol.better_factor
                        ),
                    );
                }
            }
        }
    }

    for k in fresh.numbers.keys() {
        if !baseline.numbers.contains_key(k) {
            push(
                &mut findings,
                k,
                Severity::Note,
                "new metric (not in baseline)".to_string(),
            );
        }
    }

    findings
}

/// Diffs every `BENCH_*.json` in `baseline_dir` against its counterpart in
/// `fresh_dir`. A baseline artifact with no fresh counterpart fails;
/// fresh artifacts with no baseline are noted.
pub fn diff_dirs(
    baseline_dir: &Path,
    fresh_dir: &Path,
    tol: &Tolerances,
) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let entries =
        std::fs::read_dir(baseline_dir).map_err(|e| format!("{}: {e}", baseline_dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines in {}",
            baseline_dir.display()
        ));
    }
    for name in &names {
        let base_text =
            std::fs::read_to_string(baseline_dir.join(name)).map_err(|e| format!("{name}: {e}"))?;
        let baseline = flatten_json(&base_text).map_err(|e| format!("{name} (baseline): {e}"))?;
        let fresh_path = fresh_dir.join(name);
        let fresh_text = match std::fs::read_to_string(&fresh_path) {
            Ok(t) => t,
            Err(_) => {
                findings.push(Finding {
                    file: name.clone(),
                    key: String::new(),
                    severity: Severity::Fail,
                    message: format!("fresh artifact missing ({})", fresh_path.display()),
                });
                continue;
            }
        };
        let fresh = flatten_json(&fresh_text).map_err(|e| format!("{name} (fresh): {e}"))?;
        findings.extend(diff_reports(name, &baseline, &fresh, tol));
    }
    Ok(findings)
}

/// Whether any finding fails the gate.
pub fn has_failures(findings: &[Finding]) -> bool {
    findings.iter().any(|f| f.severity == Severity::Fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(modeled: f64, wall: f64, speedup: f64) -> FlatReport {
        flatten_json(&format!(
            "{{\"benchmark\":\"transport\",\"scale\":\"quick\",\"results\":{{\
             \"transport/p4_modeled_seconds\":{modeled},\
             \"transport/p4_threads_wall_seconds\":{wall},\
             \"transport/measured_speedup_1_to_4\":{speedup},\
             \"transport/triangles\":42}}}}"
        ))
        .expect("well-formed artifact")
    }

    #[test]
    fn flattener_handles_nesting_and_types() {
        let flat = flatten_json(
            "{\"a\":{\"b\":[1,2.5,{\"c\":true}]},\"s\":\"x\",\"n\":null,\"neg\":-3e-2}",
        )
        .expect("parse");
        assert_eq!(flat.numbers["a/b/0"], 1.0);
        assert_eq!(flat.numbers["a/b/1"], 2.5);
        assert_eq!(flat.numbers["a/b/2/c"], 1.0);
        assert_eq!(flat.strings["s"], "x");
        assert_eq!(flat.numbers["neg"], -0.03);
        assert!(!flat.numbers.contains_key("n"));
        assert!(flatten_json("{\"a\":}").is_err());
        assert!(flatten_json("{\"a\":1} trailing").is_err());
    }

    #[test]
    fn key_classification() {
        assert_eq!(
            classify("transport/p4_modeled_seconds"),
            KeyClass::Deterministic
        );
        assert_eq!(
            classify("transport/p4_threads_wall_seconds"),
            KeyClass::LowerIsBetter
        );
        assert_eq!(
            classify("seq/compact_forward/rmat12"),
            KeyClass::LowerIsBetter
        );
        assert_eq!(
            classify("local_pass/rmat/ns_per_op"),
            KeyClass::LowerIsBetter
        );
        assert_eq!(
            classify("speedup_vs_merge/skewed/t64/auto"),
            KeyClass::HigherIsBetter
        );
        assert_eq!(classify("engine/stats/runs_total"), KeyClass::Deterministic);
    }

    #[test]
    fn identical_artifacts_pass() {
        let a = artifact(0.5, 1.0, 2.0);
        let findings = diff_reports("BENCH_transport.json", &a, &a, &Tolerances::default());
        assert!(!has_failures(&findings), "{findings:?}");
    }

    #[test]
    fn injected_modeled_regression_fails() {
        let base = artifact(0.5, 1.0, 2.0);
        let bad = artifact(1.0, 1.0, 2.0); // 2x on a deterministic metric
        let findings = diff_reports("BENCH_transport.json", &base, &bad, &Tolerances::default());
        assert!(has_failures(&findings), "{findings:?}");
        assert!(findings.iter().any(
            |f| f.key == "results/transport/p4_modeled_seconds" && f.severity == Severity::Fail
        ));
    }

    #[test]
    fn wall_noise_tolerated_but_blowup_fails() {
        let base = artifact(0.5, 1.0, 2.0);
        let noisy = artifact(0.5, 2.5, 2.0); // 2.5x wall: inside 4x factor
        let findings = diff_reports("t", &base, &noisy, &Tolerances::default());
        assert!(!has_failures(&findings), "{findings:?}");
        let blowup = artifact(0.5, 8.0, 2.0); // 8x wall: outside
        let findings = diff_reports("t", &base, &blowup, &Tolerances::default());
        assert!(has_failures(&findings), "{findings:?}");
    }

    #[test]
    fn speedup_collapse_fails_and_missing_metric_fails() {
        let base = artifact(0.5, 1.0, 2.0);
        let collapsed = artifact(0.5, 1.0, 0.2); // 10x slower speedup
        let findings = diff_reports("t", &base, &collapsed, &Tolerances::default());
        assert!(has_failures(&findings), "{findings:?}");

        let mut gone = artifact(0.5, 1.0, 2.0);
        gone.numbers.remove("results/transport/triangles");
        let findings = diff_reports("t", &base, &gone, &Tolerances::default());
        assert!(has_failures(&findings), "{findings:?}");
    }

    #[test]
    fn scale_mismatch_fails() {
        let base = artifact(0.5, 1.0, 2.0);
        let mut other = artifact(0.5, 1.0, 2.0);
        other
            .strings
            .insert("scale".to_string(), "full".to_string());
        let findings = diff_reports("t", &base, &other, &Tolerances::default());
        assert!(has_failures(&findings), "{findings:?}");
    }

    #[test]
    fn dir_diff_and_synthetic_injection_end_to_end() {
        let tmp =
            std::env::temp_dir().join(format!("tricount-regress-test-{}", std::process::id()));
        let baseline_dir = tmp.join("baseline");
        let fresh_dir = tmp.join("fresh");
        std::fs::create_dir_all(&baseline_dir).expect("mkdir");
        std::fs::create_dir_all(&fresh_dir).expect("mkdir");
        let doc = "{\"benchmark\":\"kernels\",\"scale\":\"quick\",\"results\":{\
                   \"kernels/modeled_total\":0.25,\"seq/a\":0.001}}";
        std::fs::write(baseline_dir.join("BENCH_kernels.json"), doc).expect("write");
        std::fs::write(fresh_dir.join("BENCH_kernels.json"), doc).expect("write");
        let findings = diff_dirs(&baseline_dir, &fresh_dir, &Tolerances::default()).expect("diff");
        assert!(!has_failures(&findings));

        // inject a synthetic 2x regression on the deterministic metric
        let bad = doc.replace("0.25", "0.5");
        std::fs::write(fresh_dir.join("BENCH_kernels.json"), bad).expect("write");
        let findings = diff_dirs(&baseline_dir, &fresh_dir, &Tolerances::default()).expect("diff");
        assert!(has_failures(&findings));

        // a baseline with no fresh counterpart fails
        std::fs::remove_file(fresh_dir.join("BENCH_kernels.json")).expect("rm");
        let findings = diff_dirs(&baseline_dir, &fresh_dir, &Tolerances::default()).expect("diff");
        assert!(has_failures(&findings));
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
