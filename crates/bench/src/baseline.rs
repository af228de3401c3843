//! Baseline load / compare / refresh for experiment regression gates.
//!
//! The experiment binaries record reference numbers (deterministic
//! schedule counts, minimum speedups) in JSON files under
//! `crates/bench/baselines/`. This module owns the three pieces every
//! gate needs, so binaries don't hand-roll them:
//!
//! * [`Baseline::load`] + the extraction helpers — a tiny scanner for
//!   our own JSON emissions (the workspace has no JSON dependency, and
//!   the format is ours).
//! * [`Gate`] — accumulates pass/fail comparisons with uniform
//!   reporting; `regressed()` drives the process exit code.
//! * [`refresh`] — rewrites a baseline file from a freshly measured
//!   summary, preserving the gate thresholds and header comment, so
//!   `--refresh-baseline` replaces hand-editing the JSON.

use std::fmt::Write as _;

/// A loaded baseline file.
pub struct Baseline {
    text: String,
}

impl Baseline {
    /// Reads the baseline at `path`; panics with a clear message on
    /// I/O errors (the gate cannot run without its reference) and
    /// rejects truncated or structurally invalid JSON fail-closed — a
    /// torn write must not silently disable the gates it recorded.
    pub fn load(path: &str) -> Baseline {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        if let Err(why) = structurally_valid_json(&text) {
            panic!("truncated or invalid baseline JSON at {path} (fail-closed): {why}; re-record it with --refresh-baseline");
        }
        Baseline { text }
    }

    /// A baseline over already-loaded text (used by tests).
    pub fn from_text(text: String) -> Baseline {
        Baseline { text }
    }

    /// Extracts a top-level numeric value (e.g. `"min_speedup_8w": 3.0`).
    /// Absent keys return `None` (which disables the associated gate).
    pub fn number(&self, key: &str) -> Option<f64> {
        let needle = format!("\"{key}\":");
        let pos = self.text.find(&needle)?;
        let rest = self.text[pos + needle.len()..].trim_start();
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        num.parse().ok()
    }

    /// Extracts `(workload name, count)` pairs for `key`, matching each
    /// `"name"` to the next occurrence of `key` (the emitter writes them
    /// in that order within each workload object), so gates compare
    /// workloads by name, not by position.
    pub fn workload_counts(&self, key: &str) -> Vec<(String, usize)> {
        let name_key = "\"name\": \"";
        let count_key = format!("\"{key}\":");
        let mut out = Vec::new();
        let mut rest = self.text.as_str();
        while let Some(pos) = rest.find(name_key) {
            rest = &rest[pos + name_key.len()..];
            let Some(end) = rest.find('"') else { break };
            let name = rest[..end].to_string();
            // The key must appear before the next workload object.
            let horizon = rest.find(name_key).unwrap_or(rest.len());
            let Some(pos) = rest[..horizon].find(&count_key) else {
                continue;
            };
            let digits: String = rest[pos + count_key.len()..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let Ok(n) = digits.parse() {
                out.push((name, n));
            }
        }
        out
    }

    /// The recorded count of `key` for one workload.
    pub fn workload_count(&self, name: &str, key: &str) -> Option<usize> {
        self.workload_counts(key)
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
    }
}

/// Accumulates gate comparisons with uniform pass/fail reporting.
#[derive(Default)]
pub struct Gate {
    regressed: bool,
}

impl Gate {
    /// A fresh gate with nothing failed yet.
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Whether any comparison failed.
    pub fn regressed(&self) -> bool {
        self.regressed
    }

    /// Records an unconditional failure (e.g. a workload missing from
    /// the baseline file).
    pub fn fail(&mut self, msg: &str) {
        eprintln!("REGRESSION GATE: {msg}");
        self.regressed = true;
    }

    /// Gates `measured <= recorded` (deterministic counts where any
    /// increase is a regression). `None` means the baseline does not
    /// record the count — that fails too, so refreshes can't silently
    /// drop a gate.
    pub fn count_not_above(&mut self, what: &str, measured: usize, recorded: Option<usize>) {
        match recorded {
            None => self.fail(&format!("{what}: no recorded baseline count")),
            Some(rec) if measured > rec => {
                eprintln!("REGRESSION: {what} measured {measured} > recorded {rec}");
                self.regressed = true;
            }
            Some(rec) => println!("baseline ok: {what} measured {measured} <= recorded {rec}"),
        }
    }

    /// Gates `measured == recorded` (deterministic counts that are exact
    /// by construction, such as the unpruned oracle's full interleaving
    /// count: a change in either direction is a regression). `None`
    /// fails, as for [`Gate::count_not_above`].
    pub fn count_equals(&mut self, what: &str, measured: usize, recorded: Option<usize>) {
        match recorded {
            None => self.fail(&format!("{what}: no recorded baseline count")),
            Some(rec) if measured != rec => {
                eprintln!("REGRESSION: {what} measured {measured} != recorded {rec}");
                self.regressed = true;
            }
            Some(rec) => println!("baseline ok: {what} measured {measured} == recorded {rec}"),
        }
    }

    /// Gates `measured >= min` for a speedup ratio; `None` (absent gate
    /// key) skips silently — speedup floors are opt-in per baseline.
    pub fn speedup_at_least(&mut self, what: &str, measured: f64, min: Option<f64>) {
        let Some(min) = min else { return };
        if measured < min {
            eprintln!("REGRESSION: {what} {measured:.2}x below recorded minimum {min}x");
            self.regressed = true;
        } else {
            println!("baseline ok: {what} {measured:.2}x >= {min}x");
        }
    }

    /// Reports a gate skipped for an environmental reason (not a
    /// failure) — e.g. too few CPUs to measure a scaling point.
    pub fn skip(&mut self, msg: &str) {
        println!("({msg})");
    }
}

/// Checks that `text` is a structurally complete JSON object: it must
/// open with `{`, close with `}`, balance its braces and brackets
/// outside string literals, and terminate every string. This is not a
/// JSON parser (the workspace has none by design) — it is exactly the
/// torn-write detector the scanning extractors above need, since they
/// would otherwise read a truncated file as "gate key absent".
fn structurally_valid_json(text: &str) -> Result<(), String> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err("file is empty".into());
    }
    if !trimmed.starts_with('{') {
        return Err("does not open with `{`".into());
    }
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in trimmed.chars() {
        if in_str {
            match (esc, c) {
                (true, _) => esc = false,
                (false, '\\') => esc = true,
                (false, '"') => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced closing brace".into());
                }
            }
            _ => {}
        }
    }
    if in_str {
        return Err("unterminated string literal".into());
    }
    if depth != 0 {
        return Err(format!("{depth} unclosed brace(s) — truncated write"));
    }
    if !trimmed.ends_with('}') {
        return Err("does not close with `}`".into());
    }
    Ok(())
}

/// Writes `contents` to `path` atomically: a process-unique temp file
/// in the same directory, then a rename over the target — a crash
/// mid-write leaves either the old file or the new one on disk, never
/// a torn mix. This is [`sl_sim::wire::atomic_write`] (the same helper
/// the checkpoint store and the distributed frame protocol publish
/// through), with the gate-appropriate panic-on-error semantics.
pub fn atomic_write(path: &str, contents: &str) {
    sl_sim::wire::atomic_write(std::path::Path::new(path), contents)
        .unwrap_or_else(|e| panic!("baseline write failed (fail-closed): {e}"));
}

/// Rewrites the baseline at `path` from a freshly measured summary:
/// the preserved `comment` and the gate thresholds come first, then
/// every top-level field of `measured_json` (which must be a JSON
/// object — the `--json` emission of the same binary). This is what
/// `--refresh-baseline` runs instead of asking anyone to hand-edit
/// recorded counts.
pub fn refresh(path: &str, comment: &str, gates: &[(&str, f64)], measured_json: &str) {
    let body = measured_json
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or_else(|| panic!("measured summary is not a JSON object"));
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"_comment\": {},", quote(comment));
    for (key, value) in gates {
        let _ = writeln!(out, "  \"{key}\": {value},");
    }
    out.push_str(body.trim_matches('\n'));
    out.push_str("\n}\n");
    atomic_write(path, &out);
    println!("(baseline refreshed at {path})");
}

fn quote(s: &str) -> String {
    format!("\"{}\"", sl_sim::wire::escape_json(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "_comment": "x",
  "min_reuse_speedup": 1.0,
  "workloads": [
    {
      "name": "a",
      "dpor_replayed": 17,
      "value_dpor_replayed": 11
    },
    {
      "name": "b",
      "dpor_replayed": 7228
    }
  ]
}"#;

    #[test]
    fn extracts_numbers_and_counts() {
        let b = Baseline::from_text(SAMPLE.to_string());
        assert_eq!(b.number("min_reuse_speedup"), Some(1.0));
        assert_eq!(b.number("absent"), None);
        assert_eq!(
            b.workload_counts("dpor_replayed"),
            vec![("a".to_string(), 17), ("b".to_string(), 7228)]
        );
        assert_eq!(b.workload_count("a", "value_dpor_replayed"), Some(11));
        // `b` has no value_dpor_replayed: it must not steal a later
        // workload's count (none here) nor misattribute `a`'s.
        assert_eq!(b.workload_count("b", "value_dpor_replayed"), None);
    }

    #[test]
    fn load_rejects_truncated_or_invalid_json_fail_closed() {
        // A torn write of SAMPLE at any cut point must be rejected, not
        // scanned as "every gate key absent".
        assert!(structurally_valid_json(SAMPLE).is_ok());
        for cut in 1..SAMPLE.len() - 1 {
            if !SAMPLE.is_char_boundary(cut) {
                continue;
            }
            let torn = &SAMPLE[..cut];
            assert!(
                structurally_valid_json(torn).is_err(),
                "cut at {cut} accepted: {torn:?}"
            );
        }
        assert!(structurally_valid_json("").is_err(), "empty file");
        assert!(structurally_valid_json("null").is_err(), "not an object");
        assert!(
            structurally_valid_json("{\"a\": 1}}").is_err(),
            "extra brace"
        );
        let dir = std::env::temp_dir().join(format!("sl-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.json");
        std::fs::write(&path, &SAMPLE[..SAMPLE.len() / 2]).unwrap();
        let path_str = path.to_str().unwrap().to_string();
        let err = std::panic::catch_unwind(|| Baseline::load(&path_str))
            .err()
            .expect("torn baseline must fail closed");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("truncated or invalid baseline JSON"),
            "diagnostic must be named: {msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refresh_writes_atomically_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("sl-baseline-rw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        let path_str = path.to_str().unwrap();
        refresh(
            path_str,
            "test",
            &[("min_x", 1.5)],
            "{\n  \"workloads\": []\n}",
        );
        let b = Baseline::load(path_str);
        assert_eq!(b.number("min_x"), Some(1.5));
        // No temp file may survive the rename.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "base.json")
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gate_accumulates_failures() {
        let mut g = Gate::new();
        g.count_not_above("w", 5, Some(5));
        assert!(!g.regressed());
        g.speedup_at_least("s", 2.0, Some(1.5));
        assert!(!g.regressed());
        g.speedup_at_least("s", 1.0, None); // absent gate: skipped
        assert!(!g.regressed());
        g.count_equals("u", 5, Some(5));
        assert!(!g.regressed());
        g.count_not_above("w", 6, Some(5));
        assert!(g.regressed());
        let mut g = Gate::new();
        g.count_equals("u", 4, Some(5));
        assert!(g.regressed(), "an exact count gates in both directions");
        let mut g = Gate::new();
        g.count_equals("u", 5, None);
        assert!(g.regressed(), "an unrecorded exact count fails");
    }
}
