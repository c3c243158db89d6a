//! The correctness gate's bookkeeping: canonical result digests, the
//! committed golden digests, and the tally of failed checks.
//!
//! A digest is `fnv128` over the canonical JSON of each cell's result, one
//! line per cell in input order. Each workload digests the prefix of its
//! input stream that every run completes regardless of machine speed, so
//! the digest for a seed is the same on every machine.

use serde::Serialize;
use serde_json::Value;
use stash::store::{fnv128, key_hex};

/// Golden digests for the seeds recorded in `golden.json`.
const GOLDEN: &str = include_str!("../golden.json");

/// Running digest over canonical per-cell results.
#[derive(Debug, Default)]
pub struct Digest {
    text: String,
}

impl Digest {
    /// Adds one cell's result.
    pub fn add(&mut self, result: &impl Serialize) {
        self.text.push_str(&canonical(result));
        self.text.push('\n');
    }

    /// The digest as 32 hex digits.
    pub fn hex(&self) -> String {
        key_hex(fnv128(self.text.as_bytes()))
    }
}

/// The canonical (field-ordered, compact) JSON of a result.
fn canonical(result: &impl Serialize) -> String {
    serde_json::to_string(result).unwrap_or_default()
}

/// The golden digest for `workload` at `seed`, when one is recorded for
/// that seed and input scale.
pub fn golden(doc: &str, smoke: bool, seed: u64, workload: &str) -> Option<String> {
    let v: Value = serde_json::from_str(doc).ok()?;
    let scale = if smoke { "smoke" } else { "full" };
    v.get("digests")?
        .get(scale)?
        .get(&seed.to_string())?
        .get(workload)?
        .as_str()
        .map(str::to_string)
}

/// Failed checks, each with a one-line reason.
#[derive(Debug, Default)]
pub struct Checks {
    /// Human-readable reasons, one per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records a failed check when `ok` is false.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Compares `digest` with the golden digest for this run, if any.
    pub fn golden(&mut self, smoke: bool, seed: u64, workload: &str, digest: &Digest) {
        self.golden_in(GOLDEN, smoke, seed, workload, &digest.hex());
    }

    fn golden_in(&mut self, doc: &str, smoke: bool, seed: u64, workload: &str, got: &str) {
        if let Some(want) = golden(doc, smoke, seed, workload) {
            self.expect(want == got, || {
                format!("{workload}: result digest {got} differs from golden {want}")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str =
        r#"{"digests": {"full": {"1": {"grid": "00000000000000000000000000000abc"}}}}"#;

    #[test]
    fn golden_lookup_is_per_scale_seed_and_workload() {
        assert_eq!(
            golden(DOC, false, 1, "grid").as_deref(),
            Some("00000000000000000000000000000abc")
        );
        assert_eq!(golden(DOC, true, 1, "grid"), None);
        assert_eq!(golden(DOC, false, 2, "grid"), None);
        assert_eq!(golden(DOC, false, 1, "chaos"), None);
        assert_eq!(golden("not json", false, 1, "grid"), None);
    }

    #[test]
    fn doctored_digest_is_caught() {
        let mut checks = Checks::default();
        checks.golden_in(DOC, false, 1, "grid", "00000000000000000000000000000abc");
        assert!(checks.failures.is_empty());
        checks.golden_in(DOC, false, 1, "grid", "00000000000000000000000000000abd");
        assert_eq!(checks.failures.len(), 1);
        assert!(checks.failures[0].contains("differs from golden"));
    }

    #[test]
    fn digest_depends_on_every_result_and_their_order() {
        let digest = |xs: &[u64]| {
            let mut d = Digest::default();
            xs.iter().for_each(|x| d.add(x));
            d.hex()
        };
        assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[1, 2]), digest(&[1, 3]));
    }

    #[test]
    fn committed_golden_file_parses() {
        let v: Value = serde_json::from_str(GOLDEN).expect("golden.json is JSON");
        assert!(v.get("digests").is_some());
    }
}
