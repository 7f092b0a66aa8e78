//! The fault-spec grammar and the armed-plan holder both injection domains
//! (`sgnn_bench::faults` for the cell runner, `sgnn_serve::faults` for the
//! request path) are built on. A spec is a `;`-separated list of clauses,
//! each a kind followed by `key=value` words:
//!
//! ```text
//! slow cell=1 dur=0.25; nan after-epoch=3
//! ```
//!
//! [`parse`] tokenizes; a domain supplies only its clause table — a function
//! from a [`Clause`] to its own fault type that pulls the keys it knows
//! through the typed getters. A key nobody pulled is an error, so a
//! misspelled `cel=1` cannot silently widen a fault to every cell.
//!
//! [`Plan`] holds the installed clauses process-globally. With nothing
//! installed a hook costs one relaxed atomic load and takes no lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One `kind key=value …` clause, its keys consumed as they are read.
pub struct Clause<'a> {
    text: &'a str,
    /// The clause's first word.
    pub kind: &'a str,
    args: Vec<(&'a str, &'a str)>,
}

impl Clause<'_> {
    /// An error naming this clause.
    pub fn error(&self, why: impl std::fmt::Display) -> String {
        format!("`{}`: {why}", self.text)
    }

    fn take<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let Some(at) = self.args.iter().position(|(k, _)| *k == key) else {
            return Ok(None);
        };
        let (_, value) = self.args.remove(at);
        match parse(value) {
            Ok(v) => Ok(Some(v)),
            Err(why) => Err(self.error(format!("{key}: {why}"))),
        }
    }

    fn missing(&self, key: &str) -> String {
        self.error(format!("missing {key}="))
    }

    /// An optional unsigned integer.
    pub fn opt_num(&mut self, key: &str) -> Result<Option<u64>, String> {
        self.take(key, |v| v.parse().map_err(|e| format!("{e}")))
    }

    /// A required unsigned integer.
    pub fn num(&mut self, key: &str) -> Result<u64, String> {
        self.opt_num(key)?.ok_or_else(|| self.missing(key))
    }

    /// An optional duration in (fractional) seconds, finite and `>= 0`.
    pub fn opt_secs(&mut self, key: &str) -> Result<Option<Duration>, String> {
        self.take(key, |v| {
            let s: f64 = v.parse().map_err(|e| format!("{e}"))?;
            Duration::try_from_secs_f64(s).map_err(|_| format!("must be finite and >= 0, got {v}"))
        })
    }

    /// A required duration in seconds.
    pub fn secs(&mut self, key: &str) -> Result<Duration, String> {
        self.opt_secs(key)?.ok_or_else(|| self.missing(key))
    }
}

/// Parses a fault spec: `table` turns each clause into a domain's fault
/// type, and any key it did not consume is rejected. An empty spec is an
/// empty plan.
pub fn parse<T>(
    spec: &str,
    mut table: impl FnMut(&mut Clause) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for text in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
        let mut words = text.split_whitespace();
        let kind = words.next().expect("non-empty clause has a first word");
        let mut clause = Clause {
            text,
            kind,
            args: Vec::new(),
        };
        for word in words {
            let pair = word.split_once('=');
            let pair =
                pair.ok_or_else(|| clause.error(format!("expected key=value, got `{word}`")))?;
            clause.args.push(pair);
        }
        out.push(table(&mut clause)?);
        if let Some((key, _)) = clause.args.first() {
            return Err(clause.error(format!("unknown key `{key}` for `{kind}`")));
        }
    }
    Ok(out)
}

/// A process-global fault plan: declare one as a `static`, [`install`]
/// clauses into it, and read it from hooks through [`with`].
///
/// [`install`]: Plan::install
/// [`with`]: Plan::with
pub struct Plan<T> {
    /// Relaxed: the flag only says whether the mutex is worth taking; the
    /// clauses themselves are published by the mutex.
    armed: AtomicBool,
    clauses: Mutex<Vec<T>>,
}

impl<T> Plan<T> {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        Self {
            armed: AtomicBool::new(false),
            clauses: Mutex::new(Vec::new()),
        }
    }

    fn set(&self, clauses: Vec<T>, armed: bool) {
        // A hook that panicked mid-read leaves the clauses intact.
        *self.clauses.lock().unwrap_or_else(|e| e.into_inner()) = clauses;
        self.armed.store(armed, Ordering::Relaxed);
    }

    /// Arms `clauses`, replacing any previous plan.
    pub fn install(&self, clauses: Vec<T>) {
        self.set(clauses, true);
    }

    /// Disarms: every hook is a no-op again.
    pub fn clear(&self) {
        self.set(Vec::new(), false);
    }

    /// Arms the plan spelled by environment variable `var`, if it is set
    /// and non-blank. `Ok(true)` when a plan was installed.
    pub fn install_from_env(
        &self,
        var: &str,
        parse: impl FnOnce(&str) -> Result<Vec<T>, String>,
    ) -> Result<bool, String> {
        match std::env::var(var) {
            Ok(spec) if !spec.trim().is_empty() => {
                self.install(parse(&spec).map_err(|e| format!("bad {var}: {e}"))?);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Runs `read` over the armed clauses; `None`, without locking, when
    /// nothing is installed. Hooks that sleep or panic should copy out what
    /// they need and act after this returns.
    pub fn with<R>(&self, read: impl FnOnce(&mut Vec<T>) -> R) -> Option<R> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        Some(read(
            &mut self.clauses.lock().unwrap_or_else(|e| e.into_inner()),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(spec: &str) -> Result<Vec<(String, u64, Option<Duration>)>, String> {
        parse(spec, |c| {
            Ok((c.kind.to_string(), c.num("n")?, c.opt_secs("dur")?))
        })
    }

    #[test]
    fn tokenizes_clauses_and_types_their_values() {
        assert_eq!(
            toy(" a n=1 ;; b dur=0.5 n=2;").unwrap(),
            vec![
                ("a".to_string(), 1, None),
                ("b".to_string(), 2, Some(Duration::from_millis(500))),
            ]
        );
        assert!(toy("").unwrap().is_empty());
    }

    #[test]
    fn errors_name_the_clause_and_the_offending_key() {
        let err = |spec: &str| toy(spec).unwrap_err();
        assert!(err("a").contains("missing n="));
        assert!(err("a n").contains("key=value"));
        assert!(err("a n=x").contains("`a n=x`: n:"));
        let e = err("a n=1; b n=2 m=3");
        assert!(
            e.contains("`b n=2 m=3`") && e.contains("unknown key `m`"),
            "{e}"
        );
        for bad in ["-1", "nan", "inf", "1e300"] {
            let e = err(&format!("a n=1 dur={bad}"));
            assert!(e.contains("dur"), "{e}");
        }
    }

    #[test]
    fn a_disarmed_plan_is_never_locked() {
        static PLAN: Plan<u32> = Plan::new();
        assert_eq!(PLAN.with(|_| ()), None);
        // Holding the lock proves `with` does not take it while disarmed.
        let held = PLAN.clauses.lock().unwrap();
        assert_eq!(PLAN.with(|_| ()), None);
        drop(held);
        PLAN.install(vec![7, 8]);
        assert_eq!(PLAN.with(|c| c.remove(0)), Some(7));
        assert_eq!(PLAN.with(|c| c.clone()), Some(vec![8]));
        PLAN.clear();
        assert_eq!(PLAN.with(|c| c.len()), None);
    }
}
