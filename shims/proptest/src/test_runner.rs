//! Case runner: drives a test closure over `Config::cases` deterministic
//! inputs, honoring rejections from `prop_assume!` and panicking with the
//! generating inputs on the first failure (no shrinking).

use std::fmt;

use crate::TestRng;

/// Runner configuration (`ProptestConfig` in the prelude).
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl Config {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Config { cases }
    }
}

impl Default for Config {
    /// 256 cases, or `$PROPTEST_CASES` when set (as upstream proptest does).
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        Config { cases }
    }
}

/// Why a single case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case's precondition failed (`prop_assume!`); try another input.
    Reject(String),
    /// An assertion failed; the whole test fails.
    Fail(String),
}

impl TestCaseError {
    /// A failing case with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejected (discarded) case with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "case rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "case failed: {m}"),
        }
    }
}

/// Run `f` until `config.cases` cases pass. `f` returns the case's
/// `Debug`-formatted inputs plus its outcome; failures panic immediately.
pub fn run_cases<F>(config: Config, test_name: &str, mut f: F)
where
    F: FnMut(&mut TestRng) -> (String, Result<(), TestCaseError>),
{
    let max_attempts = config.cases.saturating_mul(16).max(1024) as u64;
    let mut passed: u32 = 0;
    let mut rejected: u64 = 0;
    let mut attempt: u64 = 0;
    while passed < config.cases {
        attempt += 1;
        if attempt > max_attempts {
            panic!(
                "{test_name}: gave up after {rejected} rejected cases \
                 ({passed}/{} passed)",
                config.cases
            );
        }
        let mut rng = TestRng::for_case(test_name, attempt);
        let (desc, result) = f(&mut rng);
        match result {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => rejected += 1,
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "{test_name}: property failed at case {attempt}\n\
                     minimal failing input (no shrinking): {desc}\n{msg}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_when_all_cases_pass() {
        run_cases(Config::with_cases(10), "t", |_| (String::new(), Ok(())));
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn fails_fast_on_assertion() {
        run_cases(Config::with_cases(10), "t", |_| {
            (String::from("input"), Err(TestCaseError::fail("boom")))
        });
    }

    #[test]
    #[should_panic(expected = "gave up")]
    fn gives_up_on_pathological_rejection() {
        run_cases(Config::with_cases(10), "t", |_| {
            (String::new(), Err(TestCaseError::reject("never")))
        });
    }

    #[test]
    fn rng_streams_differ_per_case() {
        let a = TestRng::for_case("x", 1).inner().clone();
        let b = TestRng::for_case("x", 2).inner().clone();
        assert_ne!(a, b);
    }
}
