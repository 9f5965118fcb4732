//! What every workload shares: the round context that times program calls,
//! counts operations and collects check failures.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use crate::checks::Verdict;
use crate::clock::Spent;
use crate::trace::{Span, Tracer};

/// Per-layer metrics of one traced round, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A benchmark workload. One round is a fixed set of operations; a run
/// repeats whole rounds, so every round does the same work.
pub trait Workload: Sized {
    /// Build everything the first operation needs. Timed as `setup_s`.
    fn setup(seed: u64, scratch: &Path) -> Result<Self, String>;

    /// Run one round. Program calls go through [`Round::time`]; checks run
    /// between them. With a tracer the round drives the same work through
    /// the public functions its entry points are made of, under spans.
    fn round(&mut self, r: &mut Round);

    /// Derive this workload's per-layer metrics from one traced round.
    fn layers(&self, spans: &[Span], out: &mut Layers);
}

/// State of one round in progress.
pub struct Round<'a> {
    /// Time spent in program calls.
    pub spent: Spent,
    /// The traced run's span store.
    pub tracer: Option<&'a Tracer>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (panicked or returned an error).
    pub failed: u64,
    /// Check failures, `what: why`.
    pub errors: Vec<String>,
}

impl<'a> Round<'a> {
    /// A fresh round.
    pub fn new(tracer: Option<&'a Tracer>) -> Round<'a> {
        Round {
            spent: Spent::default(),
            tracer,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Time a program call that does `ops` operations. A panic or an error
    /// fails all of them and yields `None`.
    pub fn time<R>(
        &mut self,
        what: &str,
        ops: u64,
        f: impl FnOnce() -> Result<R, String>,
    ) -> Option<R> {
        self.attempted += ops;
        match self.spent.time(|| catch_unwind(AssertUnwindSafe(f))) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                eprintln!("# operation failed: {what}: {e}");
                self.failed += ops;
                None
            }
            Err(_) => {
                eprintln!("# operation panicked: {what}");
                self.failed += ops;
                None
            }
        }
    }

    /// Record a check's verdict.
    pub fn check(&mut self, what: &str, v: Verdict) {
        if let Err(e) = v {
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// Run `f` under a span of `tracer`, if there is one. `f` receives the id
/// to parent nested spans with.
pub fn span<R>(
    tracer: Option<&Tracer>,
    parent: Option<u32>,
    name: &str,
    f: impl FnOnce(Option<u32>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(parent, name, |id| f(Some(id))),
        None => f(None),
    }
}

/// Serializes the tests that dispatch onto the worker pool: its busy and
/// CPU clocks are process-wide.
#[cfg(test)]
pub static POOL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Make sure the worker pool has started: the first call spawns it with a
/// small dispatch, later calls find it running.
pub fn start_pool() {
    use rayon::prelude::*;
    if rayon::pool_thread_count() > 0 {
        return;
    }
    let n = 2 * rayon::current_num_threads().max(1);
    let v: Vec<usize> = (0..n).into_par_iter().map(std::hint::black_box).collect();
    assert_eq!(v.len(), n);
}

/// Durations of the spans whose call (name without tag) is `call`.
pub fn durations(spans: &[Span], call: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.call() == call)
        .map(Span::secs)
        .collect()
}
