//! The traced run's span recorder and the per-layer self-time attribution.
//!
//! Spans are recorded by the benchmark around its calls into the program's
//! public functions; the program itself is not instrumented. They stay in
//! memory until the round ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `name` is `<layer>.<call>`: the layer is the module the
/// called function belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within a tracer.
    pub id: u32,
    /// The span whose call made this one, if any.
    pub parent: Option<u32>,
    /// `<layer>.<call>`, optionally followed by `:<tag>`.
    pub name: String,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    /// Seconds since the tracer's epoch.
    pub end: f64,
}

impl Span {
    /// Wall seconds the call took.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer: `name` up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    /// `name` without its `:<tag>` suffix.
    pub fn call(&self) -> &str {
        self.name.split(':').next().unwrap_or("")
    }

    /// The `:<tag>` suffix, if any.
    pub fn tag(&self) -> Option<&str> {
        self.name.split_once(':').map(|(_, t)| t)
    }
}

/// Thread-safe in-memory span store.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Time `f` as a span called `name` under `parent`. `f` receives the new
    /// span's id, to parent the spans of the calls it makes.
    pub fn span<R>(&self, parent: Option<u32>, name: &str, f: impl FnOnce(u32) -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(id);
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name: name.to_string(),
            start,
            end,
        });
        out
    }

    /// Take every span recorded so far, leaving the store empty.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Wall-clock self time per layer. Every instant covered by some span is
/// split evenly among the spans active at that instant that have no active
/// child, and credited to their layers. A span's share is therefore its
/// duration minus the part of it its children cover, with concurrent spans
/// on different workers sharing the instants they overlap. The shares sum
/// to the wall time the spans cover, so they account for `run_s`.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent_of: Vec<Option<usize>> = spans
        .iter()
        .map(|s| s.parent.and_then(|p| index.get(&p).copied()))
        .collect();
    // (time, opens?, span index); closes sort before opens at equal times.
    let mut events: Vec<(f64, bool, usize)> = Vec::with_capacity(2 * spans.len());
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start, true, i));
        events.push((s.end, false, i));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut active_children = vec![0u32; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut last_t = events.first().map(|e| e.0).unwrap_or(0.0);
    for (t, opens, i) in events {
        let leaves: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&a| active_children[a] == 0)
            .collect();
        if !leaves.is_empty() && t > last_t {
            let share = (t - last_t) / leaves.len() as f64;
            for l in leaves {
                *out.entry(spans[l].layer().to_string()).or_insert(0.0) += share;
            }
        }
        last_t = t;
        if opens {
            active.push(i);
            if let Some(p) = parent_of[i] {
                active_children[p] += 1;
            }
        } else {
            active.retain(|&a| a != i);
            if let Some(p) = parent_of[i] {
                active_children[p] -= 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_covered_time() {
        // A 10 s root whose two concurrent children overlap on [2, 4).
        let spans = vec![
            span(0, None, "shard.run", 0.0, 10.0),
            span(1, Some(0), "inet.measure", 1.0, 4.0),
            span(2, Some(0), "inet.measure", 2.0, 6.0),
            span(3, Some(2), "analysis.x", 5.0, 6.0),
        ];
        let st = self_times(&spans);
        // Root alone on [0,1) and [6,10): 5 s.
        assert!((st["shard"] - 5.0).abs() < 1e-12);
        // inet: [1,2) alone, [2,4) shared by two, [4,5) alone: 4 s.
        assert!((st["inet"] - 4.0).abs() < 1e-12);
        assert!((st["analysis"] - 1.0).abs() < 1e-12);
        assert!((st.values().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parents_and_tags() {
        let tr = Tracer::default();
        tr.span(None, "bsp.superstep:none", |root| {
            tr.span(Some(root), "bsp.workers", |_| ());
        });
        let spans = tr.drain();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(root.tag(), Some("none"));
        assert_eq!(root.call(), "bsp.superstep");
        let child = spans.iter().find(|s| s.parent.is_some()).unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert!(child.start >= root.start && child.end <= root.end);
        assert!(tr.drain().is_empty());
    }
}
