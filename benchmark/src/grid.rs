//! `grid-campaign`: a micro-scale synthetic Internet campaign over the
//! path grid (the `CampaignConfig::micro` recipe: 50 pps probes over the
//! fluid background, streaming pipeline), run as two in-process shards,
//! merged, and collected from the merged checkpoint. One operation is one
//! path measurement.
//!
//! The recipe's 2 s runs end before the probe starts sending (a probe
//! transmits only after a 1 s warm-up and stops 1 s + RTT before the end),
//! so the campaign runs 4 s probes. Each round also measures one fixed path
//! under the recipe as it stands; that operation fails every time, and is
//! counted in `failed`, until the recipe yields a measurement.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use lossburst_core::shard::{
    collect_campaign_streaming, merge_shards_streaming, merged_checkpoint_path,
    run_shard_streaming, shard_checkpoint_path, shard_indices, ShardSpec,
};
use lossburst_core::supervisor::{
    campaign_fingerprint, supervise_subset, CampaignCheckpoint, OutcomeCounts, PathFailure,
    RestoredPath, SupervisorConfig,
};
use lossburst_inet::campaign::{
    aggregate_streaming, grid_pairs, try_measure_path_grid_streaming, CampaignConfig, GridSample,
    StreamCampaignResult, StreamPathMeasurement,
};
use lossburst_inet::probe::ProbeError;
use lossburst_netsim::sim::{EventCounts, RunLimits};
use lossburst_netsim::time::SimDuration;

use crate::checks;
use crate::clock::{median, quantile};
use crate::trace::{Span, Tracer};
use crate::workload::{durations, start_pool, Layers, Round, Workload};

/// Paths per round.
pub const N_PATHS: usize = 700;
/// Probe run length, seconds.
const PROBE_SECS: u64 = 4;
/// Seed of the fixed path measured under the unchanged micro recipe.
const RECIPE_SEED: u64 = 2006;
/// In-process shards per round.
const SHARDS: usize = 2;
/// The checkpoint label the streaming shard runners fingerprint with.
const STREAM_LABEL: &str = "inet-stream";

pub struct Grid {
    cfg: CampaignConfig,
    sample: GridSample,
    pairs: Vec<(usize, usize)>,
    subsets: Vec<Vec<usize>>,
    dir: PathBuf,
    /// Event counts the last traced round's probes carried. They are not
    /// checkpointed, so they are summed as the shards measure.
    events: Mutex<EventCounts>,
    /// Measurement attempts the supervisor made in the last traced round.
    attempts: AtomicU64,
    /// Size of the last round's merged checkpoint.
    checkpoint_bytes: u64,
}

impl Workload for Grid {
    fn setup(seed: u64, scratch: &Path) -> Result<Grid, String> {
        Grid::with_paths(seed, scratch, N_PATHS)
    }

    fn round(&mut self, r: &mut Round) {
        // Each round measures afresh: no checkpoint may restore it.
        for i in 0..SHARDS {
            std::fs::remove_file(shard_checkpoint_path(&self.dir, ShardSpec::new(i, SHARDS))).ok();
        }
        std::fs::remove_file(merged_checkpoint_path(&self.dir)).ok();
        self.attempts.store(0, Ordering::Relaxed);
        *self.events.lock().expect("counter lock") = EventCounts::default();
        let n = self.cfg.n_paths;
        let sup = SupervisorConfig::default();
        let tr = r.tracer;

        for i in 0..SHARDS {
            let owned = self.subsets[i].len();
            let Some(c) = r.time("shard", owned as u64, || self.shard(tr, &sup, i)) else {
                return;
            };
            // A path that failed every attempt is a failed operation; one
            // that needed a retry is a wrong result.
            r.failed += c.failed as u64;
            r.check(
                "shard ledger",
                if c.ok + c.failed == owned && c.retried == 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "shard {i}: {} of {owned} paths Ok on the first attempt, {} retried",
                        c.ok, c.retried
                    ))
                },
            );
        }

        let Some(merged) = r.time("merge", 0, || self.merge(tr)) else {
            return;
        };
        r.check(
            "merge",
            if merged == n {
                Ok(())
            } else {
                Err(format!("merged checkpoint holds {merged} of {n} records"))
            },
        );
        self.checkpoint_bytes = std::fs::metadata(merged_checkpoint_path(&self.dir))
            .map(|m| m.len())
            .unwrap_or(0);

        let Some((restored, res)) = r.time("collect", 0, || self.collect(tr, &sup)) else {
            return;
        };
        r.check(
            "collect",
            if restored == n && res.measurements.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "collect restored {restored} and returned {} of {n} paths",
                    res.measurements.len()
                ))
            },
        );
        let (pps, secs) = (self.cfg.probe_pps, self.cfg.duration.as_secs_f64());
        let mut own_count = 0u64;
        for m in &res.measurements {
            for p in [&m.small, &m.large] {
                r.check("probe", checks::probe(p, pps, probe_window_s(secs, m.rtt)));
            }
            if m.validated {
                own_count += (m.small.intervals_rtt.len() + m.large.intervals_rtt.len()) as u64;
            }
        }
        let pooled = res.pooled.n_intervals();
        r.check(
            "pooled intervals",
            if pooled == own_count && res.validated + res.rejected == n {
                Ok(())
            } else {
                Err(format!(
                    "pooled {pooled} intervals, validated paths hold {own_count}"
                ))
            },
        );

        let recipe = CampaignConfig::micro(RECIPE_SEED);
        let (src, dst) = GridSample::new(RECIPE_SEED).pair(0);
        r.time("micro recipe", 1, || {
            let m = crate::workload::span(tr, None, "inet.recipe_path", |_| {
                try_measure_path_grid_streaming(&recipe, 0, src, dst, RunLimits::NONE)
            })
            .map_err(|e| format!("{e:?}"))?;
            if m.small.sent == 0 || m.large.sent == 0 {
                return Err("its 2 s probes sent no packets".into());
            }
            Ok(())
        });
    }

    fn layers(&self, spans: &[Span], out: &mut Layers) {
        let sum = |call: &str| durations(spans, call).iter().sum::<f64>();
        let ev = *self.events.lock().expect("counter lock");
        let probe_s = sum("inet.measure_path");
        out.insert("netsim.events", ev.total() as f64);
        out.insert(
            "netsim.events_per_s",
            if probe_s > 0.0 {
                ev.total() as f64 / probe_s
            } else {
                0.0
            },
        );
        out.insert("netsim.timers", ev.timers as f64);
        out.insert("netsim.arrivals", ev.arrivals as f64);
        out.insert("netsim.tx_completes", ev.tx_completes as f64);
        out.insert("netsim.rate_changes", ev.rate_changes as f64);
        out.insert(
            "inet.scenario_us",
            median(&durations(spans, "inet.scenario")) * 1e6,
        );
        let paths = durations(spans, "inet.measure_path");
        out.insert("inet.path_p50_ms", median(&paths) * 1e3);
        out.insert("inet.path_p90_ms", quantile(&paths, 0.9) * 1e3);
        out.insert(
            "analysis.stream_aggregate_s",
            sum("analysis.stream_aggregate"),
        );
        out.insert("shard.shards_s", sum("shard.run_shard"));
        out.insert("shard.merge_s", sum("shard.merge"));
        out.insert("checkpoint.read_s", sum("supervisor.checkpoint_open"));
        out.insert("checkpoint.bytes", self.checkpoint_bytes as f64);
        out.insert(
            "supervisor.attempts_per_path",
            self.attempts.load(Ordering::Relaxed) as f64 / self.cfg.n_paths as f64,
        );
    }
}

/// The part of a `duration_s` probe run the probe transmits in: after the
/// 1 s warm-up, until 1 s + RTT before the end.
pub fn probe_window_s(duration_s: f64, rtt: SimDuration) -> f64 {
    (duration_s - 2.0 - rtt.as_secs_f64()).max(0.0)
}

fn probe_failure(e: ProbeError) -> PathFailure {
    match e {
        ProbeError::EventBudget { events } => PathFailure::EventBudget { events },
    }
}

impl Grid {
    /// The workload over `n_paths` grid paths.
    fn with_paths(seed: u64, scratch: &Path, n_paths: usize) -> Result<Grid, String> {
        start_pool();
        let mut cfg = CampaignConfig::micro(seed);
        cfg.n_paths = n_paths;
        cfg.duration = SimDuration::from_secs(PROBE_SECS);
        let sample = GridSample::new(seed);
        let pairs = grid_pairs(&cfg);
        let subsets = (0..SHARDS)
            .map(|i| shard_indices(pairs.len(), ShardSpec::new(i, SHARDS)))
            .collect();
        let dir = scratch.join("grid-campaign");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Grid {
            cfg,
            sample,
            pairs,
            subsets,
            dir,
            events: Mutex::new(EventCounts::default()),
            attempts: AtomicU64::new(0),
            checkpoint_bytes: 0,
        })
    }

    /// Shard `i` (`run_shard_streaming`): its ledger's outcome totals.
    /// Traced, the shard runs
    /// `supervise_subset` over `GridSample::scenario` and
    /// `try_measure_path_grid_streaming`, as the runner does.
    fn shard(
        &self,
        tr: Option<&Tracer>,
        sup: &SupervisorConfig,
        i: usize,
    ) -> Result<OutcomeCounts, String> {
        let spec = ShardSpec::new(i, SHARDS);
        let Some(tr) = tr else {
            return run_shard_streaming(&self.cfg, sup, spec, &self.dir)
                .map(|rep| rep.counts)
                .map_err(|e| e.to_string());
        };
        let n = self.pairs.len();
        let fp = campaign_fingerprint(STREAM_LABEL, self.cfg.seed, n);
        let mut sup = sup.clone();
        sup.checkpoint = Some(shard_checkpoint_path(&self.dir, spec));
        tr.span(None, "shard.run_shard", |root| {
            let run = tr
                .span(Some(root), "supervisor.supervise_subset", |sub| {
                    supervise_subset(n, &self.subsets[i], fp, &sup, |p, limits| {
                        self.attempts.fetch_add(1, Ordering::Relaxed);
                        let (src, dst) = self.pairs[p];
                        let sc = tr.span(Some(sub), "inet.scenario", |_| self.sample.scenario(p));
                        std::hint::black_box(sc);
                        let m = tr
                            .span(Some(sub), "inet.measure_path", |_| {
                                try_measure_path_grid_streaming(&self.cfg, p, src, dst, limits)
                            })
                            .map_err(probe_failure)?;
                        let mut ev = self.events.lock().expect("counter lock");
                        for c in [&m.small.counts, &m.large.counts] {
                            ev.flow_starts += c.flow_starts;
                            ev.timers += c.timers;
                            ev.arrivals += c.arrivals;
                            ev.tx_completes += c.tx_completes;
                            ev.queue_samples += c.queue_samples;
                            ev.rate_changes += c.rate_changes;
                        }
                        Ok(m)
                    })
                })
                .map_err(|e| e.to_string())?;
            Ok(run.counts())
        })
    }

    /// `merge_shards_streaming`; returns the merged record count.
    fn merge(&self, tr: Option<&Tracer>) -> Result<usize, String> {
        crate::workload::span(tr, None, "shard.merge", |_| {
            merge_shards_streaming(&self.cfg, &self.dir, SHARDS)
        })
        .map(|m| m.records)
        .map_err(|e| e.to_string())
    }

    /// `collect_campaign_streaming`; returns (paths restored from the
    /// merged checkpoint, the aggregated campaign). Traced, the collect
    /// opens the checkpoint with `CampaignCheckpoint::open` and aggregates
    /// the restored paths with `aggregate_streaming`.
    fn collect(
        &self,
        tr: Option<&Tracer>,
        sup: &SupervisorConfig,
    ) -> Result<(usize, StreamCampaignResult), String> {
        let Some(tr) = tr else {
            let c =
                collect_campaign_streaming(&self.cfg, sup, &self.dir).map_err(|e| e.to_string())?;
            let fresh = c.ledger.iter().filter(|e| !e.outcome.is_ok()).count();
            if fresh > 0 {
                return Err(format!("{fresh} paths not Ok after collect"));
            }
            return Ok((c.restored, c.result));
        };
        let n = self.pairs.len();
        let fp = campaign_fingerprint(STREAM_LABEL, self.cfg.seed, n);
        tr.span(None, "shard.collect", |root| {
            let (_handle, restored) = tr
                .span(Some(root), "supervisor.checkpoint_open", |_| {
                    CampaignCheckpoint::open::<StreamPathMeasurement>(
                        &merged_checkpoint_path(&self.dir),
                        fp,
                        n,
                    )
                })
                .map_err(|e| e.to_string())?;
            let ms: Vec<StreamPathMeasurement> = restored
                .into_iter()
                .filter_map(|p| match p {
                    Some(RestoredPath::Ok { value, .. }) => Some(value),
                    _ => None,
                })
                .collect();
            let count = ms.len();
            let res = tr.span(Some(root), "analysis.stream_aggregate", |_| {
                aggregate_streaming(ms)
            });
            Ok((count, res))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both the entry-point round and the traced decomposition pass every
    /// check on a small grid, and the fixed recipe path fails in both.
    #[test]
    fn plain_and_traced_rounds_pass_their_checks() {
        let _pool = crate::workload::POOL_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let scratch = std::env::temp_dir().join(format!("lossburst-bench-{}", std::process::id()));
        let mut w = Grid::with_paths(9, &scratch, 12).unwrap();
        let tr = Tracer::default();
        for tracer in [None, Some(&tr)] {
            let mut r = Round::new(tracer);
            w.round(&mut r);
            assert!(r.errors.is_empty(), "{:?}", r.errors);
            assert_eq!((r.attempted, r.failed), (13, 1));
        }
        let spans = tr.drain();
        assert_eq!(durations(&spans, "inet.measure_path").len(), 12);
        let mut m = Layers::new();
        w.layers(&spans, &mut m);
        assert_eq!(m["supervisor.attempts_per_path"], 1.0);
        assert!(m["netsim.events"] > 0.0 && m["checkpoint.bytes"] > 0.0);
        std::fs::remove_dir_all(&scratch).ok();
    }
}
