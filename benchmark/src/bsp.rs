//! `bsp-sweep`: lossy-BSP supersteps at 10^4 workers x 1 MiB, mean burst
//! lengths {1, 4, 16} crossed with the mitigations none, diversity3,
//! redundancy10 and burstaware, each superstep through
//! `superstep_workers` then `finalize_superstep`. One operation is one
//! superstep.

use std::collections::BTreeMap;
use std::path::Path;

use lossburst_core::bsp::{
    finalize_superstep, superstep_workers, BspConfig, Mitigation, WorkerOutcome, MAX_ALTS,
};
use lossburst_inet::campaign::GridSample;

use crate::checks::{self, Wire};
use crate::clock::{median, quantile};
use crate::trace::Span;
use crate::workload::{durations, span, start_pool, Layers, Round, Workload};

/// Workers per superstep.
pub const WORKERS: usize = 10_000;
/// Bytes each worker moves per superstep.
const BYTES: u64 = 1 << 20;
/// Mean loss-burst lengths swept, packets.
const BURSTS: [f64; 3] = [1.0, 4.0, 16.0];
/// Supersteps per (burst, mitigation) pair in a round.
pub const SUPERSTEPS: usize = 2;

fn mitigations() -> [Mitigation; 4] {
    [
        Mitigation::None,
        Mitigation::Diversity { alts: 3 },
        Mitigation::Redundancy { fraction: 0.10 },
        Mitigation::BurstAware,
    ]
}

pub struct Bsp {
    /// One config per (burst, mitigation), burst-major.
    configs: Vec<BspConfig>,
    workers: Vec<usize>,
    /// Wire parameters of every worker's path alternatives, filled on the
    /// first round (outside the timed calls) for the loss-free floor check.
    wires: Vec<[Wire; MAX_ALTS]>,
    seed: u64,
}

impl Workload for Bsp {
    fn setup(seed: u64, _scratch: &Path) -> Result<Bsp, String> {
        start_pool();
        let mut configs = Vec::new();
        for burst in BURSTS {
            for mitigation in mitigations() {
                let cfg = BspConfig {
                    n_workers: WORKERS,
                    supersteps: SUPERSTEPS,
                    bytes_per_worker: BYTES,
                    mean_loss_rate: 0.01,
                    mean_burst_pkts: burst,
                    seed,
                    mitigation,
                };
                cfg.validate().map_err(|e| e.to_string())?;
                configs.push(cfg);
            }
        }
        Ok(Bsp {
            configs,
            workers: (0..WORKERS).collect(),
            wires: Vec::new(),
            seed,
        })
    }

    fn round(&mut self, r: &mut Round) {
        if self.wires.is_empty() {
            let book = GridSample::new(self.seed);
            self.wires = (0..WORKERS)
                .map(|w| {
                    std::array::from_fn(|a| {
                        let sc = book.scenario(w * MAX_ALTS + a);
                        Wire {
                            rtt: sc.rtt.as_secs_f64(),
                            bps: sc.bottleneck_bps,
                        }
                    })
                })
                .collect();
        }
        let tr = r.tracer;
        let per_burst = mitigations().len();
        let mut tails = Vec::new();
        for (b, burst) in BURSTS.iter().enumerate() {
            let mut pooled_none: Vec<f64> = Vec::with_capacity(SUPERSTEPS * WORKERS);
            for step in 0..SUPERSTEPS {
                let mut none_secs: Vec<f64> = Vec::new();
                for cfg in &self.configs[b * per_burst..(b + 1) * per_burst] {
                    let tag = format!("bsp.superstep:{}", cfg.mitigation.label());
                    let Some((outcomes, stats)) = r.time("superstep", 1, || {
                        span(tr, None, &tag, |root| {
                            let mut out = span(tr, root, "bsp.workers", |_| {
                                superstep_workers(cfg, step, &self.workers)
                            })
                            .map_err(|e| e.to_string())?;
                            let stats = span(tr, root, "bsp.finalize", |_| {
                                finalize_superstep(cfg, step, &mut out)
                            })
                            .map_err(|e| e.to_string())?;
                            Ok((out, stats))
                        })
                    }) else {
                        continue;
                    };
                    let label = cfg.mitigation.label();
                    r.check(&label, checks::bsp_stats(&outcomes, WORKERS, &stats));
                    r.check(&label, checks::bsp_floor(&outcomes, |o| self.floor(cfg, o)));
                    match cfg.mitigation {
                        Mitigation::None => {
                            none_secs = outcomes.iter().map(|o| o.secs).collect();
                            pooled_none.extend(outcomes.iter().map(|o| o.slowdown));
                        }
                        Mitigation::Redundancy { .. } => r.check(
                            &label,
                            checks::redundancy_never_slower(&outcomes, &none_secs),
                        ),
                        _ => {}
                    }
                }
            }
            tails.push((*burst, checks::tail_mass(&pooled_none)));
        }
        r.check("tail mass", checks::tail_rises(&tails));
    }

    fn layers(&self, spans: &[Span], out: &mut Layers) {
        let workers_s: f64 = durations(spans, "bsp.workers").iter().sum();
        let finalize_s: f64 = durations(spans, "bsp.finalize").iter().sum();
        let steps = durations(spans, "bsp.superstep");
        out.insert("bsp.workers_s", workers_s);
        out.insert("bsp.finalize_s", finalize_s);
        out.insert(
            "bsp.transfers_per_s",
            (steps.len() * WORKERS) as f64 / (workers_s + finalize_s),
        );
        out.insert("bsp.superstep_p50_ms", median(&steps) * 1e3);
        out.insert("bsp.superstep_p90_ms", quantile(&steps, 0.9) * 1e3);
        let mut by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.call() == "bsp.superstep") {
            by_label
                .entry(s.tag().unwrap_or(""))
                .or_default()
                .push(s.secs());
        }
        for (metric, label) in [
            ("bsp.none_ms", "none"),
            ("bsp.diversity3_ms", "diversity3"),
            ("bsp.redundancy10_ms", "redundancy10"),
            ("bsp.burstaware_ms", "burstaware"),
        ] {
            out.insert(
                metric,
                median(by_label.get(label).map(Vec::as_slice).unwrap_or(&[])) * 1e3,
            );
        }
    }
}

impl Bsp {
    /// The loss-free time of outcome `o`: its primary path and chunking, or
    /// under redundancy the backup path (alternative 1, whole transfer) if
    /// that is faster.
    fn floor(&self, cfg: &BspConfig, o: &WorkerOutcome) -> f64 {
        let wires = &self.wires[o.worker];
        let primary = checks::loss_free_secs(BYTES, o.chunk_bytes, wires[o.alt]);
        match cfg.mitigation {
            Mitigation::Redundancy { .. } => {
                primary.min(checks::loss_free_secs(BYTES, BYTES, wires[1]))
            }
            _ => primary,
        }
    }
}
