//! `reproduce-quick`: Table 1 and Figs 2, 3, 4, 5/6, 7 and 8 at the scale
//! the figure binaries use without `--full`, plus the full 60-cell
//! controller fairness matrix. One operation is one figure (or the matrix).

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use lossburst_analysis::{intervals, stats};
use lossburst_core::campaign::{
    dummynet_study, internet_study, lab_cells, ns2_study, LabCampaignConfig, LossStudy,
};
use lossburst_core::fairness::{
    fairness_cell, fairness_matrix, Discipline, FairnessCell, FairnessConfig,
};
use lossburst_core::impact::{
    competition, parallel_study, theoretic_lower_bound, try_parallel_once, CompetitionConfig,
    ParallelCell, ParallelConfig,
};
use lossburst_core::model::DetectionRow;
use lossburst_emu::testbed::{self, TestbedConfig};
use lossburst_inet::campaign::{run_campaign, CampaignConfig};
use lossburst_inet::geo::base_rtt;
use lossburst_inet::sites::{all_directed_pairs, SITES};
use lossburst_netsim::time::SimDuration;
use lossburst_transport::cc::CcAlgorithm;
use rayon::prelude::*;

use crate::checks;
use crate::clock::{median, quantile};
use crate::trace::{Span, Tracer};
use crate::workload::{durations, span, start_pool, Layers, Round, Workload};

/// The Fig 5/6 drop counts, flows and packets per flow per RTT.
const DETECTION_M: [u64; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];
const DETECTION_N: u64 = 16;
const DETECTION_K: u64 = 50;
const DETECTION_TRIALS: u32 = 4_000;

/// One fairness-matrix cell to run, with its derived seed.
#[derive(Clone, Copy)]
struct FairJob {
    a: CcAlgorithm,
    b: CcAlgorithm,
    discipline: Discipline,
    noise: f64,
    seed: u64,
}

/// The fairness matrix's cells in `fairness_matrix` order, with the same
/// coordinate-derived seeds.
fn fairness_jobs(cfg: &FairnessConfig) -> Vec<FairJob> {
    let mut jobs = Vec::new();
    for (i, &a) in cfg.algorithms.iter().enumerate() {
        for &b in &cfg.algorithms[i..] {
            for &discipline in &cfg.disciplines {
                for &noise in &cfg.noise_levels {
                    let idx = jobs.len() as u64;
                    let seed = cfg
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(idx.wrapping_mul(0xBF58_476D_1CE4_E5B9) | 1);
                    jobs.push(FairJob {
                        a,
                        b,
                        discipline,
                        noise,
                        seed,
                    });
                }
            }
        }
    }
    jobs
}

/// The Fig 8 replications in `parallel_study` order: per (flows, RTT) cell,
/// each replication's derived seed.
fn parallel_cells(cfg: &ParallelConfig) -> Vec<(usize, SimDuration, Vec<u64>)> {
    let mut cells = Vec::new();
    for &flows in &cfg.flow_counts {
        for &rtt in &cfg.rtts {
            let seeds = cfg
                .seeds
                .iter()
                .map(|&s| s ^ ((flows as u64) << 20) ^ rtt.as_nanos())
                .collect();
            cells.push((flows, rtt, seeds));
        }
    }
    cells
}

pub struct Reproduce {
    seed: u64,
    lab: LabCampaignConfig,
    lab_cells: Vec<(usize, usize, u64)>,
    inet: CampaignConfig,
    fig7: CompetitionConfig,
    fig8: ParallelConfig,
    fig8_cells: Vec<(usize, SimDuration, Vec<u64>)>,
    fair: FairnessConfig,
    fair_jobs: Vec<FairJob>,
    /// Largest trace buffer of a testbed cell in the last traced round.
    emu_trace_bytes: AtomicUsize,
}

impl Workload for Reproduce {
    fn setup(seed: u64, _scratch: &Path) -> Result<Reproduce, String> {
        start_pool();
        // Figs 2 and 3 without --full: flows {2, 8, 32} x buffers
        // {1/8, 1/2, 2} BDP, 30 s runs.
        let mut lab = LabCampaignConfig::quick(seed);
        lab.flow_counts = vec![2, 8, 32];
        lab.buffer_bdp_fractions = vec![0.125, 0.5, 2.0];
        lab.duration = SimDuration::from_secs(30);
        let lab_cells = lab_cells(&lab);
        let mut fig7 = CompetitionConfig::paper(seed);
        fig7.duration = SimDuration::from_secs(40);
        let mut fig8 = ParallelConfig::paper(4);
        fig8.seeds = fig8.seeds.iter().map(|s| s ^ seed).collect();
        fig8.validate().map_err(|e| e.to_string())?;
        let fig8_cells = parallel_cells(&fig8);
        let fair = FairnessConfig::full(seed);
        let fair_jobs = fairness_jobs(&fair);
        Ok(Reproduce {
            seed,
            lab,
            lab_cells,
            inet: CampaignConfig::quick(seed),
            fig7,
            fig8,
            fig8_cells,
            fair,
            fair_jobs,
            emu_trace_bytes: AtomicUsize::new(0),
        })
    }

    fn round(&mut self, r: &mut Round) {
        self.emu_trace_bytes.store(0, Ordering::Relaxed);
        let tr = r.tracer;

        if let Some(rtts) = r.time("table1", 1, || {
            Ok(span(tr, None, "inet.table1", |_| {
                all_directed_pairs()
                    .iter()
                    .map(|&(a, b)| base_rtt(&SITES[a], &SITES[b]).as_secs_f64() * 1e3)
                    .collect::<Vec<f64>>()
            }))
        }) {
            r.check("table1", checks::table1(SITES.len(), &rtts));
        }

        // Fig 2's share of intervals below 0.01 RTT, which Fig 4 stays under.
        let mut lab_f001 = 1.0;
        for (fig, dummynet, lo) in [("fig2", false, 0.9), ("fig3", true, 0.5)] {
            if let Some(study) = r.time(fig, 1, || Ok(self.lab_study(tr, dummynet))) {
                r.check(fig, checks::lab_shape(&study, lo, 1.0));
                r.check(fig, checks::poisson_reference(&study));
                if !dummynet {
                    lab_f001 = study.report.frac_below_001;
                }
            }
        }

        if let Some(study) = r.time("fig4", 1, || Ok(self.internet_study(tr))) {
            r.check("fig4", checks::internet_shape(&study, lab_f001));
            r.check("fig4", checks::poisson_reference(&study));
        }

        let seed = self.seed;
        if let Some(rows) = r.time("fig56", 1, || {
            Ok(span(tr, None, "model.detection", |_| {
                DETECTION_M
                    .iter()
                    .map(|&m| {
                        DetectionRow::compute(m, DETECTION_N, DETECTION_K, DETECTION_TRIALS, seed)
                    })
                    .collect::<Vec<_>>()
            }))
        }) {
            r.check("fig56", checks::detection(&rows));
        }

        if let Some(res) = r.time("fig7", 1, || {
            Ok(span(tr, None, "impact.competition", |_| {
                competition(&self.fig7)
            }))
        }) {
            r.check(
                "fig7",
                checks::competition(
                    res.newreno_mean_mbps,
                    res.pacing_mean_mbps,
                    res.pacing_deficit,
                ),
            );
        }

        if let Some(cells) = r.time("fig8", 1, || self.parallel_study(tr)) {
            r.check(
                "fig8",
                checks::parallel(&cells, self.fig8.total_bytes, self.fig8.bottleneck_bps),
            );
        }

        if let Some(cells) = r.time("fairness", 1, || Ok(self.fairness_matrix(tr))) {
            r.check(
                "fairness",
                checks::fairness(
                    &cells,
                    self.fair_jobs.len(),
                    self.fair.flows_per_class,
                    self.fair.bottleneck_bps,
                ),
            );
        }
    }

    fn layers(&self, spans: &[Span], out: &mut Layers) {
        let sum = |call: &str| durations(spans, call).iter().sum::<f64>();
        let cells = |pred: &dyn Fn(&[&str]) -> bool| -> f64 {
            spans
                .iter()
                .filter(|s| s.call() == "fairness.cell")
                .filter(|s| pred(&s.tag().unwrap_or("").split('/').collect::<Vec<_>>()))
                .map(Span::secs)
                .sum()
        };
        out.insert("netsim.droptail_cells_s", cells(&|t| t[0] == "droptail"));
        out.insert("netsim.red_cells_s", cells(&|t| t[0] == "red"));
        for (metric, alg) in [
            ("transport.newreno_s", "newreno"),
            ("transport.sack_s", "sack"),
            ("transport.cubic_s", "cubic"),
            ("transport.bbr_s", "bbr"),
            ("transport.tfrc_s", "tfrc"),
        ] {
            out.insert(
                metric,
                cells(&|t| t.len() == 3 && t[1] == alg && t[2] == alg),
            );
        }
        let emu = durations(spans, "emu.testbed_run");
        out.insert("emu.cells_s", emu.iter().sum());
        out.insert("emu.cell_max_s", emu.iter().copied().fold(0.0, f64::max));
        out.insert(
            "emu.trace_mib",
            self.emu_trace_bytes.load(Ordering::Relaxed) as f64 / (1 << 20) as f64,
        );
        out.insert("inet.fig4_s", sum("inet.run_campaign"));
        out.insert("impact.competition_s", sum("impact.competition"));
        let transfers = durations(spans, "impact.transfer");
        out.insert("impact.transfer_p50_s", median(&transfers));
        out.insert("impact.transfer_max_s", quantile(&transfers, 1.0));
        out.insert(
            "analysis.batch_s",
            spans
                .iter()
                .filter(|s| s.layer() == "analysis")
                .map(Span::secs)
                .sum(),
        );
    }
}

impl Reproduce {
    /// Fig 2 (`ns2_study`) or Fig 3 (`dummynet_study`). Traced, the cells
    /// run through `testbed::run`, `normalized_intervals` and
    /// `LossStudy::from_intervals` exactly as the study does.
    fn lab_study(&self, tr: Option<&Tracer>, dummynet: bool) -> LossStudy {
        let Some(tr) = tr else {
            return if dummynet {
                dummynet_study(&self.lab)
            } else {
                ns2_study(&self.lab)
            };
        };
        let name = if dummynet {
            "campaign.dummynet_study"
        } else {
            "campaign.ns2_study"
        };
        tr.span(None, name, |root| {
            let per_cell: Vec<Vec<f64>> = self
                .lab_cells
                .par_iter()
                .map(|&(flows, buffer, seed)| {
                    let mut tb = if dummynet {
                        TestbedConfig::dummynet_baseline(flows, buffer, seed)
                    } else {
                        TestbedConfig::ns2_baseline(flows, buffer, seed)
                    };
                    tb.duration = self.lab.duration;
                    tb.background = self.lab.background;
                    tb.cc = self.lab.cc;
                    let res = tr.span(Some(root), "emu.testbed_run", |_| testbed::run(&tb));
                    self.emu_trace_bytes
                        .fetch_max(res.trace.buffer_bytes(), Ordering::Relaxed);
                    let rtt = res.mean_rtt.as_secs_f64();
                    tr.span(Some(root), "analysis.intervals", |_| {
                        intervals::normalized_intervals(&res.loss_times, rtt)
                    })
                })
                .collect();
            let pooled: Vec<f64> = per_cell.into_iter().flatten().collect();
            let label = if dummynet { "dummynet" } else { "ns2" };
            tr.span(Some(root), "analysis.study", |_| {
                LossStudy::from_intervals(label, pooled)
            })
        })
    }

    /// Fig 4 (`internet_study`): `run_campaign`, then the batch analysis.
    fn internet_study(&self, tr: Option<&Tracer>) -> LossStudy {
        let Some(tr) = tr else {
            return internet_study(&self.inet);
        };
        tr.span(None, "campaign.internet_study", |root| {
            let res = tr.span(Some(root), "inet.run_campaign", |_| {
                run_campaign(&self.inet)
            });
            tr.span(Some(root), "analysis.study", |_| {
                LossStudy::from_intervals("internet", res.intervals_rtt)
            })
        })
    }

    /// Fig 8 (`parallel_study`): every replication through
    /// `try_parallel_once`, as one flat job over (cell, replication) pairs
    /// regrouped by cell afterwards. The entry point nests replications
    /// inside cells; flat, the pool's per-executor clocks count each
    /// replication once.
    fn parallel_study(&self, tr: Option<&Tracer>) -> Result<Vec<ParallelCell>, String> {
        let Some(tr) = tr else {
            return parallel_study(&self.fig8).map_err(|e| e.to_string());
        };
        let cfg = &self.fig8;
        let bound = theoretic_lower_bound(cfg.total_bytes, cfg.bottleneck_bps);
        tr.span(None, "impact.parallel_study", |root| {
            let jobs: Vec<(usize, u64)> = self
                .fig8_cells
                .iter()
                .enumerate()
                .flat_map(|(c, (_, _, seeds))| seeds.iter().map(move |&seed| (c, seed)))
                .collect();
            let mut latencies = jobs
                .par_iter()
                .map(|&(c, seed)| {
                    let (flows, rtt, _) = &self.fig8_cells[c];
                    tr.span(Some(root), "impact.transfer", |_| {
                        try_parallel_once(
                            cfg.total_bytes,
                            *flows,
                            *rtt,
                            cfg.bottleneck_bps,
                            cfg.buffer_pkts,
                            seed,
                        )
                    })
                })
                .collect::<Result<Vec<f64>, _>>()
                .map_err(|e| e.to_string())?
                .into_iter();
            Ok(self
                .fig8_cells
                .iter()
                .map(|(flows, rtt, seeds)| {
                    let latencies: Vec<f64> = latencies.by_ref().take(seeds.len()).collect();
                    let norm: Vec<f64> = latencies.iter().map(|l| l / bound).collect();
                    ParallelCell {
                        flows: *flows,
                        rtt: *rtt,
                        latencies,
                        mean_normalized: stats::mean(&norm),
                        std_normalized: stats::variance(&norm).sqrt(),
                    }
                })
                .collect())
        })
    }

    /// The fairness matrix (`fairness_matrix`): every cell through
    /// `fairness_cell`, tagged `discipline/alg_a/alg_b`.
    fn fairness_matrix(&self, tr: Option<&Tracer>) -> Vec<FairnessCell> {
        let Some(tr) = tr else {
            return fairness_matrix(&self.fair).cells;
        };
        tr.span(None, "fairness.matrix", |root| {
            self.fair_jobs
                .par_iter()
                .map(|j| {
                    let name = format!(
                        "fairness.cell:{}/{}/{}",
                        j.discipline.name(),
                        j.a.name(),
                        j.b.name()
                    );
                    tr.span(Some(root), &name, |_| {
                        fairness_cell(&self.fair, j.a, j.b, j.discipline, j.noise, j.seed)
                    })
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::POOL_TEST_LOCK;

    /// The traced decomposition runs the very cells the entry points run,
    /// and the pool's clocks count the traced Fig 8 work once.
    #[test]
    fn traced_fairness_and_fig8_match_the_entry_points() {
        let _pool = POOL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut fair = FairnessConfig::quick(11);
        fair.duration = SimDuration::from_secs(2);
        let mut fig8 = ParallelConfig::paper(2);
        fig8.total_bytes = 2 * 1024 * 1024;
        fig8.flow_counts = vec![2, 4];
        fig8.rtts = vec![SimDuration::from_millis(10), SimDuration::from_millis(50)];
        let mut w = Reproduce::setup(11, Path::new(".")).unwrap();
        w.fair_jobs = fairness_jobs(&fair);
        w.fair = fair;
        w.fig8_cells = parallel_cells(&fig8);
        w.fig8 = fig8;
        let tr = Tracer::default();

        let plain = w.fairness_matrix(None);
        let traced = w.fairness_matrix(Some(&tr));
        assert_eq!(plain.len(), traced.len());
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.jain.to_bits(), b.jain.to_bits());
            assert_eq!(a.drops, b.drops);
        }

        let plain = w.parallel_study(None).unwrap();
        rayon::reset_worker_busy();
        let t0 = std::time::Instant::now();
        let traced = w.parallel_study(Some(&tr)).unwrap();
        let wall = t0.elapsed().as_secs_f64();
        let busy = rayon::worker_cpu_nanos().iter().sum::<u64>() as f64 * 1e-9;
        // At most one executor per core runs at a time: the pool's workers
        // and the submitting thread. Each executor's CPU clock ticks every
        // 10 ms, so allow one tick each.
        let executors = rayon::current_num_threads() + 1;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let limit = executors.min(cores) as f64 * wall + 0.01 * executors as f64;
        assert!(
            busy <= limit,
            "pool busy {busy:.3} CPU-s over a {wall:.3} s Fig 8 (limit {limit:.3})"
        );
        assert_eq!(plain.len(), traced.len());
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.latencies, b.latencies);
            assert_eq!(a.std_normalized.to_bits(), b.std_normalized.to_bits());
        }
        let spans = tr.drain();
        assert_eq!(durations(&spans, "impact.transfer").len(), 8);
        assert_eq!(durations(&spans, "fairness.cell").len(), 6);
    }

    #[test]
    fn traced_lab_study_matches_the_entry_point() {
        let _pool = POOL_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut w = Reproduce::setup(5, Path::new(".")).unwrap();
        w.lab.flow_counts = vec![8];
        w.lab.buffer_bdp_fractions = vec![0.25, 1.0];
        w.lab.duration = SimDuration::from_secs(5);
        w.lab_cells = lab_cells(&w.lab);
        let tr = Tracer::default();
        for dummynet in [false, true] {
            let plain = w.lab_study(None, dummynet);
            let traced = w.lab_study(Some(&tr), dummynet);
            assert_eq!(plain.intervals_rtt, traced.intervals_rtt);
            assert_eq!(plain.histogram.bins, traced.histogram.bins);
        }
        assert!(w.emu_trace_bytes.load(Ordering::Relaxed) > 0);
    }
}
