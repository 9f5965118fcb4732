//! Output checks. Each recomputes what it checks from the program's raw
//! outputs, or tests a property the method must have; none compares with a
//! stored copy of an earlier run. They run outside the timed calls.
//!
//! Every check returns `Err(reason)` on the first violation. The tests at
//! the bottom feed each check a perturbed output and see it fail.

use lossburst_core::bsp::{SuperstepStats, WorkerOutcome, MTU_BYTES, WIRE_OVERHEAD};
use lossburst_core::campaign::LossStudy;
use lossburst_core::fairness::FairnessCell;
use lossburst_core::impact::ParallelCell;
use lossburst_core::model::DetectionRow;
use lossburst_inet::probe::StreamProbeOutcome;

use crate::clock::quantile;

/// A check's verdict.
pub type Verdict = Result<(), String>;

fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Verdict {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

fn fraction_below(xs: &[f64], x: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&v| v < x).count() as f64 / xs.len() as f64
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1e-300)
}

// ---------------------------------------------------------------------------
// reproduce-quick
// ---------------------------------------------------------------------------

/// Table 1: 26 sites, 650 directed paths, RTTs from at most 3 ms to above
/// 200 ms.
pub fn table1(sites: usize, rtts_ms: &[f64]) -> Verdict {
    let min = rtts_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let max = rtts_ms.iter().copied().fold(0.0, f64::max);
    ensure(sites == 26, || format!("{sites} sites, expected 26"))?;
    ensure(rtts_ms.len() == 650, || {
        format!("{} directed paths, expected 650", rtts_ms.len())
    })?;
    ensure(min <= 3.0 && max > 200.0, || {
        format!("RTT range {min:.1}-{max:.1} ms, expected <=3 to >200 ms")
    })
}

/// The Poisson reference PDF of Figs 2/3/4 equals the closed-form
/// exponential bin masses `e^(-λa) - e^(-λb)` over the histogram's bins,
/// with `λ` recomputed from the mean of the pooled intervals; the histogram
/// holds every interval.
pub fn poisson_reference(study: &LossStudy) -> Verdict {
    let iv = &study.intervals_rtt;
    ensure(!iv.is_empty(), || "no intervals".into())?;
    ensure(study.histogram.total == iv.len() as u64, || {
        format!(
            "histogram holds {} of {} intervals",
            study.histogram.total,
            iv.len()
        )
    })?;
    let mean = iv.iter().sum::<f64>() / iv.len() as f64;
    let lambda = 1.0 / mean;
    let w = study.histogram.bin_width;
    ensure(
        study.poisson_pdf.len() == study.histogram.bins.len(),
        || "Poisson reference and histogram differ in bin count".into(),
    )?;
    for (i, &p) in study.poisson_pdf.iter().enumerate() {
        let a = i as f64 * w;
        let want = (-lambda * a).exp() - (-lambda * (a + w)).exp();
        ensure((p - want).abs() <= 1e-9 * want.max(1e-12), || {
            format!("Poisson bin {i}: {p} != exponential mass {want}")
        })?;
    }
    Ok(())
}

/// The paper-shape property of a lab study (Fig 2 or Fig 3): the share of
/// intervals below 0.01 RTT, recomputed from the intervals, lies in
/// `[lo, hi]` and agrees with the report, and the index of dispersion
/// exceeds 10 (far burstier than Poisson).
pub fn lab_shape(study: &LossStudy, lo: f64, hi: f64) -> Verdict {
    let f = fraction_below(&study.intervals_rtt, 0.01);
    ensure(close(f, study.report.frac_below_001, 1e-12), || {
        format!(
            "report says {:.4} below 0.01 RTT, intervals say {f:.4}",
            study.report.frac_below_001
        )
    })?;
    ensure(f > lo && f <= hi, || {
        format!(
            "{:.1}% of intervals below 0.01 RTT, expected ({lo}, {hi}]",
            f * 100.0
        )
    })?;
    ensure(study.report.index_of_dispersion > 10.0, || {
        format!(
            "index of dispersion {:.1}, expected > 10",
            study.report.index_of_dispersion
        )
    })
}

/// Fig 4: less bursty than the lab (fewer intervals below 0.01 RTT than
/// the Fig 2 study of the same round), more intervals below 1 RTT than
/// below 0.01 RTT by at least five points, and more mass below 0.25 RTT
/// than the rate-matched Poisson process has.
pub fn internet_shape(study: &LossStudy, lab_f001: f64) -> Verdict {
    let iv = &study.intervals_rtt;
    let (f001, f1, f025) = (
        fraction_below(iv, 0.01),
        fraction_below(iv, 1.0),
        fraction_below(iv, 0.25),
    );
    let mean = iv.iter().sum::<f64>() / iv.len().max(1) as f64;
    let poisson_025 = 1.0 - (-0.25 / mean).exp();
    ensure(f001 < lab_f001, || {
        format!("{f001:.3} below 0.01 RTT, not below the lab's {lab_f001:.3}")
    })?;
    ensure(f1 > f001 + 0.05, || {
        format!("{f1:.3} below 1 RTT vs {f001:.3} below 0.01 RTT")
    })?;
    ensure(f025 > poisson_025, || {
        format!("{f025:.3} below 0.25 RTT, Poisson has {poisson_025:.3}")
    })
}

/// Figs 5/6: the analytic detection counts are `min(M, N)` and
/// `max(M/K, 1)`. The Monte-Carlo placement of `M` consecutive drops at a
/// uniform offset hits exactly `min(M, N)` interleaved flows, and on
/// average `1 + (M-1)/K` contiguous trunks (never fewer than `max(M/K, 1)`);
/// its mean must lie within 0.1 of that expectation, over ten standard
/// errors at the trial counts used.
pub fn detection(rows: &[DetectionRow]) -> Verdict {
    ensure(!rows.is_empty(), || "no rows".into())?;
    for r in rows {
        let rate = r.m.min(r.n) as f64;
        let win = (r.m as f64 / r.k as f64).max(1.0);
        ensure(r.rate_analytic == rate && r.window_analytic == win, || {
            format!(
                "M={}: analytic ({}, {}) != (min(M,N), max(M/K,1)) = ({rate}, {win})",
                r.m, r.rate_analytic, r.window_analytic
            )
        })?;
        ensure(r.rate_simulated == rate, || {
            format!("M={}: simulated L_rate {} != {rate}", r.m, r.rate_simulated)
        })?;
        let expected = 1.0 + (r.m - 1) as f64 / r.k as f64;
        ensure(
            r.window_simulated >= win - 1e-9 && (r.window_simulated - expected).abs() <= 0.1,
            || {
                format!(
                    "M={}: simulated L_win {} vs expectation {expected} (eq 2: {win})",
                    r.m, r.window_simulated
                )
            },
        )?;
    }
    Ok(())
}

/// Fig 7: pacing's deficit, recomputed from the two classes' mean
/// throughputs, is above 5% and matches the reported one.
pub fn competition(newreno_mbps: f64, pacing_mbps: f64, reported_deficit: f64) -> Verdict {
    ensure(newreno_mbps > 0.0, || "NewReno carried nothing".into())?;
    let deficit = 1.0 - pacing_mbps / newreno_mbps;
    ensure(close(deficit, reported_deficit, 1e-9), || {
        format!("reported deficit {reported_deficit} != recomputed {deficit}")
    })?;
    ensure(deficit > 0.05, || {
        format!("pacing deficit {:.1}%, expected > 5%", deficit * 100.0)
    })
}

/// Fig 8: every latency is at least the wire time of 64 MiB at 100 Mb/s
/// with 4% headers; latency sits near that bound at 2 ms RTT and far above
/// it at 200 ms, where it also varies more.
pub fn parallel(cells: &[ParallelCell], total_bytes: u64, bottleneck_bps: f64) -> Verdict {
    let bound = total_bytes as f64 * 8.0 * 1.04 / bottleneck_bps;
    for c in cells {
        for &l in &c.latencies {
            ensure(l >= bound, || {
                format!(
                    "{} flows at {:?}: latency {l:.3} s below the {bound:.3} s wire time",
                    c.flows, c.rtt
                )
            })?;
        }
    }
    let cell = |flows: usize, rtt_ms: u64| {
        cells
            .iter()
            .find(|c| c.flows == flows && c.rtt.as_nanos() == rtt_ms * 1_000_000)
            .ok_or_else(|| format!("no cell ({flows} flows, {rtt_ms} ms)"))
    };
    let mean_norm =
        |c: &ParallelCell| c.latencies.iter().sum::<f64>() / c.latencies.len() as f64 / bound;
    let (near, far, far4, near4) = (cell(8, 2)?, cell(8, 200)?, cell(4, 200)?, cell(4, 2)?);
    ensure(mean_norm(near) < 1.6, || {
        format!(
            "8 flows @ 2 ms: {:.2}x the bound, expected < 1.6",
            mean_norm(near)
        )
    })?;
    ensure(mean_norm(far4) > 1.8, || {
        format!(
            "4 flows @ 200 ms: {:.2}x the bound, expected > 1.8",
            mean_norm(far4)
        )
    })?;
    ensure(mean_norm(near) <= mean_norm(far), || {
        "latency does not grow with RTT at 8 flows".into()
    })?;
    ensure(far4.std_normalized > near4.std_normalized, || {
        "4 flows vary less at 200 ms than at 2 ms".into()
    })
}

/// The fairness matrix: every cell has utilisation at most 1, class
/// goodputs that sum to at most capacity, and Jain's index in `[1/n, 1]`
/// for its `n` foreground flows.
pub fn fairness(
    cells: &[FairnessCell],
    expected_cells: usize,
    flows_per_class: usize,
    capacity_bps: f64,
) -> Verdict {
    ensure(cells.len() == expected_cells, || {
        format!("{} cells, expected {expected_cells}", cells.len())
    })?;
    let n = 2 * flows_per_class;
    let cap_mbps = capacity_bps / 1e6;
    for c in cells {
        let what = || {
            format!(
                "{}/{} {} noise {}",
                c.alg_a.name(),
                c.alg_b.name(),
                c.discipline.name(),
                c.noise
            )
        };
        ensure(c.utilization <= 1.0 + 1e-9 && c.utilization >= 0.0, || {
            format!("{}: utilisation {}", what(), c.utilization)
        })?;
        let sum = (c.goodput_a_mbps + c.goodput_b_mbps) * flows_per_class as f64;
        ensure(sum <= cap_mbps * (1.0 + 1e-9), || {
            format!(
                "{}: goodputs sum to {sum:.3} Mb/s over {cap_mbps} Mb/s",
                what()
            )
        })?;
        ensure(
            c.jain >= 1.0 / n as f64 - 1e-12 && c.jain <= 1.0 + 1e-12,
            || format!("{}: Jain {} outside [1/{n}, 1]", what(), c.jain),
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// grid-campaign
// ---------------------------------------------------------------------------

/// One probe's packet accounting: it sent packets, sent = received + lost,
/// and sent matches `pps × window` to within one packet, where `window` is
/// the part of the run the probe transmits in.
pub fn probe(p: &StreamProbeOutcome, pps: f64, window_s: f64) -> Verdict {
    ensure(p.sent > 0, || "the probe sent no packets".into())?;
    ensure(p.sent == p.received + p.n_lost as u64, || {
        format!(
            "sent {} != received {} + lost {}",
            p.sent, p.received, p.n_lost
        )
    })?;
    let want = pps * window_s;
    ensure((p.sent as f64 - want).abs() <= 1.0, || {
        format!("sent {} packets, expected {want:.1} (pps x window)", p.sent)
    })
}

// ---------------------------------------------------------------------------
// bsp-sweep
// ---------------------------------------------------------------------------

/// A worker path's wire parameters, from `GridSample::scenario`.
#[derive(Clone, Copy, Debug)]
pub struct Wire {
    /// Round-trip time, seconds.
    pub rtt: f64,
    /// Bottleneck rate, bits/s.
    pub bps: f64,
}

/// Loss-free transfer time of `bytes` in `chunk` chunks over `w`: every
/// packet's wire time plus one RTT of handshake per chunk.
pub fn loss_free_secs(bytes: u64, chunk: u64, w: Wire) -> f64 {
    let pkts = bytes.div_ceil(MTU_BYTES);
    let chunks = pkts.div_ceil(chunk.div_ceil(MTU_BYTES).max(1));
    pkts as f64 * MTU_BYTES as f64 * 8.0 * WIRE_OVERHEAD / w.bps + chunks as f64 * w.rtt
}

/// No worker finishes sooner than the loss-free time of its path and
/// chunking. `floor(o)` gives that time for outcome `o`.
pub fn bsp_floor(outcomes: &[WorkerOutcome], floor: impl Fn(&WorkerOutcome) -> f64) -> Verdict {
    for o in outcomes {
        let f = floor(o);
        ensure(o.secs >= f * (1.0 - 1e-12), || {
            format!(
                "worker {} took {} s, below its loss-free {f} s",
                o.worker, o.secs
            )
        })?;
    }
    Ok(())
}

/// Barrier, median and p99 equal the benchmark's own recomputation from
/// the outcomes, which cover workers `0..n` in order.
pub fn bsp_stats(outcomes: &[WorkerOutcome], n: usize, stats: &SuperstepStats) -> Verdict {
    ensure(
        outcomes.len() == n && outcomes.iter().enumerate().all(|(i, o)| o.worker == i),
        || format!("outcomes do not cover workers 0..{n} in order"),
    )?;
    let secs: Vec<f64> = outcomes.iter().map(|o| o.secs).collect();
    let barrier = secs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for (what, got, want) in [
        ("barrier", stats.barrier_secs, barrier),
        ("median", stats.median_secs, quantile(&secs, 0.5)),
        ("p99", stats.p99_secs, quantile(&secs, 0.99)),
    ] {
        ensure(close(got, want, 1e-12), || {
            format!("{what} {got} != recomputed {want}")
        })?;
    }
    Ok(())
}

/// Redundancy only ever rescues: no worker is slower than the same worker
/// without mitigation in the same superstep.
pub fn redundancy_never_slower(redundant: &[WorkerOutcome], none_secs: &[f64]) -> Verdict {
    ensure(redundant.len() == none_secs.len(), || {
        "worker counts differ".into()
    })?;
    for (o, &base) in redundant.iter().zip(none_secs) {
        ensure(o.secs <= base, || {
            format!(
                "worker {}: {} s with redundancy, {base} s without",
                o.worker, o.secs
            )
        })?;
    }
    Ok(())
}

/// P99 over median of a sample of slowdowns.
pub fn tail_mass(slowdowns: &[f64]) -> f64 {
    quantile(slowdowns, 0.99) / quantile(slowdowns, 0.5)
}

/// With no mitigation, the pooled tail mass rises strictly with burst
/// length. `tails` is in increasing burst order.
pub fn tail_rises(tails: &[(f64, f64)]) -> Verdict {
    for w in tails.windows(2) {
        ensure(w[1].1 > w[0].1, || {
            format!(
                "tail mass {:.3} at burst {} is not above {:.3} at burst {}",
                w[1].1, w[1].0, w[0].1, w[0].0
            )
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lossburst_core::fairness::Discipline;
    use lossburst_netsim::time::SimDuration;
    use lossburst_transport::cc::CcAlgorithm;

    /// A bursty interval sample: tight clusters a few RTT apart.
    fn bursty_study() -> LossStudy {
        let mut iv = Vec::new();
        for i in 0..400 {
            if i % 20 == 19 {
                iv.push(3.0 + (i % 7) as f64 * 0.1);
            } else {
                iv.push(0.001 + (i % 5) as f64 * 0.001);
            }
        }
        LossStudy::from_intervals("test", iv)
    }

    #[test]
    fn table1_rejects_a_lost_site_and_a_short_range() {
        let rtts: Vec<f64> = (0..650).map(|i| 2.5 + i as f64 * 0.4).collect();
        assert!(table1(26, &rtts).is_ok());
        assert!(table1(25, &rtts).is_err());
        assert!(table1(26, &rtts[1..]).is_err());
        let short: Vec<f64> = rtts.iter().map(|r| r.min(150.0)).collect();
        assert!(table1(26, &short).is_err());
    }

    #[test]
    fn poisson_reference_rejects_a_perturbed_bin_and_a_lost_interval() {
        let study = bursty_study();
        assert!(poisson_reference(&study).is_ok());
        let mut bad = bursty_study();
        bad.poisson_pdf[3] *= 1.001;
        assert!(poisson_reference(&bad).is_err());
        let mut bad = bursty_study();
        bad.histogram.total -= 1;
        assert!(poisson_reference(&bad).is_err());
        let mut bad = bursty_study();
        bad.intervals_rtt[0] += 0.5; // λ no longer matches the PDF
        assert!(poisson_reference(&bad).is_err());
    }

    #[test]
    fn lab_shape_rejects_smooth_losses_and_a_wrong_report() {
        let study = bursty_study();
        assert!(lab_shape(&study, 0.9, 1.0).is_ok());
        let mut bad = bursty_study();
        bad.report.frac_below_001 -= 0.01;
        assert!(lab_shape(&bad, 0.9, 1.0).is_err());
        let mut bad = bursty_study();
        bad.report.index_of_dispersion = 3.0;
        assert!(lab_shape(&bad, 0.9, 1.0).is_err());
        // Evenly spaced losses: nothing below 0.01 RTT.
        let smooth = LossStudy::from_intervals("smooth", vec![0.5; 300]);
        assert!(lab_shape(&smooth, 0.5, 1.0).is_err());
    }

    #[test]
    fn internet_shape_rejects_lab_burstiness_and_poisson_losses() {
        let mixed: Vec<f64> = (0..300)
            .map(|i| match i % 10 {
                0..=3 => 0.005,
                4..=6 => 0.3,
                _ => 4.0,
            })
            .collect();
        let mixed = LossStudy::from_intervals("i", mixed);
        assert!(internet_shape(&mixed, 0.95).is_ok());
        // As bursty as the lab: not the Internet shape.
        assert!(internet_shape(&mixed, 0.35).is_err());
        // All sub-0.01 RTT, so nothing more below 1 RTT.
        assert!(internet_shape(&bursty_study(), 1.01).is_err());
        // Exponential intervals: no excess mass below 0.25 RTT.
        let poisson: Vec<f64> = (1..300)
            .map(|i| -(1.0 - i as f64 / 300.0).ln() * 2.0)
            .collect();
        assert!(internet_shape(&LossStudy::from_intervals("p", poisson), 0.95).is_err());
    }

    #[test]
    fn detection_rejects_a_wrong_equation_and_a_drifting_simulation() {
        let rows: Vec<DetectionRow> = [1u64, 8, 32, 128]
            .iter()
            .map(|&m| DetectionRow::compute(m, 16, 50, 500, 7))
            .collect();
        assert!(detection(&rows).is_ok());
        let mut bad = rows.clone();
        bad[2].rate_analytic += 1.0;
        assert!(detection(&bad).is_err());
        let mut bad = rows.clone();
        bad[3].window_analytic = 1.0;
        assert!(detection(&bad).is_err());
        let mut bad = rows.clone();
        bad[1].rate_simulated -= 0.01;
        assert!(detection(&bad).is_err());
        let mut bad = rows.clone();
        bad[2].window_simulated += 0.2;
        assert!(detection(&bad).is_err());
    }

    #[test]
    fn competition_rejects_a_winning_pacer_and_a_misreported_deficit() {
        assert!(competition(50.0, 40.0, 0.2).is_ok());
        assert!(competition(50.0, 49.0, 0.02).is_err());
        assert!(competition(50.0, 40.0, 0.25).is_err());
    }

    fn fig8_cells(bound: f64) -> Vec<ParallelCell> {
        let mut cells = Vec::new();
        for flows in [4usize, 8] {
            for rtt_ms in [2u64, 200] {
                let lat: Vec<f64> = if rtt_ms == 2 {
                    vec![1.1 * bound, 1.12 * bound]
                } else {
                    vec![2.0 * bound, 4.0 * bound]
                };
                let norm: Vec<f64> = lat.iter().map(|l| l / bound).collect();
                let mean = norm.iter().sum::<f64>() / 2.0;
                let std = (norm.iter().map(|n| (n - mean).powi(2)).sum::<f64>() / 2.0).sqrt();
                cells.push(ParallelCell {
                    flows,
                    rtt: SimDuration::from_millis(rtt_ms),
                    latencies: lat,
                    mean_normalized: mean,
                    std_normalized: std,
                });
            }
        }
        cells
    }

    #[test]
    fn parallel_rejects_a_latency_below_the_wire_time_and_a_flat_rtt_response() {
        let (bytes, bps) = (64 * 1024 * 1024, 100e6);
        let bound = bytes as f64 * 8.0 * 1.04 / bps;
        assert!(parallel(&fig8_cells(bound), bytes, bps).is_ok());
        let mut bad = fig8_cells(bound);
        bad[0].latencies[0] = 0.999 * bound;
        assert!(parallel(&bad, bytes, bps).is_err());
        let mut bad = fig8_cells(bound);
        bad[1].latencies = vec![1.2 * bound, 1.2 * bound]; // 4 flows @ 200 ms
        assert!(parallel(&bad, bytes, bps).is_err());
    }

    fn fair_cell(ga: f64, gb: f64, jain: f64, util: f64) -> FairnessCell {
        FairnessCell {
            alg_a: CcAlgorithm::NewReno,
            alg_b: CcAlgorithm::Cubic,
            discipline: Discipline::DropTail,
            noise: 0.0,
            jain,
            goodput_a_mbps: ga,
            goodput_b_mbps: gb,
            drops: 10,
            utilization: util,
        }
    }

    #[test]
    fn fairness_rejects_overfull_links_and_impossible_jain() {
        let ok = vec![fair_cell(4.0, 5.0, 0.9, 0.95); 3];
        assert!(fairness(&ok, 3, 2, 20e6).is_ok());
        assert!(fairness(&ok, 4, 2, 20e6).is_err());
        let over = vec![fair_cell(6.0, 5.0, 0.9, 0.95)]; // 2·11 > 20 Mb/s
        assert!(fairness(&over, 1, 2, 20e6).is_err());
        assert!(fairness(&[fair_cell(4.0, 5.0, 0.9, 1.01)], 1, 2, 20e6).is_err());
        assert!(fairness(&[fair_cell(4.0, 5.0, 0.2, 0.9)], 1, 2, 20e6).is_err());
        assert!(fairness(&[fair_cell(4.0, 5.0, 1.01, 0.9)], 1, 2, 20e6).is_err());
    }

    #[test]
    fn probe_rejects_unbalanced_and_short_accounting() {
        let scenario = lossburst_inet::path::PathScenario::derive(3, 1, 2);
        let run = |secs: u64| {
            lossburst_inet::probe::run_probe_streaming(
                &scenario,
                &lossburst_inet::probe::ProbeConfig {
                    packet_bytes: 48,
                    pps: 50.0,
                    duration: SimDuration::from_secs(secs),
                    seed: 3,
                    background: lossburst_netsim::fluid::BackgroundMode::Fluid,
                },
            )
        };
        let window = |secs: u64| crate::grid::probe_window_s(secs as f64, scenario.rtt);
        let p = run(4);
        assert!(probe(&p, 50.0, window(4)).is_ok());
        let mut bad = p.clone();
        bad.received += 1;
        assert!(probe(&bad, 50.0, window(4)).is_err());
        let mut bad = p.clone();
        bad.sent -= 2;
        bad.received -= 2;
        assert!(probe(&bad, 50.0, window(4)).is_err());
        // Two seconds leave no window after warm-up and tail guard.
        assert!(probe(&run(2), 50.0, window(2)).is_err());
    }

    fn outcome(worker: usize, secs: f64) -> WorkerOutcome {
        WorkerOutcome {
            worker,
            secs,
            slowdown: secs,
            alt: 0,
            chunk_bytes: 1 << 20,
        }
    }

    #[test]
    fn bsp_floor_rejects_a_worker_faster_than_the_wire() {
        let w = Wire {
            rtt: 0.05,
            bps: 10e6,
        };
        let f = loss_free_secs(1 << 20, 1 << 20, w);
        // 1049 packets at 832 µs each plus one RTT.
        assert!((f - (1049.0 * 8000.0 * 1.04 / 10e6 + 0.05)).abs() < 1e-12);
        assert!(loss_free_secs(1 << 20, 64 * 1000, w) > f);
        let outs = vec![outcome(0, f), outcome(1, 2.0 * f)];
        assert!(bsp_floor(&outs, |_| f).is_ok());
        let outs = vec![outcome(0, f), outcome(1, 0.99 * f)];
        assert!(bsp_floor(&outs, |_| f).is_err());
    }

    #[test]
    fn bsp_stats_rejects_a_wrong_barrier_and_quantiles() {
        let outs: Vec<WorkerOutcome> = (0..200).map(|i| outcome(i, 1.0 + i as f64)).collect();
        let secs: Vec<f64> = outs.iter().map(|o| o.secs).collect();
        let stats = SuperstepStats {
            n_workers: 200,
            barrier_secs: 200.0,
            median_secs: lossburst_analysis::stats::quantile(&secs, 0.5),
            p99_secs: lossburst_analysis::stats::quantile(&secs, 0.99),
            tail_mass: 1.0,
            mean_secs: 100.5,
        };
        assert!(bsp_stats(&outs, 200, &stats).is_ok());
        assert!(bsp_stats(&outs[1..], 200, &stats).is_err());
        for perturb in 0..3 {
            let mut bad = stats.clone();
            match perturb {
                0 => bad.barrier_secs *= 0.99,
                1 => bad.median_secs += 0.5,
                _ => bad.p99_secs -= 0.01,
            }
            assert!(bsp_stats(&outs, 200, &bad).is_err());
        }
    }

    #[test]
    fn redundancy_check_rejects_a_slower_rescue() {
        let none = vec![3.0, 4.0, 5.0];
        let red = vec![outcome(0, 3.0), outcome(1, 3.5), outcome(2, 5.0)];
        assert!(redundancy_never_slower(&red, &none).is_ok());
        let red = vec![outcome(0, 3.0), outcome(1, 4.5), outcome(2, 5.0)];
        assert!(redundancy_never_slower(&red, &none).is_err());
    }

    #[test]
    fn tail_check_rejects_a_falling_tail() {
        let flat: Vec<f64> = (0..1000).map(|i| 1.0 + (i % 10) as f64 * 0.01).collect();
        let heavy: Vec<f64> = (0..1000)
            .map(|i| if i % 50 == 0 { 5.0 } else { 1.0 })
            .collect();
        assert!(tail_mass(&heavy) > tail_mass(&flat));
        assert!(tail_rises(&[(1.0, tail_mass(&flat)), (4.0, tail_mass(&heavy))]).is_ok());
        assert!(tail_rises(&[(1.0, 2.0), (4.0, 2.5), (16.0, 2.4)]).is_err());
    }
}
