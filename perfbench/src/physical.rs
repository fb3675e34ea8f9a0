//! `physical_flow`: a fixed, seeded list of `SpnrFlow::run_physical`
//! jobs on one 2k-cell CPU design, run one after another on one thread.
//!
//! The traced run replays every job stage by stage through the public
//! functions `run_physical` is built from, with a span around each call,
//! and requires the replay to reproduce the job's outcome bit for bit.

use std::time::{Duration, Instant};

use ideaflow_flow::options::{Effort, SpnrOptions};
use ideaflow_flow::spnr::{PhysicalOutcome, QorSample, SpnrFlow};
use ideaflow_flow::tree::{options_for_trajectory, Trajectory};
use ideaflow_netlist::generate::{DesignClass, DesignSpec};
use ideaflow_place::cts::{synthesize, CtsStyle};
use ideaflow_place::floorplan::Floorplan;
use ideaflow_place::placement::{net_hpwl, total_hpwl};
use ideaflow_place::placer::{anneal_placement, partition_seeded_placement, PlacerConfig};
use ideaflow_route::drv::{behavior_from_congestion, simulate, DrvConfig};
use ideaflow_route::global::{GlobalRoute, RouteConfig};
use ideaflow_timing::graph::TimingGraph;
use ideaflow_timing::model::{Constraints, Corner, WireModel};
use ideaflow_timing::pba::{max_frequency_ghz, pba};
use ideaflow_timing::si::apply_coupling;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{mean, median, percentile};
use crate::trace::{self_ms_by_name, Span, Tracer};
use crate::{affinity, golden};
use crate::{Fnv, Outcome, SplitMix};

/// Cells in the design: the reference size of the roadmap.
pub const INSTANCES: usize = 2_000;
/// The design is fixed; the workload seed only picks the jobs. A design
/// that changed with the seed would add run-to-run spread that says
/// nothing about the code.
pub const DESIGN_SEED: u64 = 2018;
/// `SpnrFlow::new` repetitions behind `setup_s`: one before the jobs, the
/// rest spread evenly between them, so that the median follows the host
/// over the whole run as the job timings do.
const SETUP_REPEATS: usize = 15;
/// Target frequency as a share of the design's reference fmax: the
/// target the repository's campaigns run their trajectories at
/// (`ChaosConfig::target_frac`, and `design_space_explorer`'s call of
/// `compare_orchestration`).
const TARGET_SHARE: f64 = 0.85;
/// Settings of the three option axes the jobs vary, in the order of
/// `tree::standard_axes`: utilization, aspect ratio, CTS style.
const VARIED: [usize; 3] = [4, 3, 2];
/// Option combinations the jobs are drawn from.
pub const COMBOS: usize = VARIED[0] * VARIED[1] * VARIED[2];
/// Sample indices per combination.
pub const SAMPLES: u32 = 4;
/// Untimed jobs at the start of every run.
const WARMUP: usize = 3;

/// One `run_physical` call.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Index of the option combination, `0..COMBOS`.
    pub combo: usize,
    /// Option vector: `combo` on the varied axes, medium efforts.
    pub options: SpnrOptions,
    /// Sample index, `0..SAMPLES`.
    pub sample: u32,
}

impl Job {
    /// Position of this job's outcome in [`golden::DIGESTS`].
    #[must_use]
    pub fn golden_index(&self) -> usize {
        self.combo * SAMPLES as usize + self.sample as usize
    }
}

/// The job for option combination `combo` and `sample`: a trajectory over
/// `tree::standard_axes` with the three effort axes pinned to medium and
/// the utilization, aspect-ratio and CTS axes taken from `combo`.
#[must_use]
pub fn job(fmax_ref_ghz: f64, combo: usize, sample: u32) -> Job {
    let medium = Effort::ALL
        .iter()
        .position(|e| *e == Effort::Medium)
        .expect("medium is an effort");
    let util = combo / (VARIED[1] * VARIED[2]);
    let aspect = combo / VARIED[2] % VARIED[1];
    let cts = combo % VARIED[2];
    let trajectory = Trajectory(vec![medium, util, aspect, medium, cts, medium]);
    let options = options_for_trajectory(&trajectory, fmax_ref_ghz * TARGET_SHARE)
        .expect("standard trajectory");
    Job {
        combo,
        options,
        sample,
    }
}

/// Jobs measured per run: about 5 per second of `seconds`, never fewer
/// than 100 (so p90 has ten samples beyond it), rounded up to whole
/// rounds of every option combination.
#[must_use]
pub fn job_count(seconds: u64) -> usize {
    (5 * seconds as usize).max(100).div_ceil(COMBOS) * COMBOS
}

/// The seeded job list: rounds in which every option combination runs
/// once, each round in a seeded order with seeded sample indices. The
/// seed changes the order and the samples but not the mix, so it does
/// not move the timings through the share of slow combinations.
#[must_use]
pub fn job_list(seed: u64, fmax_ref_ghz: f64, n: usize) -> Vec<Job> {
    let mut rng = SplitMix::new(seed ^ 0x5048_5953);
    let mut jobs = Vec::with_capacity(n);
    while jobs.len() < n {
        let mut round: Vec<usize> = (0..COMBOS).collect();
        for i in (1..round.len()).rev() {
            round.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        for combo in round {
            let sample = (rng.next_u64() % u64::from(SAMPLES)) as u32;
            jobs.push(job(fmax_ref_ghz, combo, sample));
        }
    }
    jobs.truncate(n);
    jobs
}

/// Digest over every field of an outcome, floats by their bits.
#[must_use]
pub fn outcome_digest(o: &PhysicalOutcome) -> u64 {
    let mut h = Fnv::default();
    let QorSample {
        target_ghz,
        area_um2,
        wns_ps,
        leakage_nw,
        runtime_hours,
    } = &o.qor;
    for f in [
        target_ghz,
        area_um2,
        wns_ps,
        leakage_nw,
        runtime_hours,
        &o.hpwl_um,
        &o.route_overflow,
        &o.hot_fraction,
        &o.clock_skew_ps,
    ] {
        h.add(f.to_bits());
    }
    h.add(o.clock_buffers as u64);
    h.add(o.drv.behavior as u64);
    for c in &o.drv.counts {
        h.add(*c);
    }
    h.finish()
}

/// Compares a job's outcome with the one recorded in [`golden::DIGESTS`]
/// at the commit that defined this benchmark.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_golden(job: &Job, outcome: &PhysicalOutcome) -> Result<(), String> {
    let (actual, expected) = (outcome_digest(outcome), golden::DIGESTS[job.golden_index()]);
    if actual == expected {
        Ok(())
    } else {
        Err(format!(
            "outcome digest {actual:016x} of {job:?} differs from the recorded {expected:016x}"
        ))
    }
}

/// `run_physical` replayed from outside, one span per stage, for a flow
/// built with `flow_seed`. Also returns the anneal's accepted moves.
#[must_use]
pub fn replay(
    flow: &SpnrFlow,
    flow_seed: u64,
    job: &Job,
    t: &Tracer,
    parent: &Span<'_>,
) -> (PhysicalOutcome, usize) {
    let (options, sample) = (&job.options, job.sample);
    let netlist = flow.netlist();
    let run_seed = flow_seed ^ options.fingerprint() ^ (u64::from(sample) << 17);

    let s = t.span("place.floorplan", Some(parent));
    let fp = Floorplan::for_netlist(netlist, options.utilization, options.aspect_ratio)
        .expect("validated options fit");
    drop(s);

    let s = t.span("place.seed", Some(parent));
    let start = partition_seeded_placement(netlist, &fp, run_seed).expect("floorplan sized");
    drop(s);

    let s = t.span("place.anneal", Some(parent));
    let moves = match options.place_effort {
        Effort::Low => 15_000,
        Effort::Medium => 40_000,
        Effort::High => 90_000,
    };
    let cfg = PlacerConfig {
        moves,
        t_initial: 60.0,
        t_final: 0.3,
    };
    let placed = anneal_placement(netlist, &fp, start, cfg, run_seed.wrapping_add(1));
    let hpwl = total_hpwl(netlist, &fp, &placed.placement);
    drop(s);

    let s = t.span("place.cts", Some(parent));
    let style = if options.cts_aggressive {
        CtsStyle::Aggressive
    } else {
        CtsStyle::Balanced
    };
    let cts = synthesize(netlist, &fp, &placed.placement, style).expect("design has flops");
    drop(s);

    let s = t.span("route.global", Some(parent));
    let route_cfg = RouteConfig {
        cols: 16,
        rows: 16,
        capacity: 40.0 / options.utilization,
    };
    let route = GlobalRoute::run(netlist, &fp, &placed.placement, route_cfg);
    drop(s);

    let s = t.span("timing.signoff", Some(parent));
    let lengths: Vec<f64> = (0..netlist.net_count())
        .map(|n| net_hpwl(netlist, &fp, &placed.placement, n).max(0.5))
        .collect();
    let mut graph = TimingGraph::build_with_lengths(netlist, WireModel::default(), lengths);
    let couple_rate = 0.05 + 0.4 * route.hot_fraction(0.8);
    apply_coupling(&mut graph, couple_rate.min(0.6), run_seed.wrapping_add(2));
    let mut cons = Constraints::at_frequency_ghz(options.target_ghz).expect("frequency in range");
    cons.setup_ps += cts.skew_ps();
    let signoff = pba(&graph, &cons, &Corner::STANDARD).expect("endpoints exist");
    drop(s);

    let s = t.span("route.detail", Some(parent));
    let mut rng = StdRng::seed_from_u64(run_seed.wrapping_add(3));
    let behavior = behavior_from_congestion(route.hot_fraction(1.0), &mut rng);
    let initial_drvs =
        (500.0 + route.total_overflow() * 30.0 + netlist.net_count() as f64 * 0.5).round() as u64;
    let drv = simulate(
        behavior,
        initial_drvs.max(1),
        DrvConfig::default(),
        run_seed.wrapping_add(4),
    )
    .expect("positive initial DRVs");
    drop(s);

    let outcome = PhysicalOutcome {
        qor: QorSample {
            target_ghz: options.target_ghz,
            area_um2: netlist.total_area_um2(),
            wns_ps: signoff.wns_ps,
            leakage_nw: netlist.total_leakage_nw(),
            runtime_hours: 0.0,
        },
        hpwl_um: hpwl,
        route_overflow: route.total_overflow(),
        hot_fraction: route.hot_fraction(1.0),
        clock_skew_ps: cts.skew_ps(),
        clock_buffers: cts.buffer_count,
        drv,
    };
    (outcome, placed.accepted)
}

fn spec() -> DesignSpec {
    DesignSpec::new(DesignClass::Cpu, INSTANCES).expect("valid spec")
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the workload.
#[must_use]
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let t = Tracer::new(traced);

    // This thread runs every job and spawns nothing, so it can be moved
    // from CPU to CPU (see `affinity`).
    let cpus = affinity::allowed();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let time_setup = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let f = SpnrFlow::new(spec(), DESIGN_SEED);
        setup_s.push(t0.elapsed().as_secs_f64());
        f
    };
    let flow = time_setup(&mut setup_s);
    if traced {
        // The two halves of `SpnrFlow::new`, from outside.
        for _ in 0..SETUP_REPEATS {
            let s = t.span("netlist.generate", None);
            let netlist = spec().generate(DESIGN_SEED);
            drop(s);
            let s = t.span("timing.calibrate", None);
            let graph = TimingGraph::build(&netlist, WireModel::default());
            let fmax = max_frequency_ghz(&graph, &[Corner::SLOW]).expect("endpoints");
            drop(s);
            if fmax.to_bits() != flow.fmax_ref_ghz().to_bits() {
                out.fail("replayed calibration differs from SpnrFlow::new".into());
            }
        }
    }

    let jobs = job_list(seed, flow.fmax_ref_ghz(), job_count(seconds));
    // Warm-up: the first jobs of the list, run once more before the
    // measured pass and excluded from the timings.
    for job in &jobs[..WARMUP] {
        drop(std::hint::black_box(
            flow.run_physical(&job.options, job.sample),
        ));
    }
    let mut flow_ms = Vec::with_capacity(jobs.len());
    let mut replay_ms = Vec::new();
    let mut accepted = Vec::new();
    let setup_every = jobs.len() / (SETUP_REPEATS - 1);
    let wall = Instant::now();
    let mut setup_in_loop = Duration::ZERO;
    for (i, job) in jobs.iter().enumerate() {
        out.attempted += 1;
        affinity::rotate(&cpus, i);
        if i % setup_every == setup_every - 1 && setup_s.len() < SETUP_REPEATS {
            let t0 = Instant::now();
            drop(std::hint::black_box(time_setup(&mut setup_s)));
            setup_in_loop += t0.elapsed();
        }
        let t0 = Instant::now();
        let o = std::hint::black_box(flow.run_physical(&job.options, job.sample));
        flow_ms.push(ms_since(t0));
        if let Err(e) = check_golden(job, &o) {
            out.fail(e);
        }
        if traced {
            let t0 = Instant::now();
            let parent = t.span("flow.job", None);
            let (r, acc) = replay(&flow, DESIGN_SEED, job, &t, &parent);
            drop(parent);
            replay_ms.push(ms_since(t0));
            accepted.push(acc as f64);
            if outcome_digest(&r) != outcome_digest(&o) {
                out.fail(format!(
                    "stage replay differs from run_physical for {job:?}"
                ));
            }
        }
    }
    let wall_s = (wall.elapsed() - setup_in_loop).as_secs_f64();

    if traced {
        let by_name = self_ms_by_name(&t.records());
        let total = |name: &str| by_name.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
        let p50 = |name: &str| by_name.get(name).and_then(|v| percentile(v, 0.5));
        let job_total: f64 = t
            .records()
            .iter()
            .filter(|r| r.name == "flow.job")
            .map(|r| (r.end_ns - r.start_ns) as f64 / 1e6)
            .sum();
        for stage in [
            "place.seed",
            "place.anneal",
            "route.global",
            "timing.signoff",
        ] {
            out.metric_opt(&format!("{stage}_ms_p50"), p50(stage), "ms");
            out.metric(&format!("{stage}_share"), total(stage) / job_total, "share");
        }
        out.metric_opt("place.cts_ms_p50", p50("place.cts"), "ms");
        out.metric_opt("route.detail_ms_p50", p50("route.detail"), "ms");
        out.metric_opt("place.floorplan_ms_p50", p50("place.floorplan"), "ms");
        out.metric_opt("place.anneal_accepted", mean(&accepted), "count");
        out.metric_opt(
            "netlist.generate_ms",
            median(by_name.get("netlist.generate").map_or(&[][..], |v| v)),
            "ms",
        );
        out.metric_opt(
            "timing.calibrate_ms",
            median(by_name.get("timing.calibrate").map_or(&[][..], |v| v)),
            "ms",
        );
        out.metric(
            "bench.replay_gap_share",
            total("flow.job") / job_total,
            "share",
        );
        out.metric(
            "bench.trace_overhead_share",
            replay_ms.iter().sum::<f64>() / flow_ms.iter().sum::<f64>() - 1.0,
            "share",
        );
    } else {
        out.metric_opt("setup_s", median(&setup_s), "s");
        out.metric_opt("latency_ms_p50", percentile(&flow_ms, 0.5), "ms");
        out.metric_opt("latency_ms_p90", percentile(&flow_ms, 0.9), "ms");
        out.metric("throughput_per_s", jobs.len() as f64 / wall_s, "1/s");
    }
    out.detail(&format!(
        "{{\"jobs\": {}, \"warmup\": {WARMUP}, \"design_cells\": {INSTANCES}, \
         \"target_share_of_fmax\": {TARGET_SHARE}}}",
        jobs.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_job_list() {
        assert_eq!(job_list(7, 1.2, 48), job_list(7, 1.2, 48));
        assert_ne!(job_list(7, 1.2, 48), job_list(8, 1.2, 48));
        let jobs = job_list(3, 1.2, job_count(40));
        for job in &jobs {
            job.options.validate().expect("generated options validate");
            assert_eq!(job.options.place_effort, Effort::Medium);
        }
        // Every round runs every option combination once.
        for round in jobs.chunks(COMBOS) {
            let mut combos: Vec<usize> = round.iter().map(|j| j.combo).collect();
            combos.sort_unstable();
            assert_eq!(combos, (0..COMBOS).collect::<Vec<_>>());
        }
        // The extremes of the standard axes are all exercised.
        let has = |f: &dyn Fn(&SpnrOptions) -> bool| jobs.iter().any(|j| f(&j.options));
        assert!(has(&|o| o.utilization == 0.85) && has(&|o| o.utilization == 0.60));
        assert!(has(&|o| o.aspect_ratio == 0.5) && has(&|o| o.aspect_ratio == 2.0));
        assert!(has(&|o| o.cts_aggressive) && has(&|o| !o.cts_aggressive));
    }

    #[test]
    fn tampered_outcome_is_a_failure() {
        let flow = SpnrFlow::new(spec(), DESIGN_SEED);
        for (combo, sample) in [(0, 0), (COMBOS - 1, SAMPLES - 1)] {
            let job = job(flow.fmax_ref_ghz(), combo, sample);
            let mut o = flow.run_physical(&job.options, job.sample);
            assert!(check_golden(&job, &o).is_ok(), "recorded digest is stale");
            // One ulp of one field is a different outcome.
            o.hpwl_um = f64::from_bits(o.hpwl_um.to_bits() + 1);
            assert!(check_golden(&job, &o).is_err());
        }
    }

    /// Prints `golden::DIGESTS` for the code as it is:
    /// `cargo test --release --offline --manifest-path perfbench/Cargo.toml
    /// -- --ignored --nocapture print_golden_digests`.
    #[test]
    #[ignore = "records the golden digests; run by hand"]
    fn print_golden_digests() {
        let flow = SpnrFlow::new(spec(), DESIGN_SEED);
        for combo in 0..COMBOS {
            let row: Vec<String> = (0..SAMPLES)
                .map(|sample| {
                    let job = job(flow.fmax_ref_ghz(), combo, sample);
                    let d = outcome_digest(&flow.run_physical(&job.options, job.sample));
                    format!(
                        "0x{:04x}_{:04x}_{:04x}_{:04x},",
                        d >> 48,
                        d >> 32 & 0xffff,
                        d >> 16 & 0xffff,
                        d & 0xffff
                    )
                })
                .collect();
            println!("    {}", row.join(" "));
        }
    }

    #[test]
    fn replay_matches_run_physical_bit_for_bit() {
        let flow = SpnrFlow::new(DesignSpec::new(DesignClass::Cpu, 200).unwrap(), DESIGN_SEED);
        let t = Tracer::new(true);
        for job in job_list(1, flow.fmax_ref_ghz(), 4) {
            let parent = t.span("flow.job", None);
            let (r, _) = replay(&flow, DESIGN_SEED, &job, &t, &parent);
            let mut o = flow.run_physical(&job.options, job.sample);
            assert_eq!(outcome_digest(&r), outcome_digest(&o));
            // One ulp of one field is a different outcome.
            o.hpwl_um = f64::from_bits(o.hpwl_um.to_bits() + 1);
            assert_ne!(outcome_digest(&o), outcome_digest(&r));
        }
    }
}
