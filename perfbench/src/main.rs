//! ideaflow end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <physical_flow|campaign_watch|submit_open>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs print the end-to-end metrics; traced runs print the
//! per-layer metrics, measured by spans the harness records around its
//! own calls into each layer's public functions. The last line of
//! standard output is the result object; the lines before it record the
//! host and the run.

mod affinity;
mod daemon;
mod golden;
mod host;
mod http;
mod physical;
mod stats;
mod trace;

use std::process::ExitCode;

/// splitmix64: the harness's only source of generated inputs.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// FNV-1a over 64-bit words.
pub struct Fnv(u64);

impl Default for Fnv {
    /// Starts from the offset basis.
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in one word, byte by byte.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (jobs, campaigns, arrivals, checks).
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra JSON objects printed before the result line.
    pub details: Vec<String>,
    /// Why each failure happened.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Reports a metric; a value that is not a finite number is a failure.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is {value}"));
        }
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Reports a metric that may not be measurable (too few samples);
    /// a missing one is a failure, never a silent gap.
    pub fn metric_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.metric(name, v, unit),
            None => self.fail(format!("metric {name} has too few samples")),
        }
    }

    /// Adds a JSON object to the run record.
    pub fn detail(&mut self, json: &str) {
        self.details.push(json.to_owned());
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Every per-layer metric, with its unit.
const PER_LAYER: [(&str, &str); 35] = [
    ("place.seed_ms_p50", "ms"),
    ("place.seed_share", "share"),
    ("place.anneal_ms_p50", "ms"),
    ("place.anneal_share", "share"),
    ("place.anneal_accepted", "count"),
    ("route.global_ms_p50", "ms"),
    ("route.global_share", "share"),
    ("timing.signoff_ms_p50", "ms"),
    ("timing.signoff_share", "share"),
    ("place.cts_ms_p50", "ms"),
    ("route.detail_ms_p50", "ms"),
    ("netlist.generate_ms", "ms"),
    ("timing.calibrate_ms", "ms"),
    ("bench.replay_gap_share", "share"),
    ("serve.ack_ms_p50", "ms"),
    ("serve.ack_ms_p90", "ms"),
    ("metrics.http_rtt_ms_p50", "ms"),
    ("serve.handler_ms_mean", "ms"),
    ("serve.queue.submit_ms_p50", "ms"),
    ("serve.queue.claim_ms_p50", "ms"),
    ("serve.queue.finish_ms_p50", "ms"),
    ("bench.chaos_run_ms_p50", "ms"),
    ("trace.journal_finish_ms_p50", "ms"),
    ("trace.journal_bytes", "bytes"),
    ("trace.stream_ms_p50", "ms"),
    ("trace.stream_bytes", "bytes"),
    ("serve.overhead_ms_p50", "ms"),
    ("flow.cache_hit_rate", "share"),
    ("trace.events_per_campaign", "count"),
    ("serve.queue.depth_max", "count"),
    ("serve.backlog_end", "count"),
    ("serve.drain_s", "s"),
    ("bench.late_ms_p90", "ms"),
    ("bench.trace_overhead_share", "share"),
    ("place.floorplan_ms_p50", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    if args.seconds == 0 || args.seconds > 600 {
        return Err(format!(
            "--seconds must be in 1..=600, got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = host::nproc();
    let steal = host::StealMeter::start();
    let mut out = match args.workload.as_str() {
        "physical_flow" => physical::run(args.seed, args.seconds, args.trace),
        "campaign_watch" => daemon::campaign_watch(args.seed, args.seconds, args.trace),
        "submit_open" => daemon::submit_open(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let unknown: Vec<String> = out
            .metrics
            .iter()
            .filter(|(n, _, _)| !PER_LAYER.iter().any(|(p, _)| p == n))
            .map(|(n, _, _)| n.clone())
            .collect();
        for name in unknown {
            out.fail(format!("metric {name} is not a declared per-layer metric"));
        }
        // Every traced run reports every layer; 0 marks a layer this
        // workload never calls.
        for (name, unit) in PER_LAYER {
            if !out.metrics.iter().any(|(n, _, _)| n == name) {
                out.metric(name, 0.0, unit);
            }
        }
    } else {
        out.metric_opt("peak_rss_mb", host::peak_rss_mb(), "MB");
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{{\"host\": {}}}", host::record_json(nproc, &steal));
    for d in &out.details {
        println!("{{\"run\": {d}}}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
