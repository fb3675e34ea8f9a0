//! The two daemon workloads, driven over HTTP against an in-process
//! `Daemon` with 2 workers on a fresh state directory.
//!
//! - `campaign_watch`: a closed loop of 2 clients; each submits a seeded
//!   6-round chaos campaign, follows its journal stream until it closes,
//!   reads the status and submits the next.
//! - `submit_open`: an open loop of seeded Poisson arrivals of small
//!   mixed campaigns, sent over at most 2 connections; latency counts
//!   from each arrival's due time.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use ideaflow_bench::experiments::fig06_orchestration::{run_chaos_gwtw_cancellable, ChaosConfig};
use ideaflow_flow::cache::QorCache;
use ideaflow_serve::queue::DurableQueue;
use ideaflow_serve::{CampaignSpec, Daemon, DaemonConfig};
use ideaflow_trace::{EventStream, Journal, JournalFormat};
use serde::Value;

use crate::http::{self, Reply};
use crate::stats::{mean, median, percentile};
use crate::trace::{self_ms_by_name, Tracer};
use crate::{Outcome, SplitMix};

/// Worker threads in the daemon.
const WORKERS: usize = 2;
/// Load-generator threads, each with at most one open connection.
const CLIENTS: usize = 2;
/// `Daemon::start` repetitions behind `setup_s`.
const SETUP_REPEATS: usize = 25;
/// Distinct chaos specs per `campaign_watch` run; each is also run in
/// process to check the daemon's result bit for bit.
const SPEC_POOL: usize = 8;
/// Untimed campaigns per client before the measured ones.
const WARMUP_PER_CLIENT: usize = 2;
/// Mean arrival rate of `submit_open`, per second. About half the rate
/// at which the backlog starts to grow on 2 cores.
pub const OPEN_RATE: f64 = 50.0;
/// Campaign kinds of `submit_open`, drawn uniformly, each at the sizes
/// the API defaults to.
const OPEN_KINDS: [&str; 4] = ["gwtw", "multistart", "bandit", "chaos"];
/// Untimed arrivals at the start of `submit_open`.
const OPEN_WARMUP: usize = 10;
/// Samples per side measurement in traced runs (enough for a p50 with
/// ten samples beyond it).
const PROBES: usize = 40;

/// A fresh state root under the working directory, emptied on drop.
///
/// Emptied, not removed: on ext4, unlinking thousands of files that
/// still hold data slows every file and directory creation for minutes
/// afterwards (0.06 ms per directory with no recent deletions, up to
/// 2 ms after a few thousand, on the reference host), so removing a
/// run's journals at its end would slow the set-up and journal creation
/// of the run after it. Truncating frees the data without that effect,
/// and unlinking the empty files later is cheap (9,000 in 0.09 s, with
/// creation times unchanged afterwards), so each run removes the roots
/// earlier runs left before it times anything.
struct StateRoot(PathBuf);

impl StateRoot {
    fn new(workload: &str) -> std::io::Result<Self> {
        let base = std::env::current_dir()?.join(".bench_state");
        if base.exists() {
            fs::remove_dir_all(&base)?;
        }
        fs::create_dir_all(&base)?;
        let path = base.join(format!("{workload}-{}", std::process::id()));
        fs::create_dir(&path)?;
        sync_fs(&path)?;
        Ok(Self(path))
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

/// Flushes the file system that holds `dir` (`syncfs`), so that the
/// writeback and journal commits an earlier run left behind are not
/// charged to this run's set-up and journal timings.
fn sync_fs(dir: &Path) -> std::io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        extern "C" {
            fn syncfs(fd: i32) -> i32;
        }
        let f = fs::File::open(dir)?;
        // SAFETY: `f` keeps the descriptor open for the whole call.
        if unsafe { syncfs(f.as_raw_fd()) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Truncates every regular file under `dir` to zero length.
fn truncate_tree(dir: &Path) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let kind = entry.file_type()?;
        if kind.is_dir() {
            truncate_tree(&entry.path())?;
        } else if kind.is_file() {
            fs::OpenOptions::new()
                .write(true)
                .open(entry.path())?
                .set_len(0)?;
        }
    }
    Ok(())
}

impl Drop for StateRoot {
    fn drop(&mut self) {
        if let Err(e) = truncate_tree(&self.0) {
            eprintln!("perfbench: emptying {}: {e}", self.0.display());
        }
    }
}

fn config(state_dir: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(state_dir);
    cfg.workers = WORKERS;
    // No pacing: the environment variable some tests set must not leak in.
    cfg.round_hold = None;
    cfg
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The daemon the workload runs against, on a fresh state dir.
fn start_daemon(root: &StateRoot, out: &mut Outcome) -> Option<Daemon> {
    Daemon::start(&config(&root.dir("main")))
        .map_err(|e| out.fail(format!("Daemon::start: {e}")))
        .ok()
}

/// `Daemon::start` times on fresh state dirs, taken before the
/// workload's daemon starts, while no other daemon runs. Not after the
/// load: for a while after a run has written its thousands of journals,
/// file creation on the reference host is 2–3 times slower, which says
/// nothing about `Daemon::start`.
fn time_setups(root: &StateRoot, out: &mut Outcome) -> Vec<f64> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let dir = root.dir(&format!("setup-{}", times.len()));
        let start = Instant::now();
        match Daemon::start(&config(&dir)) {
            Ok(d) => {
                times.push(start.elapsed().as_secs_f64());
                drop(d);
            }
            Err(e) => out.fail(format!("Daemon::start: {e}")),
        }
    }
    times
}

/// The campaign id from a 201 body.
fn created_id(r: &Reply) -> Option<String> {
    if r.status != 201 {
        return None;
    }
    let v: Value = serde_json::from_str(&r.body).ok()?;
    v.get("id")?.as_str().map(str::to_owned)
}

/// Final status of one campaign, as the API reports it.
#[derive(Debug)]
struct Status {
    state: String,
    ok: bool,
    best_bits: Option<String>,
}

fn parse_status(v: &Value) -> Status {
    Status {
        state: v
            .get("state")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_owned(),
        ok: matches!(v.get("ok"), Some(Value::Bool(true))),
        best_bits: v
            .get("best_bits")
            .and_then(Value::as_str)
            .map(str::to_owned),
    }
}

/// One value from a Prometheus exposition, by exact series name.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok())?
    })
}

/// Pending depth over the queue journal: the highest depth reached, and
/// the non-terminal count when the last submission was acked.
fn queue_fold(state_dir: &Path) -> std::io::Result<(f64, f64)> {
    let (mut pending, mut open, mut depth_max, mut backlog_at_last) = (0i64, 0i64, 0i64, 0i64);
    for event in EventStream::open(state_dir.join("queue.ifj"))? {
        let event = event.map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        match event.step.as_str() {
            "queue.accepted" => {
                pending += 1;
                open += 1;
                backlog_at_last = open;
            }
            "queue.started" => pending -= 1,
            "queue.finished" | "campaign.cancelled" => open -= 1,
            _ => {}
        }
        depth_max = depth_max.max(pending);
    }
    Ok((depth_max as f64, backlog_at_last as f64))
}

/// After the daemon has drained: the queue journal's depth figures, and
/// a fresh `DurableQueue::open` that must find nothing in flight.
fn check_recovery(state_dir: &Path, out: &mut Outcome) -> (f64, f64) {
    out.attempted += 1;
    let fold = queue_fold(state_dir).unwrap_or_else(|e| {
        out.fail(format!("queue journal unreadable: {e}"));
        (0.0, 0.0)
    });
    match DurableQueue::open(state_dir, usize::MAX, None) {
        Ok((_, 0)) => {}
        Ok((_, n)) => out.fail(format!("{n} campaigns recovered in flight after drain")),
        Err(e) => out.fail(format!("DurableQueue::open: {e}")),
    }
    fold
}

/// Side measurements shared by both daemon workloads (traced runs):
/// idle `/healthz` round trips, the handler's own time from `/metrics`
/// sums, cache and event counters, and direct calls on a side queue.
/// Reports their metrics.
fn probe_daemon(port: u16, campaigns: usize, root: &StateRoot, t: &Tracer, out: &mut Outcome) {
    for _ in 0..PROBES {
        let t0 = Instant::now();
        match http::call(port, "GET", "/healthz", "", true) {
            Ok(r) if r.status == 200 => t.record("metrics.http_rtt", t0, Instant::now()),
            _ => out.fail("GET /healthz failed".into()),
        }
    }
    match http::call(port, "GET", "/metrics", "", true) {
        Ok(r) if r.status == 200 => {
            let v = |n: &str| prom_value(&r.body, n);
            let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?).filter(|x| x.is_finite());
            out.metric_opt(
                "serve.handler_ms_mean",
                ratio(
                    v("ideaflow_serve_request_ms_sum"),
                    v("ideaflow_serve_request_ms_count"),
                ),
                "ms",
            );
            let hits = v("ideaflow_flow_cache_hits_total");
            let lookups = hits
                .zip(v("ideaflow_flow_cache_misses_total"))
                .map(|(h, m)| h + m);
            out.metric_opt("flow.cache_hit_rate", ratio(hits, lookups), "share");
            out.metric_opt(
                "trace.events_per_campaign",
                ratio(v("ideaflow_journal_events_total"), Some(campaigns as f64)),
                "count",
            );
        }
        _ => out.fail("GET /metrics failed".into()),
    }

    let side = match DurableQueue::open(&root.dir("side"), usize::MAX, None) {
        Ok((q, _)) => q,
        Err(e) => {
            out.fail(format!("side queue: {e}"));
            return;
        }
    };
    let spec = CampaignSpec::from_value(
        &serde_json::from_str::<Value>("{\"kind\": \"gwtw\", \"dim\": 8, \"seed\": 1}")
            .expect("literal JSON"),
    )
    .expect("literal spec");
    let mut ids = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let t0 = Instant::now();
        let id = side.submit(spec.clone());
        t.record("serve.queue.submit", t0, Instant::now());
        match id {
            Ok(id) => ids.push(id),
            Err(e) => out.fail(format!("side queue submit: {e:?}")),
        }
    }
    for _ in 0..ids.len() {
        let t0 = Instant::now();
        let claim = side.claim();
        t.record("serve.queue.claim", t0, Instant::now());
        if claim.is_none() {
            out.fail("side queue claim found nothing".into());
        }
    }
    for id in &ids {
        let t0 = Instant::now();
        side.finish(id, true, Some("0"), Some(0.0), None);
        t.record("serve.queue.finish", t0, Instant::now());
    }
    let by_name = self_ms_by_name(&t.records());
    for span in [
        "metrics.http_rtt",
        "serve.queue.submit",
        "serve.queue.claim",
        "serve.queue.finish",
    ] {
        out.metric_opt(&format!("{span}_ms_p50"), span_p50(&by_name, span), "ms");
    }
}

/// p50 of the durations of the spans called `name`.
fn span_p50(by_name: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> Option<f64> {
    by_name.get(name).and_then(|v| percentile(v, 0.5))
}

/// Tracing overhead from alternating traced and untraced operations in
/// one run: median traced over median untraced, minus one.
fn overhead(traced: &[f64], untraced: &[f64]) -> Option<f64> {
    Some(median(traced)? / median(untraced)? - 1.0)
}

/// The submission body of `chaos_config(seed)`.
fn chaos_spec_json(seed: u64) -> String {
    let c = chaos_config(seed);
    format!(
        "{{\"kind\": \"chaos\", \"rounds\": {}, \"seed\": {}, \"fault_rate\": {}}}",
        c.rounds, c.seed, c.fault_rate
    )
}

/// The `campaign_watch` chaos campaign: 6 rounds, 2% faults per mode.
fn chaos_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        rounds: 6,
        seed,
        fault_rate: 0.02,
        ..ChaosConfig::default()
    }
}

/// Campaigns measured per `campaign_watch` run: about 25 per second of
/// `seconds`, never fewer than 100.
#[must_use]
pub fn watch_count(seconds: u64) -> usize {
    (25 * seconds as usize).max(100)
}

/// The seeded `campaign_watch` plan: the chaos seeds of the spec pool,
/// and which pool entry each campaign (warm-up first) submits.
#[must_use]
pub fn watch_plan(seed: u64, campaigns: usize) -> (Vec<u64>, Vec<usize>) {
    let mut rng = SplitMix::new(seed ^ 0x5741_5443);
    let pool = (0..SPEC_POOL).map(|_| rng.next_u64() % 1_000_000).collect();
    let picks = (0..campaigns)
        .map(|_| (rng.next_u64() % SPEC_POOL as u64) as usize)
        .collect();
    (pool, picks)
}

struct Watched {
    pick: usize,
    id: String,
    ack_ms: f64,
    turnaround_ms: f64,
    status: Status,
    traced: bool,
}

/// Runs `campaign_watch`.
#[must_use]
pub fn campaign_watch(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let root = match StateRoot::new("campaign_watch") {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("state dir: {e}"));
            return out;
        }
    };
    let setup_s = time_setups(&root, &mut out);
    let Some(daemon) = start_daemon(&root, &mut out) else {
        return out;
    };
    let port = daemon.port();
    let warmup = WARMUP_PER_CLIENT * CLIENTS;
    let measured = watch_count(seconds);
    let (pool, picks) = watch_plan(seed, warmup + measured);
    let t = Tracer::new(traced);
    let off = Tracer::new(false);

    let results: Mutex<Vec<(usize, Result<Watched, String>)>> = Mutex::new(Vec::new());
    let barrier = Barrier::new(CLIENTS);
    // Start and end of the measured phase, set by the clients.
    let wall: Mutex<(Option<Instant>, Option<Instant>)> = Mutex::new((None, None));
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (pool, picks, results, barrier, wall, t, off) =
                (&pool, &picks, &results, &barrier, &wall, &t, &off);
            s.spawn(move || {
                // Client c owns every CLIENTS-th campaign; the first
                // WARMUP_PER_CLIENT of them are untimed.
                let mine: Vec<usize> = (c..picks.len()).step_by(CLIENTS).collect();
                for (k, &i) in mine.iter().enumerate() {
                    if k == WARMUP_PER_CLIENT && barrier.wait().is_leader() {
                        wall.lock().expect("wall lock").0 = Some(Instant::now());
                    }
                    // Traced runs alternate traced and untraced campaigns
                    // so the tracing overhead is measured in the same run.
                    let tr = if k % 2 == 0 { t } else { off };
                    let r = watch_one(port, pool[picks[i]], picks[i], tr);
                    results.lock().expect("results lock").push((i, r));
                }
                let mut w = wall.lock().expect("wall lock");
                w.1 = w.1.max(Some(Instant::now()));
            });
        }
    });
    let wall_s = match wall.into_inner().expect("wall lock") {
        (Some(t0), Some(t1)) => (t1 - t0).as_secs_f64(),
        _ => f64::NAN,
    };

    let mut results = results.into_inner().expect("results lock");
    results.sort_by_key(|(i, _)| *i);
    let mut watched = Vec::new();
    for (i, r) in results {
        out.attempted += 1;
        match r {
            Ok(w) => watched.push((i, w)),
            Err(e) => out.fail(format!("campaign {i}: {e}")),
        }
    }

    // Every pool spec, run in process with a binary file journal: the
    // reference bits, and (traced) the cost of the campaign body alone.
    let refs_dir = root.dir("refs");
    let _ = fs::create_dir_all(&refs_dir);
    let reps = if traced { 3 } else { 1 };
    let mut reference = Vec::with_capacity(pool.len());
    let mut journal_bytes = Vec::new();
    for (k, &chaos_seed) in pool.iter().enumerate() {
        let mut bits = None;
        for rep in 0..reps {
            let path = refs_dir.join(format!("{k}-{rep}.ifj"));
            let cfg = chaos_config(chaos_seed);
            let t0 = Instant::now();
            let journal = match Journal::to_file_with_format("ref", &path, JournalFormat::Binary) {
                Ok(j) => j,
                Err(e) => {
                    out.fail(format!("reference journal: {e}"));
                    continue;
                }
            };
            let o = run_chaos_gwtw_cancellable(
                &cfg,
                cfg.rounds,
                QorCache::new(),
                &journal,
                None,
                None,
                None,
            );
            let t1 = Instant::now();
            journal.finish();
            let t2 = Instant::now();
            t.record("bench.chaos_run", t0, t1);
            t.record("trace.journal_finish", t1, t2);
            journal_bytes.push(fs::metadata(&path).map_or(0.0, |m| m.len() as f64));
            bits = Some(format!("{:016x}", o.best_cost.to_bits()));
        }
        reference.push(bits);
    }
    for (i, w) in &watched {
        out.attempted += 1;
        if w.status.state != "done" || !w.status.ok {
            out.fail(format!("campaign {i} ({}) ended {:?}", w.id, w.status));
        } else if w.status.best_bits != reference[w.pick] {
            out.fail(format!(
                "campaign {i} ({}) best {:?} differs from the in-process run {:?}",
                w.id, w.status.best_bits, reference[w.pick]
            ));
        }
    }

    let timed: Vec<&Watched> = watched
        .iter()
        .filter(|(i, _)| *i >= warmup)
        .map(|(_, w)| w)
        .collect();
    let turnaround: Vec<f64> = timed.iter().map(|w| w.turnaround_ms).collect();
    let ack: Vec<f64> = timed.iter().map(|w| w.ack_ms).collect();

    if traced {
        // Non-follow streams of finished journals, counted byte by byte.
        let mut stream_bytes = Vec::new();
        for w in timed.iter().take(PROBES) {
            let t0 = Instant::now();
            match http::call(
                port,
                "GET",
                &format!("/campaigns/{}/journal", w.id),
                "",
                false,
            ) {
                Ok(r) if r.status == 200 => {
                    t.record("trace.stream", t0, Instant::now());
                    stream_bytes.push(r.body_bytes as f64);
                }
                _ => out.fail(format!("GET journal of {} failed", w.id)),
            }
        }
        probe_daemon(port, watched.len(), &root, &t, &mut out);
        let by_name = self_ms_by_name(&t.records());
        let chaos_ms = span_p50(&by_name, "bench.chaos_run");
        out.metric_opt("serve.ack_ms_p50", percentile(&ack, 0.5), "ms");
        out.metric_opt("serve.ack_ms_p90", percentile(&ack, 0.9), "ms");
        out.metric_opt("bench.chaos_run_ms_p50", chaos_ms, "ms");
        out.metric_opt(
            "trace.journal_finish_ms_p50",
            span_p50(&by_name, "trace.journal_finish"),
            "ms",
        );
        out.metric_opt("trace.journal_bytes", mean(&journal_bytes), "bytes");
        out.metric_opt(
            "trace.stream_ms_p50",
            span_p50(&by_name, "trace.stream"),
            "ms",
        );
        out.metric_opt("trace.stream_bytes", mean(&stream_bytes), "bytes");
        let residual: Vec<f64> = timed
            .iter()
            .map(|w| w.turnaround_ms - w.ack_ms - chaos_ms.unwrap_or(0.0))
            .collect();
        out.metric_opt("serve.overhead_ms_p50", percentile(&residual, 0.5), "ms");
        let (on, off): (Vec<&&Watched>, Vec<&&Watched>) = timed.iter().partition(|w| w.traced);
        let pick = |v: Vec<&&Watched>| v.iter().map(|w| w.turnaround_ms).collect::<Vec<_>>();
        out.metric_opt(
            "bench.trace_overhead_share",
            overhead(&pick(on), &pick(off)),
            "share",
        );
    } else {
        out.metric_opt("latency_ms_p50", percentile(&turnaround, 0.5), "ms");
        out.metric_opt("latency_ms_p90", percentile(&turnaround, 0.9), "ms");
        out.metric("throughput_per_s", timed.len() as f64 / wall_s, "1/s");
    }

    drop(daemon);
    let (depth_max, _) = check_recovery(&root.dir("main"), &mut out);
    if traced {
        out.metric("serve.queue.depth_max", depth_max, "count");
    } else {
        out.metric_opt("setup_s", median(&setup_s), "s");
    }
    out.detail(&format!(
        "{{\"campaigns\": {}, \"warmup\": {warmup}, \"clients\": {CLIENTS}, \"workers\": {WORKERS}, \
         \"spec_pool\": {SPEC_POOL}}}",
        timed.len()
    ));
    out
}

/// Submit → follow the journal to its close → read the status.
fn watch_one(port: u16, chaos_seed: u64, pick: usize, t: &Tracer) -> Result<Watched, String> {
    let job = t.span("client.campaign", None);
    let t0 = Instant::now();
    let s = t.span("http.submit", Some(&job));
    let r = http::call(
        port,
        "POST",
        "/campaigns",
        &chaos_spec_json(chaos_seed),
        true,
    )
    .map_err(|e| format!("POST /campaigns: {e}"))?;
    drop(s);
    let t1 = Instant::now();
    let id = created_id(&r).ok_or_else(|| format!("submit answered {}: {}", r.status, r.body))?;
    let s = t.span("http.watch", Some(&job));
    let w = http::call(
        port,
        "GET",
        &format!("/campaigns/{id}/journal?follow=1"),
        "",
        false,
    )
    .map_err(|e| format!("follow {id}: {e}"))?;
    drop(s);
    let t2 = Instant::now();
    if w.status != 200 || w.body_bytes == 0 {
        return Err(format!(
            "follow {id} answered {} with {} bytes",
            w.status, w.body_bytes
        ));
    }
    let s = t.span("http.status", Some(&job));
    let st = http::call(port, "GET", &format!("/campaigns/{id}"), "", true)
        .map_err(|e| format!("status {id}: {e}"))?;
    drop(s);
    let v: Value = serde_json::from_str(&st.body).map_err(|e| format!("status {id}: {e:?}"))?;
    Ok(Watched {
        pick,
        id,
        ack_ms: ms(t1 - t0),
        turnaround_ms: ms(t2 - t0),
        status: parse_status(&v),
        traced: t.enabled(),
    })
}

/// One arrival of `submit_open`.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Due time after the schedule starts, seconds.
    pub due_s: f64,
    /// The submission body.
    pub body: String,
}

/// Arrivals per `submit_open` run: `OPEN_RATE` × `seconds`, never fewer
/// than 100 timed ones.
#[must_use]
pub fn open_count(seconds: u64) -> usize {
    ((OPEN_RATE * seconds as f64) as usize).max(100) + OPEN_WARMUP
}

/// The seeded Poisson schedule: `n` arrivals at `OPEN_RATE`, conditioned
/// on the count, so their times are sorted uniform draws over the fixed
/// span `n / OPEN_RATE` (gaps stay exponential; the run length does not
/// change with the seed). Each is a campaign of one of [`OPEN_KINDS`].
#[must_use]
pub fn open_schedule(seed: u64, n: usize) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed ^ 0x4f50_454e);
    let span_s = n as f64 / OPEN_RATE;
    let mut due: Vec<f64> = (0..n).map(|_| span_s * rng.unit()).collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .map(|due_s| {
            let s = rng.next_u64() % 1_000_000;
            let kind = OPEN_KINDS[(rng.next_u64() % OPEN_KINDS.len() as u64) as usize];
            let body = format!("{{\"kind\": \"{kind}\", \"seed\": {s}}}");
            Arrival { due_s, body }
        })
        .collect()
}

struct Sent {
    acked: Instant,
    late_ms: f64,
    latency_ms: f64,
    id: Result<String, String>,
    traced: bool,
}

/// Runs `submit_open`.
#[must_use]
pub fn submit_open(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let root = match StateRoot::new("submit_open") {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("state dir: {e}"));
            return out;
        }
    };
    let setup_s = time_setups(&root, &mut out);
    let Some(daemon) = start_daemon(&root, &mut out) else {
        return out;
    };
    let port = daemon.port();
    let schedule = open_schedule(seed, open_count(seconds));
    let t = Tracer::new(traced);
    let off = Tracer::new(false);

    let next = AtomicUsize::new(0);
    let sent: Mutex<Vec<Option<Sent>>> = Mutex::new((0..schedule.len()).map(|_| None).collect());
    let start = Instant::now() + Duration::from_millis(50);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let (schedule, next, sent, t, off) = (&schedule, &next, &sent, &t, &off);
            s.spawn(move || loop {
                // Relaxed: the counter hands out indices; results go
                // through the mutex.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(a) = schedule.get(i) else { return };
                let due = start + Duration::from_secs_f64(a.due_s);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let tr = if i % 2 == 0 { t } else { off };
                let sent_at = Instant::now();
                let span = tr.span("http.submit", None);
                let r = http::call(port, "POST", "/campaigns", &a.body, true);
                drop(span);
                let acked = Instant::now();
                let id = match r {
                    Ok(r) => created_id(&r).ok_or(format!("answered {}: {}", r.status, r.body)),
                    Err(e) => Err(e.to_string()),
                };
                sent.lock().expect("sent lock")[i] = Some(Sent {
                    acked,
                    late_ms: ms(sent_at.saturating_duration_since(due)),
                    latency_ms: ms(acked.saturating_duration_since(due)),
                    id,
                    traced: tr.enabled(),
                });
            });
        }
    });
    let sent: Vec<Sent> = sent
        .into_inner()
        .expect("sent lock")
        .into_iter()
        .map(|s| s.expect("every arrival sent"))
        .collect();
    let last_ack = sent.iter().map(|s| s.acked).max().unwrap_or(start);
    let mut ids = Vec::new();
    for (i, s) in sent.iter().enumerate() {
        out.attempted += 1;
        match &s.id {
            Ok(id) => ids.push(id.clone()),
            Err(e) => out.fail(format!("arrival {i}: {e}")),
        }
    }

    // Wait until every acked campaign is terminal.
    let mut statuses: Vec<(String, Status)> = Vec::new();
    let drained = loop {
        match http::call(port, "GET", "/campaigns", "", true) {
            Ok(r) if r.status == 200 => {
                let v: Value = serde_json::from_str(&r.body).unwrap_or(Value::Null);
                statuses = v
                    .as_array()
                    .unwrap_or(&[])
                    .iter()
                    .map(|c| {
                        let id = c.get("id").and_then(Value::as_str).unwrap_or("").to_owned();
                        (id, parse_status(c))
                    })
                    .collect();
                let busy = statuses
                    .iter()
                    .any(|(_, s)| s.state == "pending" || s.state == "running");
                if !busy {
                    break Instant::now();
                }
            }
            _ => {
                out.fail("GET /campaigns failed".into());
                break Instant::now();
            }
        }
        if last_ack.elapsed() > Duration::from_secs(120) {
            out.fail("campaigns still running 120 s after the last arrival".into());
            break Instant::now();
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    for id in &ids {
        out.attempted += 1;
        match statuses.iter().find(|(i, _)| i == id) {
            Some((_, s)) if s.state == "done" && s.ok => {}
            Some((_, s)) => out.fail(format!("campaign {id} ended {s:?}")),
            None => out.fail(format!("acked campaign {id} is missing")),
        }
    }

    let timed = &sent[OPEN_WARMUP.min(sent.len())..];
    let latency: Vec<f64> = timed.iter().map(|s| s.latency_ms).collect();
    if traced {
        probe_daemon(port, ids.len(), &root, &t, &mut out);
        let late: Vec<f64> = timed.iter().map(|s| s.late_ms).collect();
        out.metric_opt("bench.late_ms_p90", percentile(&late, 0.9), "ms");
        out.metric("serve.drain_s", (drained - last_ack).as_secs_f64(), "s");
        let (on, off): (Vec<&Sent>, Vec<&Sent>) = timed.iter().partition(|s| s.traced);
        let pick = |v: Vec<&Sent>| v.iter().map(|s| s.latency_ms).collect::<Vec<_>>();
        out.metric_opt(
            "bench.trace_overhead_share",
            overhead(&pick(on), &pick(off)),
            "share",
        );
    } else {
        out.metric_opt("latency_ms_p50", percentile(&latency, 0.5), "ms");
        out.metric_opt("latency_ms_p90", percentile(&latency, 0.9), "ms");
        out.metric(
            "throughput_per_s",
            ids.len() as f64 / (drained - start).as_secs_f64(),
            "1/s",
        );
    }

    drop(daemon);
    let (depth_max, backlog_end) = check_recovery(&root.dir("main"), &mut out);
    if traced {
        out.metric("serve.queue.depth_max", depth_max, "count");
        out.metric("serve.backlog_end", backlog_end, "count");
    } else {
        out.metric_opt("setup_s", median(&setup_s), "s");
    }
    out.detail(&format!(
        "{{\"arrivals\": {}, \"warmup\": {OPEN_WARMUP}, \"rate_per_s\": {OPEN_RATE}, \
         \"connections\": {CLIENTS}, \"workers\": {WORKERS}}}",
        sent.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_plan() {
        assert_eq!(open_schedule(5, 300), open_schedule(5, 300));
        assert_ne!(open_schedule(5, 300), open_schedule(6, 300));
        assert_eq!(watch_plan(5, 100), watch_plan(5, 100));
        assert_ne!(watch_plan(5, 100), watch_plan(6, 100));
    }

    #[test]
    fn schedule_is_poisson_at_the_stated_rate() {
        let s = open_schedule(1, 20_000);
        let rate = s.len() as f64 / s.last().unwrap().due_s;
        assert!((rate / OPEN_RATE - 1.0).abs() < 0.01, "rate {rate}");
        assert!(s.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let gaps: Vec<f64> = s.windows(2).map(|w| w[1].due_s - w[0].due_s).collect();
        let long = gaps.iter().filter(|g| **g > 1.0 / OPEN_RATE).count() as f64;
        assert!((long / gaps.len() as f64 - (-1.0f64).exp()).abs() < 0.02);
    }

    #[test]
    fn every_scheduled_body_is_a_valid_spec() {
        for a in open_schedule(3, 200) {
            let v: Value = serde_json::from_str(&a.body).unwrap();
            CampaignSpec::from_value(&v).unwrap();
        }
        let v: Value = serde_json::from_str(&chaos_spec_json(9)).unwrap();
        CampaignSpec::from_value(&v).unwrap();
    }

    #[test]
    fn queue_fold_tracks_depth() {
        let dir = std::env::temp_dir().join(format!("perfbench-fold-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (q, _) = DurableQueue::open(&dir, 100, None).unwrap();
        let spec = CampaignSpec::from_value(
            &serde_json::from_str::<Value>("{\"kind\": \"gwtw\"}").unwrap(),
        )
        .unwrap();
        let a = q.submit(spec.clone()).unwrap();
        q.submit(spec.clone()).unwrap();
        q.submit(spec).unwrap();
        q.claim().unwrap();
        q.finish(&a, true, Some("0"), Some(0.0), None);
        q.flush();
        drop(q);
        assert_eq!(queue_fold(&dir).unwrap(), (3.0, 3.0));
        let _ = fs::remove_dir_all(&dir);
    }
}
