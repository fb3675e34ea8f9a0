//! What the host looked like during a run: cores, CPU model, the share
//! of CPU time the hypervisor stole, and the process's peak RSS. Printed
//! with every result so a noisy run can be told apart from a slow program.

use std::fs;

/// Aggregate `cpu` line of `/proc/stat`: (steal ticks, all ticks).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so stop at steal.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Steal share between `start()` and `share()`.
pub struct StealMeter {
    start: Option<(u64, u64)>,
}

impl StealMeter {
    /// Reads the counters now.
    #[must_use]
    pub fn start() -> Self {
        Self { start: cpu_ticks() }
    }

    /// Steal ticks over all ticks since `start`; `None` where
    /// `/proc/stat` is unavailable.
    #[must_use]
    pub fn share(&self) -> Option<f64> {
        let (s0, t0) = self.start?;
        let (s1, t1) = cpu_ticks()?;
        let total = t1.checked_sub(t0)?;
        (total > 0).then(|| s1.saturating_sub(s0) as f64 / total as f64)
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// CPUs this process may use. Read it before any thread is pinned: the
/// count follows the calling thread's affinity mask.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
}

/// The host record as a JSON object, for `nproc` read at the start.
#[must_use]
pub fn record_json(nproc: usize, steal: &StealMeter) -> String {
    let steal = steal
        .share()
        .map_or_else(|| "null".to_owned(), |s| format!("{s}"));
    format!(
        "{{\"nproc\": {nproc}, \"nproc_source\": \"std::thread::available_parallelism\", \
         \"cpu_model\": {}, \"steal_share\": {steal}}}",
        crate::json_str(&cpu_model())
    )
}
