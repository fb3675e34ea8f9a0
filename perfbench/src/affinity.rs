//! Rotates the calling thread across the CPUs it may run on.
//!
//! On a shared host each CPU sees its own interference from other
//! tenants, and the scheduler tends to keep a lone thread on one CPU for
//! a whole run. Moving the job thread to the next CPU before each job
//! makes every run sample every CPU equally, so runs differ less.

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on (empty where unknown).
#[must_use]
pub fn allowed() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc == 0 {
            return (0..1024)
                .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Moves the calling thread to the `i`-th of `cpus`, round robin. Threads
/// spawned afterwards inherit the pin, so call it only on a thread that
/// spawns none.
pub fn rotate(cpus: &[usize], i: usize) {
    if !cpus.is_empty() {
        pin(cpus[i % cpus.len()]);
    }
}

/// Restricts the calling thread to `cpu`; false if the call failed.
pub fn pin(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if cpu < 1024 {
            let mut set: CpuSet = [0; 16];
            set[cpu / 64] |= 1 << (cpu % 64);
            // SAFETY: `set` is a readable buffer of exactly the size
            // passed; pid 0 names the calling thread.
            return unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } == 0;
        }
    }
    let _ = cpu;
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_an_allowed_cpu_succeeds_and_narrows_the_set() {
        let cpus = allowed();
        if let Some(&first) = cpus.first() {
            std::thread::spawn(move || {
                assert!(pin(first));
                assert_eq!(allowed(), vec![first]);
            })
            .join()
            .unwrap();
        }
    }
}
