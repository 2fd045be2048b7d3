//! One processor per shard worker.
//!
//! On the 2-vCPU build host the kernel now and then leaves both shard
//! workers on one processor for a second or more before it moves one.
//! While that lasts a query costs the sum of the shards' times, not the
//! larger one, and a sat replay runs a third slower; which rounds it hits
//! is chance. The benchmark therefore gives worker *i* processor
//! *i* mod *n*, as an operator would with `taskset`. The driver thread is
//! left to the scheduler. The pool names its threads `moa-shard-<i>`;
//! a thread with another name is left alone, and the run prints how many
//! were pinned.

use std::fs;

extern "C" {
    /// `sched_setaffinity(2)`, from the C library `std` already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The shard number in a worker thread's name.
fn shard_of(thread_name: &str) -> Option<usize> {
    thread_name.trim().strip_prefix("moa-shard-")?.parse().ok()
}

/// Pin every shard worker of this process; the number pinned. Threads of
/// sessions that were shut down are gone from `/proc` and cost nothing.
pub fn pin_shard_workers() -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut pinned = 0;
    for task in tasks.flatten() {
        let name = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let tid = task.file_name().to_string_lossy().parse::<i32>();
        let (Some(shard), Ok(tid)) = (shard_of(&name), tid) else {
            continue;
        };
        let mask = 1u64 << ((shard % cpus) % 64);
        // SAFETY: `mask` is a live, aligned u64 and the size passed is its
        // size in bytes; the call reads it and touches no other memory.
        // A thread that has exited makes it fail with ESRCH, no more.
        if unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) } == 0 {
            pinned += 1;
        }
    }
    pinned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_pools_worker_names_are_recognised() {
        assert_eq!(shard_of("moa-shard-0\n"), Some(0));
        assert_eq!(shard_of("moa-shard-17"), Some(17));
        assert_eq!(shard_of("moabench"), None);
        assert_eq!(shard_of("moa-shard-x"), None);
    }
}
