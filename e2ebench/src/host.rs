//! The host facilities the benchmark needs beyond `std`: the calling
//! thread's CPU time, pinning the process to one CPU, and letting one
//! probe thread use every CPU again.
//!
//! On a shared virtual machine the hypervisor deschedules vCPUs for
//! milliseconds at a time. A resolve caught by that shows the stall in
//! its wall time but not in its thread CPU time, which the guest kernel
//! accounts without stolen time.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run.
pub fn thread_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark runs on) for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Restricts the calling thread — and every thread it spawns later — to
/// the CPU it is running on, so `available_parallelism` reports 1 and
/// the program's thread fan-outs run sequentially. Call before any
/// thread is spawned.
pub fn pin_to_current_cpu() -> Result<(), String> {
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond a cpu_set_t"))?;
    *word |= 1 << (cpu % 64);
    set_affinity(&mask).map_err(|()| format!("sched_setaffinity to CPU {cpu} failed"))
}

/// Lets the calling thread — and every thread it spawns later — run on
/// every CPU the host allows again, undoing [`pin_to_current_cpu`] for
/// it alone.
pub fn allow_every_cpu() -> Result<(), String> {
    // The kernel intersects the mask with the CPUs that exist and that
    // the process's cpuset allows.
    set_affinity(&[u64::MAX; 16]).map_err(|()| "sched_setaffinity to every CPU failed".into())
}

/// Sets the calling thread's affinity to the `cpu_set_t` in `mask`.
fn set_affinity(mask: &[u64; 16]) -> Result<(), ()> {
    // SAFETY: `mask` is a live, readable 128-byte `cpu_set_t` for the
    // whole call and its size is passed alongside; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn thread_cpu_time_advances_with_work() {
        let start = super::thread_cpu_secs();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(super::thread_cpu_secs() > start);
    }

    #[test]
    fn pinned_thread_sees_one_cpu() {
        // On a fresh thread, so the test harness's threads keep theirs.
        std::thread::spawn(|| {
            super::pin_to_current_cpu().expect("pin");
            let n = std::thread::available_parallelism().expect("parallelism");
            assert_eq!(n.get(), 1);
        })
        .join()
        .expect("pinned thread");
    }
}
