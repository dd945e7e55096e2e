//! Host descriptor and process peak memory, read without touching files.

/// What the results depend on about the machine.
pub struct Host {
    /// Cores this process may run on.
    pub nproc: usize,
    /// CPU brand string, or "unknown".
    pub cpu: String,
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_brand().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The CPUID processor brand string.
#[cfg(target_arch = "x86_64")]
fn cpu_brand() -> Option<String> {
    use std::arch::x86_64::__cpuid;
    // SAFETY: the CPUID instruction exists on every x86-64 processor, and
    // leaves above the maximum are checked below before they are read.
    #[allow(unused_unsafe)]
    let cpuid = |leaf: u32| unsafe { __cpuid(leaf) };
    if cpuid(0x8000_0000).eax < 0x8000_0004 {
        return None;
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002..=0x8000_0004 {
        let r = cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let brand = String::from_utf8_lossy(&bytes);
    Some(
        brand
            .trim_matches(|c: char| c == '\0' || c.is_whitespace())
            .to_string(),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> Option<String> {
    None
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of this process (VmHWM), MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mib() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value laid out as this target's
    // `struct rusage`, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u.maxrss_kib as f64 / 1024.0
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mib() -> f64 {
    f64::NAN
}
