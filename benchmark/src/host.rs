//! The host clock: on-CPU time of this thread, peak resident memory, and the
//! in-memory span recorder the traced run writes out at exit.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Keep the allocator's mmap threshold at its initial 128 KiB.
///
/// glibc raises the threshold the first time a large block is freed, so from
/// the second repetition on the rings (`vec![0; 1 << 20]`) would come out of
/// recycled heap that `calloc` has to zero — every ring page resident, and a
/// set-up phase that costs more than the first repetition's. With the
/// threshold pinned every repetition gets its rings the way a fresh process
/// does, as untouched zero pages, and returns them when its `Sim` is dropped:
/// the R repetitions are alike in memory as well as in virtual time.
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` only stores the value in the allocator's parameters;
    // it is called before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) was refused");
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds this thread has spent on a CPU. Unlike the wall clock it does
/// not advance while the thread is descheduled, which is most of the noise
/// on a shared two-core box.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`-layout struct (two 64-bit
    // fields on every 64-bit Linux target, the only platform the benchmark
    // supports) and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line: {line}"))?;
    Ok(kb / 1024.0)
}

/// A CPU-and-wall stopwatch for one phase of a repetition.
#[derive(Copy, Clone)]
pub struct Stopwatch {
    cpu0: u64,
    wall0: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu0: thread_cpu_ns(),
            wall0: Instant::now(),
        }
    }

    /// `(on-CPU ns, wall ns)` since [`Stopwatch::start`].
    pub fn elapsed(&self) -> (u64, u64) {
        (
            thread_cpu_ns() - self.cpu0,
            self.wall0.elapsed().as_nanos() as u64,
        )
    }
}

/// One recorded host span: a call the benchmark made into a layer.
#[derive(Clone, Debug)]
pub struct HostSpan {
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Wall-clock start and end, nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// On-CPU nanoseconds between start and end.
    pub cpu_ns: u64,
}

impl HostSpan {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Disabled (the untraced invocation) it records
/// nothing and costs one branch per call.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<HostSpan>,
    open: Vec<(usize, u64)>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested under the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let idx = self.spans.len();
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(HostSpan {
            name: name.to_string(),
            parent: self.open.last().map(|&(i, _)| i),
            start_ns: now,
            end_ns: now,
            cpu_ns: 0,
        });
        self.open.push((idx, thread_cpu_ns()));
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let (idx, cpu0) = self.open.pop().expect("exit without a matching enter");
        let s = &mut self.spans[idx];
        s.end_ns = self.origin.elapsed().as_nanos() as u64;
        s.cpu_ns = thread_cpu_ns() - cpu0;
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    pub fn all(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Self time of every span: its wall duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(HostSpan::wall_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.wall_ns());
            }
        }
        own
    }

    /// Largest relative gap, over top-level spans, between a span's duration
    /// and the self times of its subtree. Zero when every child lies inside
    /// its parent; the traced run fails above 1 %.
    pub fn accounting_error(&self) -> f64 {
        let own = self.self_ns();
        let mut subtree = own.clone();
        for i in (0..self.spans.len()).rev() {
            if let Some(p) = self.spans[i].parent {
                subtree[p] += subtree[i];
            }
        }
        self.spans
            .iter()
            .zip(&subtree)
            .filter(|(s, _)| s.parent.is_none() && s.wall_ns() > 0)
            .map(|(s, &sum)| (sum as f64 - s.wall_ns() as f64).abs() / s.wall_ns() as f64)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(thread_cpu_ns() > t0, "cpu clock stuck ({x})");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let mut sp = Spans::new(true);
        sp.enter("root");
        sp.scope("a", |sp| {
            sp.scope("a1", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        sp.scope("b", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        sp.exit();
        let names: Vec<&str> = sp.all().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "a", "a1", "b"]);
        assert_eq!(sp.all()[2].parent, Some(1));
        assert_eq!(sp.all()[3].parent, Some(0));
        let own = sp.self_ns();
        assert_eq!(own.iter().sum::<u64>(), sp.all()[0].wall_ns());
        assert!(own[2] >= 2_000_000);
        assert!(sp.accounting_error() < 1e-9);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        sp.scope("x", |sp| sp.scope("y", |_| ()));
        assert!(sp.all().is_empty());
    }
}
