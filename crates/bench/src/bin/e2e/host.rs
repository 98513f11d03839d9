//! What the harness reads from the host: identity for the result record,
//! and this process's own memory high-water mark and CPU time.

use std::process::Command;
use std::time::Instant;

use crate::json::Json;

/// Worker threads every `*_with_threads` / `RunOptions::threads` call gets.
/// One, because on a shared two-core host a second worker measures the
/// scheduler, not the program (see the README).
pub const WORKER_THREADS: usize = 1;

/// Shard actors of the transport workload: the one threaded workload.
pub const TRANSPORT_ACTORS: usize = 2;

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not offer it.
pub fn peak_rss_mib() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kib: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds (user + system) this process has used so far, threads that
/// already exited included. `/proc/self/stat` counts in clock ticks, which
/// Linux fixes at 100 per second for user space.
pub fn process_cpu_seconds() -> Option<f64> {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Milliseconds this host takes, right now, for a fixed piece of
/// single-threaded work (a multiply-xorshift walk over a 256 KiB table).
///
/// The reference host is shared: for minutes at a time everything on it
/// runs up to 40% slower. A record carries this reading from before and
/// after the measurement, so that a metric that moved together with it can
/// be told from one that moved on its own.
pub fn calibration_ms() -> f64 {
    const WORDS: usize = 32 * 1024;
    const STEPS: usize = 4_000_000;
    let mut table: Vec<u64> = (0..WORDS as u64).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let start = Instant::now();
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) % WORDS;
        table[slot] = table[slot].wrapping_mul(0x2545_F491_4F6C_DD1D) ^ x;
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}

/// The host part of a result record.
pub fn host_record() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let mut fields = vec![
        ("nproc", Json::from(nproc)),
        ("cpu_model", Json::from(cpu)),
        ("rustc", Json::from(rustc)),
        ("worker_threads", Json::from(WORKER_THREADS)),
        ("transport_actors", Json::from(TRANSPORT_ACTORS)),
    ];
    if let Ok(value) = std::env::var(p3q_sim::parallel::THREADS_ENV) {
        fields.push((
            "note",
            Json::from(format!(
                "{}={value} is set in the environment and ignored: every call is pinned to \
                 {WORKER_THREADS} worker thread(s)",
                p3q_sim::parallel::THREADS_ENV
            )),
        ));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        // The container is Linux; on a host without /proc these are None
        // and the workloads report the absence instead of a fake number.
        if let Some(rss) = peak_rss_mib() {
            assert!(rss > 0.5, "{rss}");
        }
        if let Some(cpu) = process_cpu_seconds() {
            assert!(cpu >= 0.0);
        }
        assert!(calibration_ms() > 0.0);
        let record = host_record();
        assert!(record.get("nproc").is_some());
        assert_eq!(
            record.get("worker_threads").and_then(Json::as_f64),
            Some(WORKER_THREADS as f64)
        );
    }
}
