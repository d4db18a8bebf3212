//! Load generation from one process, never more threads than cores.
//!
//! * Closed phase: `threads` consumers call back to back; the figure is
//!   correct ops per second.
//! * Open phase: `threads` senders take alternate slots of a fixed
//!   schedule at a constant rate. Every request is timed from when it
//!   was *due*, so a stall also charges the requests queued behind it,
//!   and the schedule's own lateness is reported.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a phase did, failures included.
#[derive(Default)]
pub struct Tally {
    pub ok: u64,
    pub failed: u64,
    /// Rows (or XML items) the successful ops returned.
    pub rows: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, outcome: Result<usize, String>) {
        match outcome {
            Ok(rows) => {
                self.ok += 1;
                self.rows += rows as u64;
            }
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.rows += other.rows;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }
}

/// Run ops `0..n` one at a time on the calling thread.
pub fn serial<F>(n: u64, op: F) -> Tally
where
    F: Fn(u64) -> Result<usize, String>,
{
    let mut tally = Tally::default();
    for i in 0..n {
        tally.record(op(i));
    }
    tally
}

pub struct Closed {
    pub tally: Tally,
    pub elapsed: Duration,
}

impl Closed {
    pub fn throughput(&self) -> f64 {
        self.tally.ok as f64 / self.elapsed.as_secs_f64()
    }
}

/// Run ops `first, first+1, …` back to back on `threads` threads until
/// `duration` has passed. Each thread claims the next op index.
pub fn closed<F>(threads: usize, duration: Duration, first: u64, op: F) -> Closed
where
    F: Fn(u64) -> Result<usize, String> + Sync,
{
    let next = AtomicU64::new(first);
    let total = Mutex::new(Tally::default());
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut tally = Tally::default();
                while Instant::now() < deadline {
                    tally.record(op(next.fetch_add(1, Ordering::Relaxed)));
                }
                total.lock().expect("tally lock poisoned by a panicking thread").merge(tally);
            });
        }
    });
    let elapsed = start.elapsed();
    Closed { tally: total.into_inner().expect("tally lock poisoned"), elapsed }
}

pub struct Open {
    pub tally: Tally,
    /// Due → done, per successful request, in ns.
    pub latency_ns: Vec<u64>,
    /// Due → sent, per request, in ns: how late the generator ran.
    pub lateness_ns: Vec<u64>,
    pub offered: u64,
}

/// Offer `rate × duration` requests on a fixed schedule. Sender `j` of
/// `threads` owns slots `j, j + threads, …`; it sleeps to each slot's
/// due time (yielding, not spinning, for the last stretch, since the
/// system under test shares these cores), sends, and waits for the
/// reply. A failed request counts as missing every latency limit: it is
/// tallied as failed and left out of the latency samples.
pub fn open<F>(threads: usize, rate: f64, duration: Duration, first: u64, op: F) -> Open
where
    F: Fn(u64) -> Result<usize, String> + Sync,
{
    let slots = (rate * duration.as_secs_f64()).round() as u64;
    let period = Duration::from_secs_f64(1.0 / rate);
    let merged = Mutex::new((Tally::default(), Vec::new(), Vec::new()));
    let start = Instant::now() + Duration::from_millis(2);
    // A system that cannot keep up would otherwise hold the phase open
    // without limit; slots still unsent a whole window late count as
    // failed.
    let give_up = start + duration * 2;
    std::thread::scope(|s| {
        for j in 0..threads as u64 {
            let (merged, op) = (&merged, &op);
            s.spawn(move || {
                let mut tally = Tally::default();
                let mut latency = Vec::with_capacity((slots / threads as u64 + 1) as usize);
                let mut lateness = Vec::with_capacity(latency.capacity());
                let mut slot = j;
                while slot < slots {
                    if Instant::now() > give_up {
                        tally.record(Err("generator fell a whole window behind".into()));
                        slot += threads as u64;
                        continue;
                    }
                    let due = start + period.mul_f64(slot as f64);
                    wait_until(due);
                    let sent = Instant::now();
                    lateness.push(sent.saturating_duration_since(due).as_nanos() as u64);
                    let outcome = op(first + slot);
                    let done = Instant::now();
                    if outcome.is_ok() {
                        latency.push(done.saturating_duration_since(due).as_nanos() as u64);
                    }
                    tally.record(outcome);
                    slot += threads as u64;
                }
                let mut m = merged.lock().expect("open-phase lock poisoned");
                m.0.merge(tally);
                m.1.extend(latency);
                m.2.extend(lateness);
            });
        }
    });
    let (tally, latency_ns, lateness_ns) = merged.into_inner().expect("open-phase lock poisoned");
    Open { tally, latency_ns, lateness_ns, offered: slots }
}

fn wait_until(due: Instant) {
    const YIELD_WINDOW: Duration = Duration::from_micros(60);
    let now = Instant::now();
    if due > now + YIELD_WINDOW {
        std::thread::sleep(due - now - YIELD_WINDOW);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Nearest-rank percentile of raw samples (`q` in `[0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
