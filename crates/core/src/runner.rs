//! Parallel batch execution of measurement sessions.
//!
//! The sans-IO split makes a session cheap to instantiate, so large
//! {scenario × seed × config} grids — the paper's 50-run-per-point figures,
//! accuracy sweeps, ablations — become embarrassingly parallel. This module
//! provides the batch layer:
//!
//! * [`run_parallel`] — the primitive: execute a vector of independent
//!   jobs on scoped worker threads. Workers self-schedule off a shared
//!   atomic cursor, so long jobs (a 90 %-utilization path) and short jobs
//!   (a light path that converges in six fleets) balance automatically,
//!   like a work-stealing pool with a single global deque.
//! * [`SessionJob`] / [`run_sessions`] — the measurement-shaped wrapper:
//!   each job owns a [`SlopsConfig`] and a transport factory; the runner
//!   builds the transport *on the worker thread* (topology construction
//!   and warm-up are a large share of a simulated run) and collects an
//!   [`Outcome`] with the estimate and per-session metrics.
//!
//! Results always come back in job order, whatever order the workers
//! finished in, so grids stay deterministic modulo wall-clock metrics.
//!
//! ```
//! use slops::runner::{run_sessions, SessionJob};
//! use slops::testutil::OracleTransport;
//! use slops::SlopsConfig;
//! use units::Rate;
//!
//! let jobs: Vec<SessionJob> = (0..8)
//!     .map(|seed| SessionJob {
//!         label: format!("oracle-seed{seed}"),
//!         cfg: SlopsConfig::default(),
//!         transport: Box::new(move || {
//!             Box::new(OracleTransport::new(Rate::from_mbps(40.0), seed))
//!         }),
//!     })
//!     .collect();
//! let outcomes = run_sessions(jobs, 0); // 0 = one worker per CPU
//! assert_eq!(outcomes.len(), 8);
//! for o in &outcomes {
//!     let est = o.estimate.as_ref().unwrap();
//!     assert!(est.low.mbps() <= 40.0 && 40.0 <= est.high.mbps() + 1.0);
//! }
//! ```

use crate::config::SlopsConfig;
use crate::error::SlopsError;
use crate::session::{Estimate, Session};
use crate::transport::ProbeTransport;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of workers to use: `threads`, or one per available CPU when
/// `threads == 0`.
fn effective_threads(threads: usize, jobs: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    t.clamp(1, jobs.max(1))
}

/// Execute `jobs` concurrently on scoped threads and return their results
/// **in job order**. Each job receives its own index. `threads == 0` uses
/// one worker per available CPU; the worker count never exceeds the job
/// count. A panicking job propagates after all workers have joined.
pub fn run_parallel<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce(usize) -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = effective_threads(threads, n);
    if threads == 1 {
        return jobs.into_iter().enumerate().map(|(i, f)| f(i)).collect();
    }
    // Self-scheduling: each worker claims the next unclaimed job. The
    // mutexes are uncontended (every slot is touched by exactly one
    // worker); they exist to hand owned jobs/results across threads
    // without unsafe code.
    let cursor = AtomicUsize::new(0);
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i]
                    .lock()
                    .expect("job mutex poisoned")
                    .take()
                    .expect("job claimed twice");
                let out = job(i);
                *results[i].lock().expect("result mutex poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result mutex poisoned")
                .expect("worker exited without storing its result")
        })
        .collect()
}

/// A transport factory: builds the probe transport on the worker thread.
pub type TransportFactory = Box<dyn FnOnce() -> Box<dyn ProbeTransport> + Send>;

/// One cell of a measurement grid.
pub struct SessionJob {
    /// Human-readable tag carried into the [`Outcome`] (e.g.
    /// `"fig05/u=0.6/run3"`).
    pub label: String,
    /// Session configuration for this cell.
    pub cfg: SlopsConfig,
    /// Builds the transport (topology, warm-up, seeding) on the worker.
    pub transport: TransportFactory,
}

impl SessionJob {
    /// Convenience constructor.
    pub fn new<T, F>(label: impl Into<String>, cfg: SlopsConfig, make: F) -> SessionJob
    where
        T: ProbeTransport + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        SessionJob {
            label: label.into(),
            cfg,
            transport: Box::new(move || Box::new(make())),
        }
    }
}

/// The result of one grid cell.
pub struct Outcome {
    /// The job's label.
    pub label: String,
    /// The measurement result.
    pub estimate: Result<Estimate, SlopsError>,
    /// Wall-clock time the cell took on its worker (setup + session).
    pub wall: Duration,
}

impl Outcome {
    /// The estimate, or `None` if the session failed.
    pub fn estimate(&self) -> Option<&Estimate> {
        self.estimate.as_ref().ok()
    }

    /// The failure, if the session was lost.
    pub fn error(&self) -> Option<&SlopsError> {
        self.estimate.as_ref().err()
    }
}

/// Run a grid of measurement sessions concurrently; results in job order.
/// `threads == 0` uses one worker per available CPU.
pub fn run_sessions(jobs: Vec<SessionJob>, threads: usize) -> Vec<Outcome> {
    let closures: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            move |_idx: usize| {
                let t0 = Instant::now();
                let mut transport = (job.transport)();
                let estimate = Session::new(job.cfg).run(transport.as_mut());
                Outcome {
                    label: job.label,
                    estimate,
                    wall: t0.elapsed(),
                }
            }
        })
        .collect();
    run_parallel(closures, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::OracleTransport;
    use units::Rate;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<_> = (0..32)
            .map(|i| {
                move |idx: usize| {
                    assert_eq!(idx, i);
                    // Stagger so completion order differs from job order.
                    if i % 3 == 0 {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    i * 10
                }
            })
            .collect();
        let out = run_parallel(jobs, 8);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_and_single_thread_work() {
        let out: Vec<u32> = run_parallel(Vec::<fn(usize) -> u32>::new(), 4);
        assert!(out.is_empty());
        let out = run_parallel(vec![|_i: usize| 7u32], 1);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn parallel_grid_matches_serial_grid() {
        let grid = |threads: usize| {
            let jobs: Vec<SessionJob> = (0..6)
                .map(|seed| {
                    SessionJob::new(format!("seed{seed}"), SlopsConfig::default(), move || {
                        OracleTransport::new(Rate::from_mbps(30.0 + seed as f64), seed)
                    })
                })
                .collect();
            run_sessions(jobs, threads)
                .into_iter()
                .map(|o| o.estimate.unwrap())
                .collect::<Vec<_>>()
        };
        let serial = grid(1);
        let parallel = grid(4);
        assert_eq!(serial, parallel, "parallelism changed the measurements");
        for (i, est) in serial.iter().enumerate() {
            let a = 30.0 + i as f64;
            assert!(est.low.mbps() <= a + 1.0 && a - 1.0 <= est.high.mbps());
        }
    }

    #[test]
    fn failures_are_reported_per_job() {
        let mut bad = SlopsConfig::default();
        bad.fleet_fraction = 0.2;
        let jobs = vec![
            SessionJob::new("good", SlopsConfig::default(), || {
                OracleTransport::new(Rate::from_mbps(20.0), 1)
            }),
            SessionJob::new("bad", bad, || {
                OracleTransport::new(Rate::from_mbps(20.0), 2)
            }),
        ];
        let out = run_sessions(jobs, 2);
        assert!(out[0].estimate.is_ok());
        assert!(out[1].estimate.is_err());
        assert_eq!(out[1].label, "bad");
        // The non-panicking accessors see the same outcome.
        assert!(out[0].estimate().is_some() && out[0].error().is_none());
        assert!(out[1].estimate().is_none() && out[1].error().is_some());
    }
}
