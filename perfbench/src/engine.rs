//! Timed, checked runs of the parallel IBWJ engine.
//!
//! Every run executes on its own thread so that a panic or a hang is
//! reported as a failed run instead of taking the benchmark down with it.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pimtree_common::TelemetryMode;
use pimtree_join::JoinRunStats;

use crate::workload::{Stream, Workload, MEASURED};

/// A run that has not finished after this long counts as hung.
pub const RUN_DEADLINE: Duration = Duration::from_secs(60);
/// An open-loop run whose achieved rate falls below this share of the offer
/// has a growing backlog and fails. A run lasts 3-5 s, so a single host
/// pause of 15 ms at its end costs it under 0.5 %.
pub const MIN_ACHIEVED_SHARE: f64 = 0.99;

/// One engine run to make.
#[derive(Debug, Clone, Copy)]
pub struct RunKind {
    pub threads: usize,
    pub open_loop: bool,
    pub telemetry: TelemetryMode,
}

/// A finished run that produced the oracle's result count.
pub struct Checked {
    pub stats: JoinRunStats,
    /// Engine construction, window fill and first merge: the wall time of
    /// `run_with_warmup` outside the measured phase.
    pub setup: Duration,
}

pub enum Failure {
    /// Wrong output or a panic. Later runs can still be made.
    Failed(String),
    /// The run is still going past its deadline; its thread cannot be
    /// stopped, so the benchmark must end.
    Hung,
}

/// Runs the engine once over `stream` and checks its output against
/// `expected` result pairs.
pub fn run_checked(
    workload: Workload,
    stream: &Arc<Stream>,
    expected: u64,
    kind: RunKind,
) -> Result<Checked, Failure> {
    let (tx, rx) = mpsc::channel();
    let shared = Arc::clone(stream);
    let handle = std::thread::spawn(move || {
        let op = workload.engine(&shared, kind.threads, kind.open_loop, kind.telemetry);
        let started = Instant::now();
        let (stats, _) = op.run_with_warmup(&shared.tuples, shared.warmup);
        let wall = started.elapsed();
        // The receiver is gone only after a timeout; nothing to report then.
        let _ = tx.send((stats, wall));
    });
    let (stats, wall) = match rx.recv_timeout(RUN_DEADLINE) {
        Ok(done) => {
            handle
                .join()
                .map_err(|_| Failure::Failed("engine thread panicked".into()))?;
            done
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            return Err(Failure::Failed(match handle.join() {
                Err(panic) => panic_message(&*panic),
                Ok(()) => "engine thread ended without a result".into(),
            }))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => return Err(Failure::Hung),
    };
    let measured = MEASURED as u64;
    if stats.tuples != measured {
        return Err(Failure::Failed(format!(
            "measured {} tuples, expected {measured}",
            stats.tuples
        )));
    }
    if stats.results != expected {
        return Err(Failure::Failed(format!(
            "{} results, oracle expects {expected}",
            stats.results
        )));
    }
    if kind.open_loop && stats.arrival_latency.as_ref().map(|h| h.len()) != Some(measured) {
        return Err(Failure::Failed(
            "open-loop run lacks one latency sample per tuple".into(),
        ));
    }
    Ok(Checked {
        setup: wall.saturating_sub(stats.elapsed),
        stats,
    })
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into());
    format!("engine panicked: {msg}")
}
