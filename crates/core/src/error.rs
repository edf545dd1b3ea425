//! Error types for the staging runtime.

use std::fmt;

/// Error returned by queue/enqueue operations.
#[derive(Debug)]
pub enum EnqueueError<P> {
    /// The queue has been closed; the packet is handed back to the caller.
    Closed(P),
    /// The queue is full (only returned by `try_enqueue`; blocking `enqueue`
    /// waits instead — that wait *is* the paper's back-pressure flow control).
    Full(P),
}

impl<P> EnqueueError<P> {
    /// Recover the packet that could not be enqueued.
    pub fn into_packet(self) -> P {
        match self {
            EnqueueError::Closed(p) | EnqueueError::Full(p) => p,
        }
    }
}

impl<P> fmt::Display for EnqueueError<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnqueueError::Closed(_) => write!(f, "stage queue is closed"),
            EnqueueError::Full(_) => write!(f, "stage queue is full"),
        }
    }
}

impl<P: fmt::Debug> std::error::Error for EnqueueError<P> {}

/// Error produced by a stage's `process` implementation.
///
/// A failing packet is dropped and counted in the stage monitor; the stage
/// itself keeps running (fault isolation is one of the software-engineering
/// benefits claimed in paper §5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageError {
    /// Human-readable reason, recorded by the monitor.
    pub reason: String,
}

impl StageError {
    /// Create a stage error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        Self { reason: reason.into() }
    }
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stage error: {}", self.reason)
    }
}

impl std::error::Error for StageError {}
