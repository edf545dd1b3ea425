//! Scheduling policies for the staged-server scheduling trade-off (§4.2).
//!
//! The paper evaluates five policies on the production-line model of
//! Figure 4 and reports their mean response times in Figure 5:
//!
//! * **PS** (processor sharing) — the prevailing policy in thread-based
//!   servers: the CPU round-robins over all active queries with a fixed
//!   quantum, "switching from query to query in a random way with respect to
//!   the query's current execution module", paying the module load time on
//!   almost every switch.
//! * **FCFS** — one query at a time, start to finish; pays every module's
//!   load time once per query, but never interleaves.
//! * **non-gated** — the CPU visits modules cyclically and serves each
//!   module's queue *exhaustively* (until empty) before moving on.
//! * **D-gated** — gated service: only the packets present when the CPU
//!   arrives at the module are served in this visit; later arrivals wait for
//!   the next cycle.
//! * **T-gated(k)** — gated service with a per-packet service *cutoff* of
//!   `k ×` the module's mean demand; packets exceeding the cutoff are
//!   preempted and requeued, a shortest-job-first effect that protects short
//!   queries inside a batch.
//!
//! The exact definitions of the gated variants come from the unpublished
//! technical report \[HA02\]; see DESIGN.md §4 for how we reconstructed them
//! from the paper's own description of the policy search space.

/// A CPU scheduling policy for a staged (or thread-based) server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Quantum-based round-robin over queries (thread-based baseline).
    ProcessorSharing {
        /// Time slice per dispatch, in seconds.
        quantum: f64,
    },
    /// Run each query start-to-finish in arrival order.
    Fcfs,
    /// Cyclic module visits with exhaustive service.
    NonGated,
    /// Cyclic module visits with gated service.
    DGated,
    /// Cyclic module visits, gated, with a per-packet service cutoff of
    /// `cutoff_factor ×` the module's mean demand.
    TGated {
        /// Multiple of the module's mean demand a packet may consume per
        /// visit before being preempted and requeued.
        cutoff_factor: f64,
    },
}

/// How a staged policy forms and serves a batch during one module visit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchDiscipline {
    /// Serve until the queue is empty (non-gated).
    Exhaustive,
    /// Serve exactly the packets present at the start of the visit.
    Gated,
    /// Gated, but each packet gets at most `cutoff` seconds of service per
    /// visit; leftovers are requeued at the back.
    GatedCutoff {
        /// Absolute per-packet cutoff in seconds (already scaled by the
        /// module's mean demand).
        cutoff_factor: f64,
    },
}

impl Policy {
    /// Short display name matching the labels in the paper's Figure 5.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::ProcessorSharing { .. } => "PS",
            Policy::Fcfs => "FCFS",
            Policy::NonGated => "non-gated",
            Policy::DGated => "D-gated",
            Policy::TGated { .. } => "T-gated",
        }
    }

    /// True for the module-centric (staged) policies.
    pub fn is_staged(&self) -> bool {
        matches!(self, Policy::NonGated | Policy::DGated | Policy::TGated { .. })
    }

    /// The batch discipline of a staged policy, `None` for PS/FCFS.
    pub fn discipline(&self) -> Option<BatchDiscipline> {
        match *self {
            Policy::NonGated => Some(BatchDiscipline::Exhaustive),
            Policy::DGated => Some(BatchDiscipline::Gated),
            Policy::TGated { cutoff_factor } => {
                Some(BatchDiscipline::GatedCutoff { cutoff_factor })
            }
            _ => None,
        }
    }

    /// The five policies evaluated in the paper's Figure 5, with the paper's
    /// parameters (PS quantum 10 ms, T-gated cutoff factor 2).
    pub fn figure5_set() -> Vec<Policy> {
        vec![
            Policy::TGated { cutoff_factor: 2.0 },
            Policy::DGated,
            Policy::NonGated,
            Policy::Fcfs,
            Policy::ProcessorSharing { quantum: 0.010 },
        ]
    }

    /// Label including parameters, e.g. `T-gated(2)`.
    pub fn label(&self) -> String {
        match self {
            Policy::TGated { cutoff_factor } => format!("T-gated({})", cutoff_factor),
            Policy::ProcessorSharing { quantum } => {
                format!("PS(q={}ms)", (quantum * 1000.0).round() as i64)
            }
            p => p.name().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_classification() {
        assert!(!Policy::Fcfs.is_staged());
        assert!(!Policy::ProcessorSharing { quantum: 0.01 }.is_staged());
        assert!(Policy::NonGated.is_staged());
        assert!(Policy::DGated.is_staged());
        assert!(Policy::TGated { cutoff_factor: 2.0 }.is_staged());
    }

    #[test]
    fn disciplines_match_policies() {
        assert_eq!(Policy::NonGated.discipline(), Some(BatchDiscipline::Exhaustive));
        assert_eq!(Policy::DGated.discipline(), Some(BatchDiscipline::Gated));
        assert_eq!(
            Policy::TGated { cutoff_factor: 2.0 }.discipline(),
            Some(BatchDiscipline::GatedCutoff { cutoff_factor: 2.0 })
        );
        assert_eq!(Policy::Fcfs.discipline(), None);
    }

    #[test]
    fn figure5_set_has_five_policies_with_paper_labels() {
        let set = Policy::figure5_set();
        assert_eq!(set.len(), 5);
        let labels: Vec<String> = set.iter().map(|p| p.label()).collect();
        assert!(labels.contains(&"T-gated(2)".to_string()));
        assert!(labels.contains(&"D-gated".to_string()));
        assert!(labels.contains(&"non-gated".to_string()));
        assert!(labels.contains(&"FCFS".to_string()));
        assert!(labels.iter().any(|l| l.starts_with("PS")));
    }
}
