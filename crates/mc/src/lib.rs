//! `oaf-mc` — a deterministic model checker for the fabric's recovery
//! protocol.
//!
//! The chaos soak ([`oaf-chaos`]) samples hostile schedules at random;
//! it found the PR 4 held-completion reordering bug only by luck of the
//! seed. This crate *enumerates* the schedules instead. The recovery
//! decision logic lives in [`oaf_nvmeof::recovery`] as a pure state
//! machine with time and I/O injected, used unchanged by the real
//! initiator/target reactors — so the checker drives the very code that
//! ships, not a parallel model that can drift.
//!
//! A [`model::World`] holds one [`InitiatorRecovery`] core, one
//! [`TargetRecovery`] core, a model block device (per-command applied
//! generations) and the two in-flight message queues. Transitions
//! deliver, drop, reorder, duplicate or corrupt queued messages (under a
//! per-kind fault budget), fire the initiator's next timer, and drain
//! the target's sync worker of its parked barrier completions —
//! successfully, or with an fsync error within the scenario's
//! [`sync_fail_budget`](model::Scenario::sync_fail_budget). The
//! [`explore::Explorer`] walks every interleaving with DFS or
//! iterative-deepening DFS (minimal counterexamples), pruning revisited
//! states by a canonical fingerprint and stopping at a bounded
//! depth/state budget.
//!
//! Invariants checked at every state ([`invariant::Violation`]):
//!
//! * a write-class command is never applied under two generations
//!   (double-apply);
//! * no logical command resolves twice;
//! * a success completion is never delivered before the data it vouches
//!   for (stale read);
//! * an acknowledged write is never lost (ok completion with nothing
//!   applied);
//! * an abort is never answered `applied` after it was answered
//!   not-applied for the same `(cid, gseq)`;
//! * no reachable state is stuck (some execution continues toward
//!   quiescence unless the peer is genuinely dead).
//!
//! A violation produces a [`trace::Counterexample`]: a minimal,
//! human-readable schedule that also converts into deterministic
//! [`oaf_chaos::FaultScript`]s, so every model-found bug becomes a
//! pinned, replayable chaos regression.
//!
//! [`oaf-chaos`]: oaf_chaos
//! [`InitiatorRecovery`]: oaf_nvmeof::recovery::InitiatorRecovery
//! [`TargetRecovery`]: oaf_nvmeof::recovery::TargetRecovery

#![warn(missing_docs)]

pub mod explore;
pub mod invariant;
pub mod model;
pub mod trace;

pub use explore::{Budget, Explorer, Outcome, Strategy};
pub use invariant::Violation;
pub use model::{CmdKind, FaultBudget, Scenario, World};
pub use trace::{Counterexample, FaultScripts};

use oaf_telemetry::{Counter, Gauge, Scope};

/// Checker observability: explored/pruned state counts and the deepest
/// schedule reached, reported through `oaf-telemetry` like every other
/// subsystem so CI sweeps are inspectable.
#[derive(Default)]
pub struct McMetrics {
    /// States expanded (invariants evaluated).
    pub explored: Counter,
    /// States skipped because their fingerprint was already visited.
    pub pruned: Counter,
    /// Invariant violations found.
    pub violations: Counter,
    /// Deepest schedule prefix reached (high-water mark).
    pub max_depth: Gauge,
}

impl McMetrics {
    /// Fresh, detached counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the metric handles into a registry scope.
    pub fn register(&self, scope: &Scope) {
        scope.adopt_counter("explored_states", &self.explored);
        scope.adopt_counter("pruned_states", &self.pruned);
        scope.adopt_counter("violations", &self.violations);
        scope.adopt_gauge("max_depth", &self.max_depth);
    }

    /// Folds one exploration outcome into the counters.
    pub fn observe(&self, outcome: &Outcome) {
        self.explored.add(outcome.explored);
        self.pruned.add(outcome.pruned);
        if outcome.violation.is_some() {
            self.violations.inc();
        }
        self.max_depth.observe_max(i64::from(outcome.max_depth));
    }
}
