//! Resource governance: budgets, cooperative cancellation, and the
//! `Sat / Unsat / Unknown` answer taxonomy.
//!
//! Every solver path in this workspace can run under a [`Budget`]: a
//! wall-clock deadline, a step (node/revision/iteration) limit, a cap on
//! intermediate tuples materialised by join-style algorithms, and a
//! cooperative [`CancelToken`]. Algorithms thread a [`Meter`] through
//! their hot loops and call [`Meter::tick`] once per unit of work; the
//! meter amortises the actual checks (clock reads, atomic loads) to one
//! in every [`CHECK_INTERVAL`] ticks, so governance costs a counter
//! increment on the fast path.
//!
//! When a limit trips, the algorithm unwinds with
//! [`ExhaustionReason`], and entry points report
//! [`Answer::Unknown`] rather than guessing. The contract everywhere is
//! **soundness under exhaustion**: a budgeted run may say `Unknown`, but
//! if it says `Sat` or `Unsat` that answer agrees with the unbudgeted
//! ground truth.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::CoreError;
use crate::faults::{FaultHandle, FaultPlan};
use crate::trace::{TraceSink, Tracer};

/// Number of [`Meter::tick`] calls between expensive checkpoint checks
/// (clock read, cancellation flag load). Power of two so the modulo is a
/// mask.
pub const CHECK_INTERVAL: u64 = 1024;

/// Shared flag for cooperative cancellation.
///
/// Clone the token, hand one copy to the solving thread's [`Budget`],
/// and call [`CancelToken::cancel`] from anywhere (another thread, a
/// signal handler, a UI callback). Running algorithms observe the flag
/// at their next checkpoint and unwind with
/// [`ExhaustionReason::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks. Cancelling a
    /// [`child`](Self::child) does not cancel its parent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](Self::cancel) has been called on this token
    /// or on any ancestor it was [`child`](Self::child)-derived from.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }

    /// Derives a linked token: cancelling the parent cancels the child,
    /// but cancelling the child leaves the parent (and its other
    /// children) running. The server uses this twice: its shutdown
    /// token is a child of the caller's, so a shutdown never leaks out,
    /// and each request's token is a child of the shutdown token.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }
}

/// Which resource a budgeted run exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExhaustionReason {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The step (search node / revision / iteration) limit was reached.
    StepLimitExceeded,
    /// The cap on materialised intermediate tuples was reached.
    TupleLimitExceeded,
    /// The [`CancelToken`] was triggered.
    Cancelled,
}

impl ExhaustionReason {
    /// Short resource name, as used in [`CoreError::ResourceExhausted`].
    pub fn resource_name(self) -> &'static str {
        match self {
            ExhaustionReason::DeadlineExceeded => "wall-clock",
            ExhaustionReason::StepLimitExceeded => "steps",
            ExhaustionReason::TupleLimitExceeded => "tuples",
            ExhaustionReason::Cancelled => "cancellation",
        }
    }
}

impl std::fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExhaustionReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            ExhaustionReason::StepLimitExceeded => write!(f, "step limit exceeded"),
            ExhaustionReason::TupleLimitExceeded => write!(f, "tuple limit exceeded"),
            ExhaustionReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Declarative resource limits for one solving run.
///
/// A `Budget` is plain data: cloning it gives an identical set of
/// limits (and shares the same [`CancelToken`]). To *enforce* a budget,
/// create a [`Meter`] with [`Budget::meter`] and tick it through the
/// algorithm's hot loop.
///
/// ```
/// use cspdb_core::budget::Budget;
/// use std::time::Duration;
///
/// let budget = Budget::new()
///     .with_deadline(Duration::from_millis(10))
///     .with_step_limit(1_000_000)
///     .with_tuple_limit(500_000);
/// let mut meter = budget.meter();
/// while meter.tick().is_ok() {
///     // one unit of work
///     # break;
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Maximum wall-clock time, measured from [`Budget::meter`].
    pub deadline: Option<Duration>,
    /// Maximum number of [`Meter::tick`] steps.
    pub step_limit: Option<u64>,
    /// Maximum number of tuples charged via [`Meter::charge_tuples`].
    pub tuple_limit: Option<u64>,
    /// Cooperative cancellation flag, if any.
    pub cancel: Option<CancelToken>,
    /// Telemetry handle copied into every meter created from this
    /// budget. Disabled by default; see [`Budget::with_trace`].
    trace: Tracer,
    /// Fault-injection handle copied into every meter created from
    /// this budget (slow-down faults apply at checkpoints) and read by
    /// fault-aware subsystems like the service. Inert by default; see
    /// [`Budget::with_faults`].
    faults: FaultHandle,
}

impl Budget {
    /// An unlimited budget: all limits absent. `Meter`s over it never
    /// trip (their fast path is still just a counter increment).
    pub fn new() -> Self {
        Self::default()
    }

    /// Alias for [`Budget::new`], reading better at call sites that
    /// explicitly want no governance.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps wall-clock time.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Caps the number of elementary steps (search nodes, arc
    /// revisions, fixpoint sweeps, DP cells, ...).
    pub fn with_step_limit(mut self, steps: u64) -> Self {
        self.step_limit = Some(steps);
        self
    }

    /// Caps the number of intermediate tuples materialised by
    /// join-style algorithms.
    pub fn with_tuple_limit(mut self, tuples: u64) -> Self {
        self.tuple_limit = Some(tuples);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a trace sink: every meter created from this budget
    /// emits [`crate::trace::TraceEvent`]s to it. A sink that reports
    /// itself disabled (e.g. [`crate::trace::NullSink`]) keeps the
    /// tracer inert.
    pub fn with_trace(self, sink: Arc<dyn TraceSink>) -> Self {
        self.with_tracer(Tracer::new(sink))
    }

    /// Attaches an already-built [`Tracer`] (shares its sink).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.trace = tracer;
        self
    }

    /// The budget's tracer (disabled unless a sink was attached).
    pub fn tracer(&self) -> &Tracer {
        &self.trace
    }

    /// Arms a fault-injection plan: every meter created from this
    /// budget applies slow-down faults at its checkpoints, and
    /// fault-aware subsystems (the service) consult the handle at
    /// their own sites. An empty plan stays inert.
    pub fn with_faults(self, plan: FaultPlan) -> Self {
        self.with_fault_handle(FaultHandle::new(plan))
    }

    /// Attaches an already-armed [`FaultHandle`] (shares its counters).
    pub fn with_fault_handle(mut self, handle: FaultHandle) -> Self {
        self.faults = handle;
        self
    }

    /// The budget's fault handle (inert unless a plan was armed).
    pub fn faults(&self) -> &FaultHandle {
        &self.faults
    }

    /// True if no limit of any kind is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.step_limit.is_none()
            && self.tuple_limit.is_none()
            && self.cancel.is_none()
    }

    /// A proportional slice of this budget for one phase of a larger
    /// computation: numeric limits are scaled by `num / den` (min 1 if
    /// the original was finite), the cancel token and the tracer are
    /// shared.
    ///
    /// Used by tiered strategies to give each tier a fraction of the
    /// caller's budget while the overall deadline still applies.
    ///
    /// A zero-width slice (`num == 0`) exhausts immediately: its meters
    /// trip on the first tick or checkpoint regardless of whether the
    /// parent was limited. (Previously `slice(0, den)` of an unlimited
    /// parent silently produced another *unlimited* budget, because
    /// scaling only applied to limits that were present.)
    pub fn slice(&self, num: u64, den: u64) -> Budget {
        assert!(den > 0, "slice denominator must be positive");
        if num == 0 {
            return Budget {
                deadline: Some(Duration::ZERO),
                step_limit: Some(0),
                tuple_limit: Some(0),
                cancel: self.cancel.clone(),
                trace: self.trace.clone(),
                faults: self.faults.clone(),
            };
        }
        let scale = |v: u64| (v.saturating_mul(num) / den).max(1);
        Budget {
            deadline: self.deadline.map(|d| d.mul_f64(num as f64 / den as f64)),
            step_limit: self.step_limit.map(scale),
            tuple_limit: self.tuple_limit.map(scale),
            cancel: self.cancel.clone(),
            trace: self.trace.clone(),
            faults: self.faults.clone(),
        }
    }

    /// Starts enforcement: the returned meter's clock begins now.
    pub fn meter(&self) -> Meter {
        Meter {
            start: Instant::now(),
            deadline: self.deadline,
            step_limit: self.step_limit,
            tuple_limit: self.tuple_limit,
            cancel: self.cancel.clone(),
            trace: self.trace.clone(),
            faults: self.faults.clone(),
            steps: 0,
            tuples: 0,
            tripped: None,
        }
    }
}

/// Resources consumed by a (possibly exhausted) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Elementary steps ticked.
    pub steps: u64,
    /// Intermediate tuples charged.
    pub tuples: u64,
    /// Wall-clock time elapsed.
    pub elapsed: Duration,
}

impl std::fmt::Display for ResourceUsage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} steps, {} tuples, {:.3} ms",
            self.steps,
            self.tuples,
            self.elapsed.as_secs_f64() * 1e3
        )
    }
}

/// Stateful enforcer of one [`Budget`] over one run.
///
/// The fast path — [`tick`](Meter::tick) off a checkpoint boundary — is
/// an increment and a mask test. Every [`CHECK_INTERVAL`]-th tick also
/// reads the clock and the cancellation flag. Once a limit trips, the
/// meter latches the [`ExhaustionReason`] and every subsequent call
/// fails immediately, so deeply recursive algorithms unwind promptly.
#[derive(Debug, Clone)]
pub struct Meter {
    start: Instant,
    deadline: Option<Duration>,
    step_limit: Option<u64>,
    tuple_limit: Option<u64>,
    cancel: Option<CancelToken>,
    trace: Tracer,
    faults: FaultHandle,
    steps: u64,
    tuples: u64,
    tripped: Option<ExhaustionReason>,
}

impl Default for Meter {
    /// An unlimited meter (equivalent to `Budget::unlimited().meter()`).
    fn default() -> Self {
        Budget::unlimited().meter()
    }
}

impl Meter {
    /// Records one elementary step; errs if the budget is exhausted.
    ///
    /// Call this once per search node, arc revision, fixpoint
    /// iteration, DP cell, derived fact — whatever the algorithm's
    /// natural unit of work is.
    #[inline]
    pub fn tick(&mut self) -> std::result::Result<(), ExhaustionReason> {
        if let Some(reason) = self.tripped {
            return Err(reason);
        }
        self.steps += 1;
        if let Some(limit) = self.step_limit {
            if self.steps > limit {
                return Err(self.trip(ExhaustionReason::StepLimitExceeded));
            }
        }
        if self.steps & (CHECK_INTERVAL - 1) == 0 {
            self.checkpoint()
        } else {
            Ok(())
        }
    }

    /// Records `n` materialised tuples; errs if over the tuple cap.
    ///
    /// Unlike [`tick`](Meter::tick), the limit check is immediate: a
    /// single join step can materialise a huge batch, so amortising
    /// here would defeat the cap. The *expensive* checks (deadline,
    /// cancellation) are still amortised, at the same cadence as
    /// `tick`: once per [`CHECK_INTERVAL`] tuples crossed. Without
    /// this, a skewed join whose inner loop only charges tuples — one
    /// outer row matching millions — would never observe a deadline or
    /// a cancellation when no tuple cap is set.
    #[inline]
    pub fn charge_tuples(&mut self, n: u64) -> std::result::Result<(), ExhaustionReason> {
        if let Some(reason) = self.tripped {
            return Err(reason);
        }
        let before = self.tuples;
        self.tuples = before.saturating_add(n);
        if let Some(limit) = self.tuple_limit {
            if self.tuples > limit {
                return Err(self.trip(ExhaustionReason::TupleLimitExceeded));
            }
        }
        if before / CHECK_INTERVAL != self.tuples / CHECK_INTERVAL {
            self.checkpoint()
        } else {
            Ok(())
        }
    }

    /// Forces the expensive checks (clock, cancellation) right now,
    /// regardless of the amortisation counter. Call before starting a
    /// phase whose unit of work is coarse.
    pub fn checkpoint(&mut self) -> std::result::Result<(), ExhaustionReason> {
        if let Some(reason) = self.tripped {
            return Err(reason);
        }
        // Slow-down faults strike here, where real stalls are observed:
        // amortised to checkpoint cadence, inert = one branch.
        self.faults.maybe_slow_down();
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(self.trip(ExhaustionReason::Cancelled));
            }
        }
        if let Some(deadline) = self.deadline {
            if self.start.elapsed() >= deadline {
                return Err(self.trip(ExhaustionReason::DeadlineExceeded));
            }
        }
        Ok(())
    }

    fn trip(&mut self, reason: ExhaustionReason) -> ExhaustionReason {
        self.tripped = Some(reason);
        reason
    }

    /// The latched exhaustion reason, if any limit has tripped.
    pub fn exhausted(&self) -> Option<ExhaustionReason> {
        self.tripped
    }

    /// The tracer carried from the originating [`Budget`].
    #[inline]
    pub fn tracer(&self) -> &Tracer {
        &self.trace
    }

    /// Resources consumed so far.
    pub fn usage(&self) -> ResourceUsage {
        ResourceUsage {
            steps: self.steps,
            tuples: self.tuples,
            elapsed: self.start.elapsed(),
        }
    }

    /// The tripped limit as a [`CoreError::ResourceExhausted`], for
    /// APIs surfacing `CoreError`.
    pub fn as_core_error(&self, reason: ExhaustionReason) -> CoreError {
        let (spent, limit) = match reason {
            ExhaustionReason::DeadlineExceeded => (
                self.start.elapsed().as_millis() as u64,
                self.deadline.map(|d| d.as_millis() as u64).unwrap_or(0),
            ),
            ExhaustionReason::StepLimitExceeded => (self.steps, self.step_limit.unwrap_or(0)),
            ExhaustionReason::TupleLimitExceeded => (self.tuples, self.tuple_limit.unwrap_or(0)),
            ExhaustionReason::Cancelled => (0, 0),
        };
        CoreError::ResourceExhausted {
            resource: reason.resource_name(),
            spent,
            limit,
        }
    }
}

/// Three-valued outcome of a budgeted decision procedure.
///
/// The invariant every budgeted entry point upholds: `Sat`/`Unsat` are
/// *definite* — they agree with what an unlimited run would return —
/// and resource exhaustion only ever widens the answer to `Unknown`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A solution exists; the witness maps each variable to a value.
    Sat(Vec<u32>),
    /// Definitely no solution.
    Unsat,
    /// The run exhausted its budget before deciding.
    Unknown(ExhaustionReason),
}

impl Answer {
    /// True for [`Answer::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Answer::Sat(_))
    }

    /// True for [`Answer::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, Answer::Unsat)
    }

    /// True for [`Answer::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, Answer::Unknown(_))
    }

    /// True if the answer is definite (`Sat` or `Unsat`).
    pub fn is_decided(&self) -> bool {
        !self.is_unknown()
    }

    /// The witness, for [`Answer::Sat`].
    pub fn witness(&self) -> Option<&[u32]> {
        match self {
            Answer::Sat(w) => Some(w),
            _ => None,
        }
    }

    /// Checks agreement with a ground-truth boolean satisfiability:
    /// `Unknown` agrees with everything, `Sat`/`Unsat` must match.
    pub fn agrees_with(&self, ground_truth_sat: bool) -> bool {
        match self {
            Answer::Sat(_) => ground_truth_sat,
            Answer::Unsat => !ground_truth_sat,
            Answer::Unknown(_) => true,
        }
    }
}

impl std::fmt::Display for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Answer::Sat(_) => write!(f, "sat"),
            Answer::Unsat => write!(f, "unsat"),
            Answer::Unknown(r) => write!(f, "unknown ({r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unlimited_meter_never_trips() {
        let mut m = Budget::unlimited().meter();
        for _ in 0..10_000 {
            assert!(m.tick().is_ok());
        }
        assert!(m.charge_tuples(u64::MAX).is_ok());
        assert_eq!(m.exhausted(), None);
        assert_eq!(m.usage().steps, 10_000);
    }

    #[test]
    fn step_limit_trips_exactly() {
        let mut m = Budget::new().with_step_limit(5).meter();
        for _ in 0..5 {
            assert!(m.tick().is_ok());
        }
        assert_eq!(m.tick(), Err(ExhaustionReason::StepLimitExceeded));
        // Latched: every later call fails instantly.
        assert_eq!(m.tick(), Err(ExhaustionReason::StepLimitExceeded));
        assert_eq!(m.charge_tuples(1), Err(ExhaustionReason::StepLimitExceeded));
        // The first trip wins: a later tuple-cap violation still reports
        // the latched step limit.
        let mut m = Budget::new().with_step_limit(1).with_tuple_limit(1).meter();
        m.tick().unwrap();
        assert_eq!(m.tick(), Err(ExhaustionReason::StepLimitExceeded));
        assert_eq!(
            m.charge_tuples(100),
            Err(ExhaustionReason::StepLimitExceeded)
        );
    }

    #[test]
    fn tuple_limit_is_not_amortised() {
        let mut m = Budget::new().with_tuple_limit(100).meter();
        assert!(m.charge_tuples(100).is_ok());
        assert_eq!(
            m.charge_tuples(1),
            Err(ExhaustionReason::TupleLimitExceeded)
        );
    }

    #[test]
    fn deadline_trips_at_checkpoint() {
        let mut m = Budget::new()
            .with_deadline(Duration::from_millis(1))
            .meter();
        thread::sleep(Duration::from_millis(3));
        let mut tripped = false;
        // Amortisation: must trip within one CHECK_INTERVAL of ticks.
        for _ in 0..=CHECK_INTERVAL {
            if m.tick() == Err(ExhaustionReason::DeadlineExceeded) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn cancellation_observed_at_checkpoint() {
        let token = CancelToken::new();
        let mut m = Budget::new().with_cancel(token.clone()).meter();
        assert!(m.checkpoint().is_ok());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(m.checkpoint(), Err(ExhaustionReason::Cancelled));
        assert_eq!(m.tick(), Err(ExhaustionReason::Cancelled));
        // Through `tick` alone, cancellation is observed within one
        // amortised checkpoint window, not "eventually".
        let token = CancelToken::new();
        let mut m = Budget::new().with_cancel(token.clone()).meter();
        for _ in 0..CHECK_INTERVAL {
            m.tick().unwrap();
        }
        token.cancel();
        let mut survived = 0u64;
        let reason = loop {
            match m.tick() {
                Ok(()) => survived += 1,
                Err(reason) => break reason,
            }
            assert!(survived <= CHECK_INTERVAL, "{survived} ticks after cancel");
        };
        assert_eq!(reason, ExhaustionReason::Cancelled);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let budget = Budget::new().with_cancel(token.clone());
        let clone = budget.clone();
        token.cancel();
        let mut m = clone.meter();
        assert_eq!(m.checkpoint(), Err(ExhaustionReason::Cancelled));
    }

    #[test]
    fn slice_scales_limits_and_shares_cancel() {
        let token = CancelToken::new();
        let b = Budget::new()
            .with_deadline(Duration::from_millis(100))
            .with_step_limit(1000)
            .with_tuple_limit(10)
            .with_cancel(token.clone());
        let s = b.slice(1, 4);
        assert_eq!(s.deadline, Some(Duration::from_millis(25)));
        assert_eq!(s.step_limit, Some(250));
        assert_eq!(s.tuple_limit, Some(2));
        token.cancel();
        let mut m = s.meter();
        assert_eq!(m.checkpoint(), Err(ExhaustionReason::Cancelled));
        // Finite limits never scale to zero.
        assert_eq!(b.slice(1, 100_000).step_limit, Some(1));
    }

    #[test]
    fn zero_width_slice_exhausts_immediately() {
        // Regression: slice(0, den) of an *unlimited* parent used to
        // produce another unlimited budget (scaling only applied to
        // limits that were present). A zero-width slice must exhaust
        // on the very first unit of work.
        let s = Budget::unlimited().slice(0, 4);
        assert_eq!(s.step_limit, Some(0));
        assert_eq!(s.tuple_limit, Some(0));
        assert_eq!(s.deadline, Some(Duration::ZERO));
        let mut m = s.meter();
        assert!(m.tick().is_err());
        let mut m2 = s.meter();
        assert!(m2.charge_tuples(1).is_err());
        let m3 = s.meter();
        assert!(m3.clone().checkpoint().is_err());
        // Same for a limited parent.
        let s = Budget::new().with_step_limit(1000).slice(0, 4);
        assert!(s.meter().tick().is_err());
        // The cancel token is still shared through a zero slice.
        let token = CancelToken::new();
        let s = Budget::new().with_cancel(token.clone()).slice(0, 2);
        assert!(s.cancel.is_some());
    }

    #[test]
    fn usage_reports_consumption() {
        let mut m = Budget::unlimited().meter();
        for _ in 0..42 {
            m.tick().unwrap();
        }
        m.charge_tuples(7).unwrap();
        let u = m.usage();
        assert_eq!(u.steps, 42);
        assert_eq!(u.tuples, 7);
        assert!(u.to_string().contains("42 steps"));
    }

    #[test]
    fn core_error_conversion_carries_numbers() {
        let mut m = Budget::new().with_step_limit(3).meter();
        let reason = loop {
            if let Err(r) = m.tick() {
                break r;
            }
        };
        let err = m.as_core_error(reason);
        match err {
            CoreError::ResourceExhausted {
                resource,
                spent,
                limit,
            } => {
                assert_eq!(resource, "steps");
                assert_eq!(spent, 4);
                assert_eq!(limit, 3);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn charge_tuples_observes_deadline_without_tuple_cap() {
        // Regression: a skewed join whose inner loop only charges
        // tuples (no ticks) must still observe the deadline, even when
        // no tuple cap is set.
        let mut m = Budget::new()
            .with_deadline(Duration::from_millis(1))
            .meter();
        thread::sleep(Duration::from_millis(3));
        let mut tripped = false;
        for _ in 0..=CHECK_INTERVAL {
            if m.charge_tuples(1) == Err(ExhaustionReason::DeadlineExceeded) {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deadline never observed through charge_tuples");
    }

    #[test]
    fn charge_tuples_observes_cancellation_mid_batch() {
        let token = CancelToken::new();
        let mut m = Budget::new().with_cancel(token.clone()).meter();
        token.cancel();
        // A single huge batch crosses a CHECK_INTERVAL boundary, so the
        // cancellation is observed on this very call.
        assert_eq!(
            m.charge_tuples(10 * CHECK_INTERVAL),
            Err(ExhaustionReason::Cancelled)
        );
    }

    #[test]
    fn child_token_links_one_way() {
        let parent = CancelToken::new();
        let child = parent.child();
        // Child cancellation does not propagate up.
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
        // Parent cancellation propagates down, even to other children.
        let second = parent.child();
        parent.cancel();
        assert!(second.is_cancelled());
    }

    #[test]
    fn faults_ride_the_budget_like_the_tracer() {
        use crate::faults::{FaultPlan, FaultSite};
        let b = Budget::new().with_faults(
            FaultPlan::none()
                .with_seed(1)
                .with_period(FaultSite::QueueFull, 3),
        );
        assert!(b.faults().is_active());
        // Slices share the armed injector: counters are one pool.
        let s = b.slice(1, 2);
        assert!(s.faults().is_active());
        for _ in 0..3 {
            s.faults().fire(FaultSite::QueueFull);
        }
        assert_eq!(b.faults().injected(FaultSite::QueueFull), 1);
        // Default budgets stay inert, and empty plans collapse to inert.
        assert!(!Budget::unlimited().faults().is_active());
        assert!(!Budget::new()
            .with_faults(FaultPlan::none())
            .faults()
            .is_active());
    }

    #[test]
    fn slow_down_fault_applies_at_checkpoints() {
        use crate::faults::{FaultPlan, FaultSite};
        let plan = FaultPlan::none()
            .with_period(FaultSite::SlowDown, 1)
            .with_slow_down(Duration::from_millis(5));
        let mut m = Budget::new().with_faults(plan).meter();
        let t = Instant::now();
        m.checkpoint().unwrap();
        assert!(
            t.elapsed() >= Duration::from_millis(5),
            "checkpoint must observe the injected stall"
        );
    }

    #[test]
    fn answer_taxonomy_predicates() {
        let sat = Answer::Sat(vec![0, 1]);
        let unsat = Answer::Unsat;
        let unk = Answer::Unknown(ExhaustionReason::DeadlineExceeded);
        assert!(sat.is_sat() && sat.is_decided() && !sat.is_unknown());
        assert!(unsat.is_unsat() && unsat.is_decided());
        assert!(unk.is_unknown() && !unk.is_decided());
        assert_eq!(sat.witness(), Some(&[0u32, 1][..]));
        assert_eq!(unk.witness(), None);
        assert!(sat.agrees_with(true) && !sat.agrees_with(false));
        assert!(unsat.agrees_with(false) && !unsat.agrees_with(true));
        assert!(unk.agrees_with(true) && unk.agrees_with(false));
        assert_eq!(unk.to_string(), "unknown (deadline exceeded)");
    }
}
