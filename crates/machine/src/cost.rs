//! The calibrated cost model of the simulated machine and systems software.
//!
//! The paper reports its measurements on a CVAX DEC SRC Firefly: a procedure
//! call costs about 7 µs and a kernel trap about 19 µs (§2.1). Every other
//! constant here is a *calibration parameter*: the per-primitive time charged
//! when the corresponding code path executes in the simulator. The benchmark
//! harnesses then *measure* composite latencies (Null Fork, Signal-Wait, …)
//! by running the real code paths, so the structure of each result — how many
//! traps, context switches, upcalls, and queue operations a path performs —
//! comes from the implementation, and only the per-primitive magnitudes are
//! fitted to the paper's hardware.
//!
//! Two presets are provided:
//!
//! - [`CostModel::firefly_prototype`] — matches the paper's prototype,
//!   including its admittedly slow upcall path (§5.2: kernel-forced
//!   signal-wait ≈ 2.4 ms, a factor of five worse than Topaz kernel
//!   threads, attributed to Modula-2+ and retrofitted kernel state).
//! - [`CostModel::tuned`] — the paper's projection of a from-scratch,
//!   assembler-tuned implementation whose upcall cost is commensurate with
//!   Topaz kernel-thread operations.

use sa_sim::SimDuration;

/// Microsecond helper for the constants below.
const fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// Nanosecond helper for sub-microsecond constants.
const fn ns(n: u64) -> SimDuration {
    SimDuration::from_nanos(n)
}

/// Per-primitive virtual-time costs charged by the simulator.
///
/// Fields are grouped by the subsystem whose code path charges them.
#[derive(Debug, Clone)]
pub struct CostModel {
    // ---- Machine primitives (paper §2.1) ----
    /// One procedure call; the paper's yardstick (≈ 7 µs on the Firefly).
    pub proc_call: SimDuration,
    /// User→kernel protection-boundary crossing (trap + register save).
    pub kernel_trap: SimDuration,
    /// Kernel→user return.
    pub kernel_return: SimDuration,
    /// Syscall parameter copy-in and validation ("copy and check
    /// parameters in order to protect itself", §2.1).
    pub syscall_copy_check: SimDuration,
    /// Kernel-level context switch (save/restore + run-queue manipulation).
    pub kt_ctx_switch: SimDuration,
    /// User-level context switch (register swap on the same address space).
    pub ut_ctx_switch: SimDuration,
    /// One atomic test-and-set (the only atomic the paper assumes, §3.3 fn).
    pub test_and_set: SimDuration,

    // ---- FastThreads user-level paths ([Anderson et al. 89], §4.2) ----
    /// Pop a thread control block + stack from the per-processor free list.
    pub ut_tcb_alloc: SimDuration,
    /// Initialize a TCB (entry point, stack pointer).
    pub ut_tcb_init: SimDuration,
    /// Return a TCB to the free list.
    pub ut_tcb_free: SimDuration,
    /// Push onto a per-processor ready list (includes its spin lock).
    pub ut_ready_enqueue: SimDuration,
    /// Pop from a ready list (includes its spin lock).
    pub ut_ready_dequeue: SimDuration,
    /// One scan step while looking for work on another processor's list.
    pub ut_scan_step: SimDuration,
    /// Uncontended user-level mutex acquire or release fast path.
    pub ut_lock_fast: SimDuration,
    /// User-level condition-variable queue operation.
    pub ut_cv_op: SimDuration,
    /// Thread exit bookkeeping (before the TCB is freed).
    pub ut_exit_cleanup: SimDuration,
    /// Join fast path (child already exited / parent records waiter).
    pub ut_join: SimDuration,

    // ---- Scheduler-activation deltas at user level (Table 4) ----
    /// Increment/decrement the busy-thread count and check whether the
    /// kernel must be notified (the paper's +3 µs on Null Fork).
    pub sa_busy_accounting: SimDuration,
    /// Check whether a resumed thread was preempted (and restore condition
    /// codes if so) — part of the paper's +5 µs on Signal-Wait.
    pub sa_resume_check: SimDuration,
    /// Set or clear the explicit critical-section flag. Only charged in
    /// `CriticalSectionMode::ExplicitFlag`; the paper's zero-overhead
    /// code-copying scheme (§4.3) avoids it, and removing that optimization
    /// cost 34→49 µs (Null Fork) and 42→48 µs (Signal-Wait) in §5.1.
    pub explicit_flag: SimDuration,

    // ---- Topaz kernel threads ----
    /// Kernel-side thread creation (TCB + kernel stack + accounting).
    pub kt_create: SimDuration,
    /// First dispatch of a new kernel thread.
    pub kt_start: SimDuration,
    /// Kernel-side thread teardown.
    pub kt_exit: SimDuration,
    /// Kernel condition-variable signal path (inside the kernel).
    pub kt_signal: SimDuration,
    /// Kernel condition-variable wait path (queueing, before the switch).
    pub kt_wait: SimDuration,
    /// Scheduler decision + run-queue ops on the kernel fast path.
    pub kt_sched: SimDuration,
    /// Kernel mutex slow path (block on contended app lock, Topaz-style).
    pub kt_lock_block: SimDuration,

    // ---- Ultrix-like processes ----
    /// Process creation (address-space duplication dominates).
    pub proc_fork_work: SimDuration,
    /// Process teardown.
    pub proc_exit_work: SimDuration,
    /// Process-level signal delivery.
    pub proc_signal_work: SimDuration,
    /// Process-level wait.
    pub proc_wait_work: SimDuration,

    // ---- Scheduler activations (kernel side) ----
    /// Allocate + initialize a fresh activation (control block, two stacks).
    pub act_create_fresh: SimDuration,
    /// Reuse a cached, previously discarded activation (§4.3).
    pub act_create_cached: SimDuration,
    /// Kernel work to build and dispatch one upcall (beyond activation
    /// allocation): assembling the event set, selecting the processor,
    /// entering the address space at the fixed entry point.
    pub upcall_dispatch: SimDuration,
    /// User-level upcall prologue in the thread system (decode events).
    pub upcall_user_entry: SimDuration,
    /// Stop a running activation via inter-processor interrupt and save the
    /// user thread's machine state for the notifying upcall.
    pub act_stop_and_save: SimDuration,
    /// One batched "recycle discarded activations" kernel call (§4.3).
    pub act_recycle_call: SimDuration,
    /// Kernel-side work to process a Table-3 hint
    /// (`AddMoreProcessors` / `ThisProcessorIsIdle`).
    pub sa_hint_call: SimDuration,

    // ---- Virtual memory ----
    /// Kernel page-fault service before the disk read is issued.
    pub page_fault_service: SimDuration,

    // ---- Scheduling parameters ----
    /// Time-slice quantum of the native (oblivious) Topaz scheduler.
    pub quantum: SimDuration,
}

impl CostModel {
    /// Cost model calibrated to the paper's CVAX Firefly prototype.
    ///
    /// Composite latencies measured by the harness on this model land on
    /// the paper's Tables 1 and 4 (34/37/37/42 µs user level, 948/441 µs
    /// Topaz, 11300/1840 µs Ultrix) and on §5.2's ≈ 2.4 ms kernel-forced
    /// signal-wait.
    pub fn firefly_prototype() -> Self {
        CostModel {
            proc_call: us(7),
            kernel_trap: us(19),
            kernel_return: us(5),
            syscall_copy_check: us(10),
            kt_ctx_switch: us(25),
            ut_ctx_switch: us(8),
            test_and_set: ns(500),

            ut_tcb_alloc: ns(1_500),
            ut_tcb_init: us(1),
            ut_tcb_free: us(1),
            ut_ready_enqueue: us(1),
            ut_ready_dequeue: us(2),
            ut_scan_step: us(1),
            ut_lock_fast: us(1),
            ut_cv_op: ns(13_500),
            ut_exit_cleanup: ns(1_500),
            ut_join: us(1),

            sa_busy_accounting: ns(1_500),
            sa_resume_check: us(2),
            explicit_flag: us(2),

            kt_create: us(500),
            kt_start: us(30),
            kt_exit: us(300),
            kt_signal: us(210),
            kt_wait: us(183),
            kt_sched: us(30),
            kt_lock_block: us(150),

            proc_fork_work: us(10_650),
            proc_exit_work: us(500),
            proc_signal_work: us(880),
            proc_wait_work: us(912),

            act_create_fresh: us(60),
            act_create_cached: us(15),
            upcall_dispatch: us(1_100),
            upcall_user_entry: us(10),
            act_stop_and_save: us(40),
            act_recycle_call: us(35),
            sa_hint_call: us(40),

            page_fault_service: us(40),

            quantum: SimDuration::from_millis(100),
        }
    }

    /// The paper's projected *tuned* implementation (§5.2): upcall overhead
    /// commensurate with Topaz kernel-thread operations, everything else as
    /// the prototype.
    pub fn tuned() -> Self {
        CostModel {
            upcall_dispatch: us(120),
            act_create_fresh: us(40),
            act_create_cached: us(8),
            act_stop_and_save: us(25),
            ..Self::firefly_prototype()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_yardsticks() {
        let m = CostModel::firefly_prototype();
        assert_eq!(m.proc_call.as_micros(), 7);
        assert_eq!(m.kernel_trap.as_micros(), 19);
    }

    #[test]
    fn tuned_only_speeds_up_upcall_machinery() {
        let p = CostModel::firefly_prototype();
        let t = CostModel::tuned();
        assert!(t.upcall_dispatch < p.upcall_dispatch);
        assert!(t.act_create_fresh < p.act_create_fresh);
        assert_eq!(t.kt_create, p.kt_create);
        assert_eq!(t.ut_tcb_alloc, p.ut_tcb_alloc);
    }

    #[test]
    fn user_level_paths_are_cheaper_than_kernel_paths() {
        let m = CostModel::firefly_prototype();
        // The core economic claim of §2.1: user-level thread primitives
        // must be procedure-call scale while kernel paths pay the trap.
        assert!(m.ut_tcb_alloc + m.ut_tcb_init < m.kernel_trap);
        assert!(m.ut_ctx_switch < m.kt_ctx_switch);
        assert!(m.kt_create > m.kernel_trap.saturating_mul(10));
        assert!(m.proc_fork_work > m.kt_create.saturating_mul(10));
    }

    #[test]
    fn cached_activations_are_cheaper_than_fresh() {
        let m = CostModel::firefly_prototype();
        assert!(m.act_create_cached < m.act_create_fresh);
    }
}
