//! Disk operations and page-in handling.

use crate::exec::{Micro, ResumeWith, UnitRef};
use crate::ids::AsId;
use crate::kernel::{Event, Kernel};
use crate::kthread::{BlockKind, KtState};
use crate::sa::RUNTIME_PAGE;
use crate::upcall::SyscallOutcome;
use sa_machine::ids::PageId;
use sa_sim::SimDuration;

/// The disk read a page fault issues: the paper's fixed 50 ms block per
/// miss (§5.3). Every disk operation completes its latency after it is
/// issued, whatever else is outstanding; the paper found results
/// "qualitatively similar when we took contention for the disk into
/// account".
pub(crate) const PAGE_READ: SimDuration = SimDuration::from_millis(50);

/// Who is waiting for a disk operation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IoWaiter {
    /// An execution unit blocked in the kernel.
    Unit(UnitRef),
    /// The thread manager's own page is being faulted back in so a pended
    /// upcall can be delivered (§3.1).
    RuntimePage(AsId),
}

/// An outstanding disk operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DiskOp {
    pub waiter: IoWaiter,
    pub space: AsId,
    pub outcome: SyscallOutcome,
    /// Page to make resident on completion, if this was a fault.
    pub page: Option<PageId>,
}

impl Kernel {
    /// Issues a blocking disk operation for `unit`.
    pub(crate) fn start_disk_op(
        &mut self,
        unit: UnitRef,
        space: AsId,
        latency: SimDuration,
        outcome: SyscallOutcome,
        page: Option<PageId>,
    ) {
        self.spaces[space.index()].metrics.disk_ops.inc();
        let done_at = self.q.now() + latency;
        let id = self.diskops.len() as u32;
        self.diskops.push(Some(DiskOp {
            waiter: IoWaiter::Unit(unit),
            space,
            outcome,
            page,
        }));
        self.sched_ev(done_at, Event::DiskDone { op: id });
    }

    /// Issues the disk read for the thread manager's own page.
    pub(crate) fn start_runtime_page_read(&mut self, space: AsId) {
        self.spaces[space.index()].metrics.disk_ops.inc();
        let done_at = self.q.now() + PAGE_READ;
        let id = self.diskops.len() as u32;
        self.diskops.push(Some(DiskOp {
            waiter: IoWaiter::RuntimePage(space),
            space,
            outcome: SyscallOutcome::IoDone,
            page: Some(RUNTIME_PAGE),
        }));
        self.sched_ev(done_at, Event::DiskDone { op: id });
    }

    /// Handles a disk completion.
    pub(crate) fn on_disk_done(&mut self, op: u32) {
        let op = self.diskops[op as usize]
            .take()
            .expect("disk completion delivered twice");
        if let Some(page) = op.page {
            self.spaces[op.space.index()].residency.insert(page);
        }
        match op.waiter {
            IoWaiter::Unit(UnitRef::Kt(kt)) => {
                if self.spaces[op.space.index()].done
                    || self.kts.hot[kt.index()].state == KtState::Dead
                {
                    return;
                }
                debug_assert!(
                    matches!(
                        self.kts.hot[kt.index()].state,
                        KtState::Blocked(BlockKind::Io)
                    ),
                    "I/O completion for a non-blocked thread"
                );
                // If the blocked op staged its own return path (page
                // faults), use it; otherwise stage the plain return.
                if self.kts.cold[kt.index()].pipeline.is_empty() {
                    let ret = self.segs.ret;
                    let resume = match self.kts.hot[kt.index()].flavor {
                        crate::exec::KtFlavor::Vp(_) => ResumeWith::Syscall(op.outcome),
                        _ => ResumeWith::Op(sa_machine::OpResult::Done),
                    };
                    let t = &mut self.kts.cold[kt.index()];
                    t.pipeline.push_back(Micro::Seg(ret));
                    t.resume = Some(resume);
                }
                self.wake_kt(kt);
            }
            IoWaiter::Unit(UnitRef::Act(a)) => {
                self.sa_unblock(a, op.outcome);
            }
            IoWaiter::RuntimePage(space) => {
                if self.spaces[space.index()].done {
                    return;
                }
                let s = &mut self.spaces[space.index()];
                s.runtime_pages_resident = true;
                s.sa.deferred_upcalls = 0;
                self.rebalance();
                self.try_deliver_pending(space);
            }
        }
    }
}
