//! Debugger integration (§4.4).
//!
//! "The kernel support we have described informs the user-level thread
//! system of the state of each of its physical processors, but this is
//! inappropriate when the thread system itself is being debugged.
//! Instead, the kernel assigns each scheduler activation being debugged a
//! *logical processor*; when the debugger stops or single-steps a
//! scheduler activation, these events do not cause upcalls into the
//! user-level thread system."

use crate::activation::ActState;
use crate::exec::Running;
use crate::ids::ActId;
use crate::kernel::Kernel;
use sa_sim::TraceEvent;

impl Kernel {
    /// Stops an activation under debugger control. The activation moves to
    /// a logical processor: it is taken off its physical CPU **without**
    /// generating a `Preempted` upcall, and the freed processor is
    /// reallocated. Returns false if the activation is not currently
    /// running (already stopped, blocked, or recycled).
    pub fn debug_stop(&mut self, act: ActId) -> bool {
        let ActState::Running(cpu) = self.acts[act.index()].state else {
            return false;
        };
        let cpu = cpu as usize;
        debug_assert!(matches!(self.cpus[cpu].running, Running::Act(a) if a == act));
        let space = self.acts[act.index()].space;
        // Save the in-flight segment so `debug_resume` can continue the
        // activation exactly where it stopped (the debugger's transparency
        // requirement).
        self.split_inflight_to_unit(cpu);
        self.bump_gen(cpu);
        self.acts[act.index()].state = ActState::DebugStopped;
        let sa = &mut self.spaces[space.index()].sa;
        sa.running.retain(|&x| x != act);
        self.set_idle(cpu);
        self.trace.event(self.q.now(), || TraceEvent::DebugStop {
            space: space.0,
            cpu: cpu as u32,
            act: act.0,
        });
        // No upcall: the space simply has one fewer processor for now.
        self.release_cpu(cpu);
        self.rebalance();
        true
    }

    /// Resumes a debug-stopped activation on a physical processor as soon
    /// as one can be assigned. Returns false if the activation was not
    /// debug-stopped.
    ///
    /// The activation continues exactly where it stopped — again without
    /// any upcall, preserving the sequence of instructions under debug.
    pub fn debug_resume(&mut self, act: ActId) -> bool {
        if self.acts[act.index()].state != ActState::DebugStopped {
            return false;
        }
        let space = self.acts[act.index()].space;
        let Some(cpu) = self.pick_grant_cpu(space) else {
            // No free processor; the caller retries (a real debugger
            // blocks here). We do not steal: debugging must not perturb
            // other spaces.
            return false;
        };
        // A grant's bookkeeping minus the upcall, opened by no allocator
        // decision: the dwell ledger books the stretch to the space, and
        // the hysteresis veto sees when it began.
        self.assign_cpu(cpu, space, 0);
        self.acts[act.index()].state = ActState::Running(cpu as u16);
        self.spaces[space.index()].sa.running.push(act);
        self.end_idle(cpu);
        self.cpus[cpu].running = Running::Act(act);
        self.trace.event(self.q.now(), || TraceEvent::DebugResume {
            space: space.0,
            cpu: cpu as u32,
            act: act.0,
        });
        self.schedule_dispatch(cpu);
        true
    }

    /// True if the activation is currently stopped under the debugger.
    pub fn is_debug_stopped(&self, act: ActId) -> bool {
        self.acts[act.index()].state == ActState::DebugStopped
    }

    /// The activations currently running for a space (debugger UI helper:
    /// lists the space's physical processors and their vessels).
    pub fn running_activations(&self, space: crate::ids::AsId) -> Vec<ActId> {
        self.spaces[space.index()].sa.running.clone()
    }
}
