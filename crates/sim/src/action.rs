//! Process actions: the primitive operations a simulated process performs.
//!
//! Each simulated process executes a sequential script of actions. The
//! action vocabulary mirrors the MPI subset used by the paper's Poisson
//! application (Gropp et al., ch. 4): compute bursts, blocking send/receive,
//! non-blocking send/receive with wait, barriers/reductions, and file I/O.

use crate::program::{FuncId, ProcId, TagId};
use crate::time::SimDuration;

/// Identifier of a non-blocking communication request, local to a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u32);

/// One primitive operation of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Execute on the CPU for `dur` of unperturbed time, attributed to
    /// `func`. (Instrumentation perturbation can stretch the actual time.)
    Compute {
        /// Function the work is attributed to.
        func: FuncId,
        /// Unperturbed CPU time.
        dur: SimDuration,
    },
    /// Blocking send of `bytes` to `to` with message tag `tag`.
    /// Eager below the machine's threshold, rendezvous above it.
    Send {
        /// Function issuing the send.
        func: FuncId,
        /// Destination rank.
        to: ProcId,
        /// Message tag.
        tag: TagId,
        /// Payload size.
        bytes: u64,
    },
    /// Blocking receive of the next message from `from` with tag `tag`.
    Recv {
        /// Function issuing the receive.
        func: FuncId,
        /// Source rank.
        from: ProcId,
        /// Message tag.
        tag: TagId,
    },
    /// Non-blocking send; completes locally, transfer proceeds in the
    /// background. The request can be waited on with [`Action::WaitAll`].
    Isend {
        /// Function issuing the send.
        func: FuncId,
        /// Destination rank.
        to: ProcId,
        /// Message tag.
        tag: TagId,
        /// Payload size.
        bytes: u64,
        /// Local request handle.
        req: ReqId,
    },
    /// Non-blocking receive posting.
    Irecv {
        /// Function issuing the receive.
        func: FuncId,
        /// Source rank.
        from: ProcId,
        /// Message tag.
        tag: TagId,
        /// Local request handle.
        req: ReqId,
    },
    /// Block until requests `first`, `first + 1`, … (`count` of them)
    /// complete.
    WaitAll {
        /// Function issuing the wait.
        func: FuncId,
        /// The first request to complete.
        first: ReqId,
        /// How many consecutive requests to complete.
        count: u32,
    },
    /// Block until every process has entered the barrier; models both
    /// `MPI_Barrier` and (cost-wise) small collective reductions.
    Barrier {
        /// Function issuing the barrier.
        func: FuncId,
    },
    /// A data-carrying collective (`MPI_Allreduce` / `MPI_Bcast`-class):
    /// all processes block until everyone arrives, then pay a log-tree
    /// transfer cost for `bytes` of payload.
    AllReduce {
        /// Function issuing the collective.
        func: FuncId,
        /// Per-process payload size.
        bytes: u64,
    },
    /// Blocking sequential I/O of `bytes`.
    Io {
        /// Function issuing the I/O.
        func: FuncId,
        /// Bytes read or written.
        bytes: u64,
    },
}

impl Action {
    /// The function this action is attributed to.
    pub fn func(&self) -> FuncId {
        match self {
            Action::Compute { func, .. }
            | Action::Send { func, .. }
            | Action::Recv { func, .. }
            | Action::Isend { func, .. }
            | Action::Irecv { func, .. }
            | Action::WaitAll { func, .. }
            | Action::Barrier { func }
            | Action::AllReduce { func, .. }
            | Action::Io { func, .. } => *func,
        }
    }

    /// The message tag, for communication actions.
    pub fn tag(&self) -> Option<TagId> {
        match self {
            Action::Send { tag, .. }
            | Action::Recv { tag, .. }
            | Action::Isend { tag, .. }
            | Action::Irecv { tag, .. } => Some(*tag),
            _ => None,
        }
    }
}

/// A sequential generator of actions for one process.
///
/// Scripts may be infinite (iterative applications that run until the
/// diagnosis session ends) or finite (the process exits when `next`
/// returns `None`).
pub trait ProcessScript {
    /// The next action, or `None` when the process has finished.
    fn next_action(&mut self) -> Option<Action>;

    /// Appends the next run of actions (at least one) to `out` and
    /// returns `true`, or appends nothing and returns `false` when the
    /// process has finished. How the engine reads scripts: a script that
    /// produces an iteration at a time hands it over in one call into a
    /// buffer the caller reuses. Interleaves freely with
    /// [`ProcessScript::next_action`]; the action sequence is the same.
    fn next_batch(&mut self, out: &mut Vec<Action>) -> bool {
        match self.next_action() {
            Some(a) => {
                out.push(a);
                true
            }
            None => false,
        }
    }
}

/// A script backed by a fixed action list; convenient in tests.
#[derive(Debug, Clone)]
pub struct VecScript {
    actions: std::vec::IntoIter<Action>,
}

impl VecScript {
    /// Wraps a fixed action list.
    pub fn new(actions: Vec<Action>) -> VecScript {
        VecScript {
            actions: actions.into_iter(),
        }
    }
}

impl ProcessScript for VecScript {
    fn next_action(&mut self) -> Option<Action> {
        self.actions.next()
    }
}

/// A script that repeats one iteration body forever (or `max_iters` times),
/// useful for modelling fixed-iteration loops.
pub struct LoopScript<F: FnMut(u64, &mut Vec<Action>)> {
    body: F,
    iter: u64,
    max_iters: Option<u64>,
    /// The rest of the current iteration when it is being handed out one
    /// action at a time, last action first.
    rest: Vec<Action>,
}

impl<F: FnMut(u64, &mut Vec<Action>)> LoopScript<F> {
    /// Creates a loop script; `body(i, out)` appends the actions of
    /// iteration `i` to `out`.
    pub fn new(max_iters: Option<u64>, body: F) -> Self {
        LoopScript {
            body,
            iter: 0,
            max_iters,
            rest: Vec::new(),
        }
    }
}

impl<F: FnMut(u64, &mut Vec<Action>)> ProcessScript for LoopScript<F> {
    fn next_action(&mut self) -> Option<Action> {
        if self.rest.is_empty() {
            let mut iteration = std::mem::take(&mut self.rest);
            if !self.next_batch(&mut iteration) {
                return None;
            }
            iteration.reverse();
            self.rest = iteration;
        }
        self.rest.pop()
    }

    fn next_batch(&mut self, out: &mut Vec<Action>) -> bool {
        if !self.rest.is_empty() {
            out.extend(self.rest.drain(..).rev());
            return true;
        }
        let before = out.len();
        loop {
            if self.max_iters.is_some_and(|max| self.iter >= max) {
                return false;
            }
            (self.body)(self.iter, out);
            self.iter += 1;
            if out.len() > before {
                return true;
            }
            if self.max_iters.is_none() {
                // An empty infinite body would spin forever.
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_accessors() {
        let a = Action::Send {
            func: FuncId(3),
            to: ProcId(1),
            tag: TagId(0),
            bytes: 64,
        };
        assert_eq!(a.func(), FuncId(3));
        assert_eq!(a.tag(), Some(TagId(0)));
        let b = Action::Barrier { func: FuncId(2) };
        assert_eq!(b.func(), FuncId(2));
        assert_eq!(b.tag(), None);
    }

    #[test]
    fn vec_script_drains_in_order() {
        let mut s = VecScript::new(vec![
            Action::Barrier { func: FuncId(0) },
            Action::Io {
                func: FuncId(1),
                bytes: 10,
            },
        ]);
        assert!(matches!(s.next_action(), Some(Action::Barrier { .. })));
        assert!(matches!(s.next_action(), Some(Action::Io { .. })));
        assert!(s.next_action().is_none());
        assert!(s.next_action().is_none());
    }

    #[test]
    fn loop_script_repeats_body() {
        let mut s = LoopScript::new(Some(3), |i, out: &mut Vec<Action>| {
            out.push(Action::Compute {
                func: FuncId(i as u16),
                dur: SimDuration(1),
            })
        });
        let mut funcs = vec![];
        while let Some(a) = s.next_action() {
            funcs.push(a.func().0);
        }
        assert_eq!(funcs, vec![0, 1, 2]);
    }

    #[test]
    fn loop_script_stops_on_empty_infinite_body() {
        let mut s = LoopScript::new(None, |_, _: &mut Vec<Action>| {});
        assert!(s.next_action().is_none());
    }
}
