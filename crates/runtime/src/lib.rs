//! # jl-runtime — the pluggable time/transport plane
//!
//! The engine's actors (compute nodes, data nodes, the controller) never
//! talk to a clock, a network, or a timer wheel directly: everything goes
//! through a per-callback context handle. This crate names that surface as
//! a trait, [`RuntimeCtx`], so the same actor code runs against two
//! backends:
//!
//! * **Simulated** — [`jl_simkit::sim::Ctx`], a plain borrow of the
//!   single-threaded kernel, implements [`RuntimeCtx`] by `#[inline]`
//!   delegation. The simulator stays the deterministic oracle: the adapter
//!   adds no state, no allocation, and no branches, so the sim backend is
//!   byte-identical to calling the kernel directly (the golden decision
//!   traces and the `run_grid` determinism digests pin this).
//! * **Real** — [`real::RealRuntime`] runs the same event loop against the
//!   wall clock: one OS thread owns the nodes and a monotonic clock
//!   ([`std::time::Instant`]) anchored at run start, while any number of
//!   driver threads inject messages through a channel
//!   ([`real::RealHandle`]). Time is still integer nanoseconds
//!   ([`SimTime`] = nanos since the anchor), so every piece of time math
//!   in the engine is backend-agnostic by construction.
//!
//! Dispatch is static on both sides: actors are generic over
//! `C: RuntimeCtx<M>`, the node set is a single concrete enum behind
//! [`RuntimeNode`], and neither backend boxes per-event state. Both
//! backends run callbacks one at a time in event order, so actors record
//! side effects such as trace events directly.
//!
//! What each backend guarantees:
//!
//! | | sim ([`Ctx`](jl_simkit::sim::Ctx)) | real ([`real::RealRuntime`]) |
//! |---|---|---|
//! | `now()` | event timestamp | nanos since run start (monotonic) |
//! | delivery order | (time, seq) heap order, deterministic | (time, seq) heap order of *modeled* times, paced by the wall clock |
//! | resources | analytic FIFO stations | same stations, emulated in real time |
//! | faults | full [`FaultPlan`](jl_simkit::fault::FaultPlan) support | same plan semantics, scheduled on the wall clock |
//! | RNG | per-node seeded streams | identical seed derivation |
//! | timers | exact | fire when the wall clock passes `at` |

#![warn(missing_docs)]

use rand::rngs::StdRng;

use jl_simkit::fault::FaultKind;
use jl_simkit::resource::{Grant, NodeResources, ResourceKind};
use jl_simkit::sim::{Ctx, NodeId};
use jl_simkit::time::{SimDuration, SimTime};

pub mod real;

pub use real::{RealHandle, RealRuntime};

/// The surface through which an actor interacts with its runtime while one
/// of its callbacks is executing: clock, transport, resources, timers,
/// seeded randomness, and run control.
///
/// This mirrors [`jl_simkit::sim::Ctx`] method-for-method — the sim
/// implementation is pure delegation — so porting an actor to the trait
/// cannot change its simulated behavior.
pub trait RuntimeCtx<M> {
    /// Current time: simulated, or nanoseconds since run start.
    fn now(&self) -> SimTime;

    /// The node this callback belongs to.
    fn self_id(&self) -> NodeId;

    /// Send `msg` of `bytes` payload to `to`, leaving now. Returns the
    /// (modeled) delivery time.
    fn send(&mut self, to: NodeId, msg: M, bytes: u64) -> SimTime {
        self.send_ready_at(self.now(), to, msg, bytes)
    }

    /// Send `msg`, the payload becoming available at `ready` (e.g. after a
    /// CPU or disk completion). Returns the (modeled) delivery time.
    fn send_ready_at(&mut self, ready: SimTime, to: NodeId, msg: M, bytes: u64) -> SimTime;

    /// Charge `service` time on one of this node's resources, becoming
    /// ready at `ready`. Returns when the work starts and completes.
    fn use_resource(&mut self, kind: ResourceKind, ready: SimTime, service: SimDuration) -> Grant;

    /// Charge CPU time starting no earlier than now.
    fn use_cpu(&mut self, service: SimDuration) -> Grant {
        self.use_resource(ResourceKind::Cpu, self.now(), service)
    }

    /// Charge disk time starting no earlier than now.
    fn use_disk(&mut self, service: SimDuration) -> Grant {
        self.use_resource(ResourceKind::Disk, self.now(), service)
    }

    /// Read-only view of this node's resources (load introspection).
    fn resources(&self) -> &NodeResources;

    /// Read-only view of another node's resources. Engines use this only
    /// for *measurement*, never decisions (the paper's decentralised-
    /// information constraint).
    fn resources_of(&self, node: NodeId) -> &NodeResources;

    /// Arrange for the timer callback to fire with `tag` at absolute time
    /// `at` (clamped to now if in the past).
    fn set_timer(&mut self, at: SimTime, tag: u64);

    /// Arrange for the timer callback to fire after `delay`.
    fn set_timer_after(&mut self, delay: SimDuration, tag: u64) {
        let at = self.now() + delay;
        self.set_timer(at, tag);
    }

    /// This node's deterministic random stream.
    fn rng(&mut self) -> &mut StdRng;

    /// Request that the run stop after the current callback returns.
    fn stop(&mut self);
}

impl<'a, M> RuntimeCtx<M> for Ctx<'a, M> {
    #[inline]
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }

    #[inline]
    fn self_id(&self) -> NodeId {
        Ctx::self_id(self)
    }

    #[inline]
    fn send(&mut self, to: NodeId, msg: M, bytes: u64) -> SimTime {
        Ctx::send(self, to, msg, bytes)
    }

    #[inline]
    fn send_ready_at(&mut self, ready: SimTime, to: NodeId, msg: M, bytes: u64) -> SimTime {
        Ctx::send_ready_at(self, ready, to, msg, bytes)
    }

    #[inline]
    fn use_resource(&mut self, kind: ResourceKind, ready: SimTime, service: SimDuration) -> Grant {
        Ctx::use_resource(self, kind, ready, service)
    }

    #[inline]
    fn use_cpu(&mut self, service: SimDuration) -> Grant {
        Ctx::use_cpu(self, service)
    }

    #[inline]
    fn use_disk(&mut self, service: SimDuration) -> Grant {
        Ctx::use_disk(self, service)
    }

    #[inline]
    fn resources(&self) -> &NodeResources {
        Ctx::resources(self)
    }

    #[inline]
    fn resources_of(&self, node: NodeId) -> &NodeResources {
        Ctx::resources_of(self, node)
    }

    #[inline]
    fn set_timer(&mut self, at: SimTime, tag: u64) {
        Ctx::set_timer(self, at, tag)
    }

    #[inline]
    fn set_timer_after(&mut self, delay: SimDuration, tag: u64) {
        Ctx::set_timer_after(self, delay, tag)
    }

    #[inline]
    fn rng(&mut self) -> &mut StdRng {
        Ctx::rng(self)
    }

    #[inline]
    fn stop(&mut self) {
        Ctx::stop(self)
    }
}

/// Behaviour of a node, generic over the runtime backend.
///
/// The engine implements this once per node type; each backend calls the
/// handlers with its own concrete [`RuntimeCtx`] (static dispatch — the
/// handlers monomorphize per backend, there is no `Box<dyn>` per event).
/// The simulator's own [`Node`](jl_simkit::sim::Node) impl is a thin
/// delegate to these handlers, kept next to them in the engine (Rust's
/// orphan rule keeps a blanket impl out of this crate).
pub trait RuntimeNode {
    /// Message type exchanged between nodes.
    type Msg;

    /// Called once when the run starts.
    fn handle_start<C: RuntimeCtx<Self::Msg>>(&mut self, _ctx: &mut C) {}

    /// Called when a message addressed to this node is delivered.
    fn handle_message<C: RuntimeCtx<Self::Msg>>(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        ctx: &mut C,
    );

    /// Called when a timer set via [`RuntimeCtx::set_timer`] fires.
    fn handle_timer<C: RuntimeCtx<Self::Msg>>(&mut self, _tag: u64, _ctx: &mut C) {}

    /// Called when a scheduled fault transition hits this node.
    fn handle_fault<C: RuntimeCtx<Self::Msg>>(&mut self, _kind: FaultKind, _ctx: &mut C) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use jl_simkit::sim::{NetConfig, Node, NodeSpec, Sim};

    /// A node written purely against the trait, hosted on the simulator
    /// through a local delegate — the exact pattern the engine uses.
    struct Echo {
        peer: NodeId,
        got: Vec<u64>,
        start: bool,
    }

    impl RuntimeNode for Echo {
        type Msg = u64;
        fn handle_start<C: RuntimeCtx<u64>>(&mut self, ctx: &mut C) {
            if self.start {
                let done = ctx.use_cpu(SimDuration::from_millis(1)).done;
                ctx.send_ready_at(done, self.peer, 3, 100);
            }
        }
        fn handle_message<C: RuntimeCtx<u64>>(&mut self, _from: NodeId, msg: u64, ctx: &mut C) {
            self.got.push(msg);
            if msg > 0 {
                ctx.send(self.peer, msg - 1, 100);
            }
        }
    }

    impl Node for Echo {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            self.handle_start(ctx);
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.handle_message(from, msg, ctx);
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, u64>) {
            self.handle_timer(tag, ctx);
        }
    }

    fn echo_pair(start: bool) -> (Echo, Echo) {
        (
            Echo {
                peer: 1,
                got: vec![],
                start,
            },
            Echo {
                peer: 0,
                got: vec![],
                start: false,
            },
        )
    }

    #[test]
    fn trait_hosted_node_runs_on_sim() {
        let (a, b) = echo_pair(true);
        let mut sim: Sim<Echo> = Sim::new(1, NetConfig::default());
        sim.add_node(a, NodeSpec::default());
        sim.add_node(b, NodeSpec::default());
        sim.run();
        assert_eq!(sim.node(1).got, vec![3, 1]);
        assert_eq!(sim.node(0).got, vec![2, 0]);
    }

    #[test]
    fn same_node_runs_on_real_backend() {
        let (a, b) = echo_pair(true);
        let mut rt: RealRuntime<Echo> = RealRuntime::new(1, NetConfig::default());
        rt.add_node(a, NodeSpec::default());
        rt.add_node(b, NodeSpec::default());
        rt.run();
        assert_eq!(rt.node(1).got, vec![3, 1]);
        assert_eq!(rt.node(0).got, vec![2, 0]);
    }
}
