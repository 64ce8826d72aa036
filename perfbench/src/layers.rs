//! The hosted run: the same job on a `jl_simkit::Sim` that the benchmark
//! assembles itself, with every layer timed at its public boundary from
//! outside the program. The traced run and the modeled ladder both use it.
//!
//! * [`TimedNode`] wraps each `ClusterNode` and times its dispatches by
//!   role (compute, data, controller). While a dispatch runs, it sets a
//!   role marker.
//! * [`TimedPolicy`] wraps the placement policy `jl_core::policy_for`
//!   builds; [`TimedUdf`] wraps the digest UDF. Both charge their time to
//!   the role the marker names, and that time is subtracted from the
//!   role's dispatch time, so every reported time is a self time.
//! * [`GrantProbe`] sums modeled resource grants and queue waits.
//!
//! The simulator runs on one thread, so the accumulators are
//! thread-local and need no synchronisation.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use jl_core::{CostInfo, DecisionCtx, OptimizerConfig, Placement, PlacementPolicy};
use jl_engine::{
    build_cluster, gather_report, ClusterHost, ClusterNode, ClusterSpec, EKey, FeedMode, Msg,
    PolicyFactory, RunReport,
};
use jl_simkit::prelude::*;
use jl_simkit::sim::NetTotals;
use jl_simkit::stats::DurationHistogram;
use jl_store::{RowKey, StoreCluster, StoredValue, Udf};

use crate::gen::SimInputs;

/// Who is running: a node role while its dispatch is on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A compute node.
    Compute = 0,
    /// A data node (region server).
    Data = 1,
    /// The controller.
    Controller = 2,
    /// No node dispatch (set-up, reference execution).
    Outside = 3,
}

/// Wall time and counts gathered at the layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Dispatch wall time per role, nanoseconds (policy and UDF included).
    pub dispatch_ns: [u64; 4],
    /// Message dispatches per role.
    pub messages: [u64; 4],
    /// Timer dispatches per role.
    pub timers: [u64; 4],
    /// Placement-policy wall time charged to each role, nanoseconds.
    pub policy_ns: [u64; 4],
    /// UDF wall time charged to each role, nanoseconds.
    pub udf_ns: [u64; 4],
    /// UDF invocations.
    pub udf_calls: u64,
    /// `decide` calls.
    pub decide: u64,
    /// `decide` calls that rented (sent a compute request).
    pub rent: u64,
    /// `on_feedback` calls.
    pub feedback: u64,
    /// `on_cache_hit` calls.
    pub hit: u64,
    /// `on_invalidate` calls.
    pub invalidate: u64,
}

impl Acc {
    /// Self time of `role`'s dispatches: policy and UDF time removed.
    pub fn self_ns(&self, role: Role) -> u64 {
        let r = role as usize;
        self.dispatch_ns[r].saturating_sub(self.policy_ns[r] + self.udf_ns[r])
    }

    /// Dispatch time over all node roles.
    pub fn total_dispatch_ns(&self) -> u64 {
        self.dispatch_ns[..3].iter().sum()
    }
}

thread_local! {
    static ROLE: Cell<Role> = const { Cell::new(Role::Outside) };
    static ACC: RefCell<Acc> = RefCell::new(Acc::default());
}

/// Zero this thread's accumulators.
fn reset() {
    ACC.with(|a| *a.borrow_mut() = Acc::default());
}

/// This thread's accumulators.
fn snapshot() -> Acc {
    ACC.with(|a| *a.borrow())
}

fn charge(f: impl FnOnce(&mut Acc)) {
    ACC.with(|a| f(&mut a.borrow_mut()));
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A `ClusterNode` whose dispatches are timed by role.
pub struct TimedNode {
    /// The wrapped node.
    pub inner: ClusterNode,
    role: Role,
}

impl TimedNode {
    /// Wrap `inner`.
    pub fn new(inner: ClusterNode) -> Self {
        let role = match &inner {
            ClusterNode::Compute(_) => Role::Compute,
            ClusterNode::Data(_) => Role::Data,
            ClusterNode::Controller(_) => Role::Controller,
        };
        TimedNode { inner, role }
    }

    fn dispatch(&mut self, timer: bool, f: impl FnOnce(&mut ClusterNode)) {
        let prev = ROLE.with(|r| r.replace(self.role));
        let t = Instant::now();
        f(&mut self.inner);
        let ns = elapsed_ns(t);
        ROLE.with(|r| r.set(prev));
        let r = self.role as usize;
        charge(|a| {
            a.dispatch_ns[r] += ns;
            if timer {
                a.timers[r] += 1;
            } else {
                a.messages[r] += 1;
            }
        });
    }
}

impl Node for TimedNode {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.dispatch(false, |n| n.on_start(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.dispatch(false, |n| n.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Msg>) {
        self.dispatch(true, |n| n.on_timer(tag, ctx));
    }

    fn on_fault(&mut self, kind: FaultKind, ctx: &mut Ctx<'_, Msg>) {
        self.dispatch(false, |n| n.on_fault(kind, ctx));
    }

    fn may_stop(&self) -> bool {
        self.inner.may_stop()
    }
}

/// Time `f` and charge it to the role currently dispatching.
fn timed<T>(f: impl FnOnce() -> T, add: impl FnOnce(&mut Acc, usize, u64)) -> T {
    let t = Instant::now();
    let out = f();
    let ns = elapsed_ns(t);
    let r = ROLE.with(|r| r.get()) as usize;
    charge(|a| add(a, r, ns));
    out
}

/// A placement policy timed at its trait boundary.
pub struct TimedPolicy(pub Box<dyn PlacementPolicy<EKey>>);

impl PlacementPolicy<EKey> for TimedPolicy {
    fn decide(&mut self, key: &EKey, ctx: &DecisionCtx) -> Placement {
        let p = &mut self.0;
        let placement = timed(
            || p.decide(key, ctx),
            |a, r, ns| {
                a.policy_ns[r] += ns;
                a.decide += 1;
            },
        );
        if matches!(placement, Placement::Rent) {
            charge(|a| a.rent += 1);
        }
        placement
    }

    fn on_feedback(&mut self, key: &EKey, cost: &CostInfo) {
        let p = &mut self.0;
        timed(
            || p.on_feedback(key, cost),
            |a, r, ns| {
                a.policy_ns[r] += ns;
                a.feedback += 1;
            },
        );
    }

    fn on_invalidate(&mut self, key: &EKey) {
        let p = &mut self.0;
        timed(
            || p.on_invalidate(key),
            |a, r, ns| {
                a.policy_ns[r] += ns;
                a.invalidate += 1;
            },
        );
    }

    fn on_cache_hit(&mut self, key: &EKey) {
        let p = &mut self.0;
        timed(
            || p.on_cache_hit(key),
            |a, r, ns| {
                a.policy_ns[r] += ns;
                a.hit += 1;
            },
        );
    }

    fn uses_cache(&self) -> bool {
        self.0.uses_cache()
    }

    fn freq_count(&self, key: &EKey) -> u64 {
        self.0.freq_count(key)
    }
}

/// A [`PolicyFactory`] that builds `jl_core::policy_for`'s policy — the
/// one every compute node runs by default — wrapped in [`TimedPolicy`].
pub fn timed_policy_factory() -> PolicyFactory {
    Arc::new(|cfg: &OptimizerConfig, seed: u64| {
        Box::new(TimedPolicy(jl_core::policy_for::<EKey>(cfg, seed)))
            as Box<dyn PlacementPolicy<EKey>>
    })
}

/// A UDF timed at its trait boundary.
pub struct TimedUdf(pub Arc<dyn Udf>);

impl Udf for TimedUdf {
    fn apply(&self, key: &RowKey, params: &[u8], value: &StoredValue) -> Bytes {
        timed(
            || self.0.apply(key, params, value),
            |a, r, ns| {
                a.udf_ns[r] += ns;
                a.udf_calls += 1;
            },
        )
    }

    fn cpu_cost(&self, key: &RowKey, value: &StoredValue) -> SimDuration {
        self.0.cpu_cost(key, value)
    }
}

/// Modeled grant totals of one node and resource.
#[derive(Debug, Clone, Copy, Default)]
pub struct GrantSums {
    /// Grants issued.
    pub grants: u64,
    /// Summed service time, seconds.
    pub busy_s: f64,
    /// Summed wait between ready and start, seconds.
    pub wait_s: f64,
}

/// Grant totals by `(node, resource)`.
pub type GrantTable = BTreeMap<(NodeId, usize), GrantSums>;

/// A probe summing modeled grants and queue waits per node and resource.
pub struct GrantProbe(pub Rc<RefCell<GrantTable>>);

impl SimProbe for GrantProbe {
    fn on_grant(
        &mut self,
        node: NodeId,
        kind: ResourceKind,
        ready: SimTime,
        service: SimDuration,
        grant: Grant,
    ) {
        let mut t = self.0.borrow_mut();
        let s = t.entry((node, kind as usize)).or_default();
        s.grants += 1;
        s.busy_s += service.as_secs_f64();
        s.wait_s += grant.start.since(ready).as_secs_f64();
    }
}

/// Report gathering over a simulator of wrapped nodes.
struct Host<'a>(&'a Sim<TimedNode>);

impl ClusterHost for Host<'_> {
    fn node(&self, id: usize) -> &ClusterNode {
        &self.0.node(id).inner
    }
    fn resources(&self, id: usize) -> &NodeResources {
        self.0.resources(id)
    }
    fn net_totals(&self) -> NetTotals {
        self.0.net_totals()
    }
    fn link_stats(&self) -> &BTreeMap<(usize, usize), LinkStats> {
        self.0.link_stats()
    }
    fn events_processed(&self) -> u64 {
        self.0.events_processed()
    }
}

/// What one hosted run measured.
pub struct Hosted {
    /// The run's report (must match the untraced run's).
    pub report: RunReport,
    /// Per-tuple latencies of every compute node, merged: `run_job`
    /// reports only their p99.
    pub latency: DurationHistogram,
    /// Layer accumulators for this run.
    pub acc: Acc,
    /// Modeled grant totals (empty unless the layers were wrapped).
    pub grants: GrantTable,
    /// `build_cluster`, seconds.
    pub build_s: f64,
    /// The event loop, seconds.
    pub loop_s: f64,
    /// `gather_report`, seconds.
    pub gather_s: f64,
    /// Build, simulator assembly, event loop and gathering, timed as one
    /// span, seconds.
    pub wall_s: f64,
    /// Sim node ids of the compute nodes.
    pub compute_ids: Vec<usize>,
    /// Sim node ids of the data nodes.
    pub data_ids: Vec<usize>,
}

/// Run `inputs` on a benchmark-assembled simulator of [`TimedNode`]s.
/// With `wrap` set, the placement policy and the UDF are wrapped and
/// [`GrantProbe`] is installed too, so every layer is timed; without it
/// the job's own policy and UDF run, and only node dispatch is timed.
/// `store` must be `inputs.store()`.
pub fn host(inputs: &SimInputs, store: StoreCluster, wrap: bool) -> Hosted {
    let spec = inputs.job(wrap.then(timed_policy_factory), None);
    let udfs = if wrap {
        inputs.udfs(|u| Arc::new(TimedUdf(u)))
    } else {
        inputs.udfs(|u| u)
    };
    let cluster: &ClusterSpec = &spec.cluster;
    if let Some(ov) = &spec.overload {
        ov.validate();
    }
    if let Some(m) = &spec.membership {
        m.validate(cluster);
    }
    let tuples = inputs.tuples.clone();
    let updates = inputs.timed_updates();
    reset();

    let t0 = Instant::now();
    let built = build_cluster(&spec, store, udfs, tuples, updates, &None);
    let build_s = t0.elapsed().as_secs_f64();

    let grants = Rc::new(RefCell::new(GrantTable::new()));
    let mut sim: Sim<TimedNode> = Sim::new(spec.seed, cluster.net);
    for node in built.nodes {
        sim.add_node(TimedNode::new(node), cluster.node);
    }
    if wrap {
        sim.set_probe(Box::new(GrantProbe(Rc::clone(&grants))));
    }
    sim.reserve_events(built.posts.len());
    for (at, to, msg, bytes) in built.posts {
        sim.post(at, to, msg, bytes);
    }

    let t2 = Instant::now();
    let end = match spec.feed {
        FeedMode::Batch { .. } => sim.run(),
        FeedMode::Stream { horizon, .. } => sim.run_until(SimTime::ZERO + horizon),
    };
    let loop_s = t2.elapsed().as_secs_f64();

    let t3 = Instant::now();
    let report = gather_report(&Host(&sim), cluster, end);
    let gather_s = t3.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();

    let compute_ids: Vec<usize> = (0..cluster.n_compute)
        .map(|i| cluster.compute_id(i))
        .collect();
    let mut latency = DurationHistogram::new();
    for &id in &compute_ids {
        if let Some(n) = sim.node(id).inner.as_compute() {
            latency.merge(n.latency());
        }
    }
    drop(sim);
    let grants = Rc::try_unwrap(grants)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| rc.borrow().clone());
    Hosted {
        report,
        latency,
        acc: snapshot(),
        grants,
        build_s,
        loop_s,
        gather_s,
        wall_s,
        compute_ids,
        data_ids: (0..cluster.n_data).map(|j| cluster.data_id(j)).collect(),
    }
}
