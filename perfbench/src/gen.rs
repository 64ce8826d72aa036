//! Workload generation. Every input the program receives is made here
//! from the run's `--seed`; the same seed gives byte-identical inputs.

use std::sync::Arc;
use std::time::Instant;

use rand::Rng;

use jl_bench::serve::{serve_job, ServeConfig};
use jl_core::{OptimizerConfig, Strategy};
use jl_engine::{
    ClusterSpec, FeedMode, JobPlan, JobSpec, JobTuple, MembershipConfig, OverloadConfig,
    PolicyFactory, RetryConfig,
};
use jl_simkit::rng::stream_rng;
use jl_simkit::time::{SimDuration, SimTime};
use jl_store::{
    DigestUdf, Partitioning, RegionMap, RowKey, StoreCluster, StoredValue, Udf, UdfRegistry,
};
use jl_telemetry::TelemetryConfig;
use jl_workloads::{AnnotationWorkload, SyntheticSpec, TweetStream, Zipf};

/// The UDF id every generated job registers its digest function under.
pub const UDF: usize = 0;

/// The seed of input set `i` of a run with seed `seed`.
pub fn set_seed(seed: u64, i: usize) -> u64 {
    jl_simkit::rng::derive_seed(seed, &format!("input-set-{i}"))
}

/// Offered rates of the wall-clock front-door ladder, requests per
/// second: about 0.1, 0.4, 0.8, 1.2 and 1.6 times the serve shape's
/// modeled capacity. Every modeled ladder offers the same shares of its
/// own workload's capacity (see [`Workload::ladder`]) and names its steps
/// after these rates.
pub const LADDER: [u64; 5] = [4_000, 16_000, 32_000, 48_000, 64_000];

/// Share of tweet-stream spots that also carry a model update.
pub const UPDATE_SHARE: f64 = 0.005;

/// Tweets per tweet-stream input set (half of Fig. 6's default, with
/// all five trend shifts).
pub const TWEETS: u64 = 100_000;

/// Seed of the tweet stream's model store. The trained models are a
/// fixed corpus, as in the paper; `--seed` draws the stream and its
/// updates.
pub const MODEL_CORPUS_SEED: u64 = 42;

/// Recorded modeled capacities, tuples per modeled second (see
/// [`Workload::capacity_rps`]).
const CAP_DH: u64 = 119_000;
const CAP_CH: u64 = 1_390;
const CAP_TWEET: u64 = 462;
const CAP_SERVE: u64 = 39_700;

/// Recorded p99 limits (see [`Workload::p99_limit_ms`]), modeled ms:
/// about 2.5 times the p99 at light load — at the first ladder step on
/// `dh_batch` (8.3 ms) and `ch_batch` (268 ms), at the second on the
/// stream (390 ms), whose tail grows from the lightest load on. The serve
/// shape's 3.9 ms at its first step gives its front door's 10 ms.
const LIMIT_DH: f64 = 21.0;
const LIMIT_CH: f64 = 670.0;
const LIMIT_TWEET: f64 = 1_000.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §9.3 data-heavy batch job.
    DhBatch,
    /// §9.3 compute-heavy batch job.
    ChBatch,
    /// Fig. 6 tweet-annotation stream with in-stream model updates.
    TweetStream,
    /// The `jl-serve` front door on the wall-clock runtime, open loop.
    ServeOpen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::DhBatch,
        Workload::ChBatch,
        Workload::TweetStream,
        Workload::ServeOpen,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DhBatch => "dh_batch",
            Workload::ChBatch => "ch_batch",
            Workload::TweetStream => "tweet_stream",
            Workload::ServeOpen => "serve_open",
        }
    }

    /// Input sets one run measures, 16 on every workload. Each is drawn
    /// from its own seed, derived from `--seed`, and metrics aggregate
    /// over the sets: the work of one set varies with its draw (on
    /// `dh_batch` its event count ranges over ±25% at equal tuple
    /// counts), and with 4 sets a run's `tuples_per_s` still followed its
    /// seed's total event count, by ±10%.
    pub fn sets(self) -> usize {
        16
    }

    /// Modeled capacity of the workload's ladder job, tuples per modeled
    /// second, recorded at seed 1 (see the README): the completion rate
    /// of each set's first [`Workload::ladder_tuples`] tuples offered at
    /// twice that rate, median over the sets. The stream completes ever
    /// more the longer its backlog (its batches fill: 2,030/s), far
    /// beyond what it serves within its p99 limit, so its value is set
    /// instead to put its third ladder step just under its p99 knee
    /// (~400/s), where the other workloads' third steps also fall
    /// (0.8–1.06 of the rate at which their p99 reaches its limit).
    pub fn capacity_rps(self) -> u64 {
        match self {
            Workload::DhBatch => CAP_DH,
            Workload::ChBatch => CAP_CH,
            Workload::TweetStream => CAP_TWEET,
            Workload::ServeOpen => CAP_SERVE,
        }
    }

    /// Offered rates of the modeled ladder, tuples per modeled second:
    /// the shares of [`Workload::capacity_rps`] that [`LADDER`]'s first
    /// four rates are of the serve shape's capacity, so every workload's
    /// ladder runs from light load through its knee into overload (the
    /// fifth, deeper overload step would add nothing to the metrics).
    /// Step `i` is named after `LADDER[i]` (`r4k` … `r48k`); on
    /// `serve_open` the rates are `LADDER`'s own.
    pub fn ladder(self) -> [u64; 4] {
        std::array::from_fn(|i| LADDER[i] * self.capacity_rps() / CAP_SERVE)
    }

    /// Tuples of each input set re-fed at every modeled ladder rate.
    pub fn ladder_tuples(self) -> usize {
        match self {
            Workload::TweetStream => 15_000,
            _ => 12_000,
        }
    }

    /// Input sets whose prefixes the modeled ladder re-feeds: the first
    /// of the run's sets; half of them on the batch jobs, whose prefix
    /// runs are the longest (`dh_batch`) or whose latencies vary least
    /// between sets (`ch_batch`).
    pub fn ladder_sets(self) -> usize {
        match self {
            Workload::DhBatch | Workload::ChBatch => 8,
            Workload::TweetStream | Workload::ServeOpen => 16,
        }
    }

    /// p99 limit of the modeled ladder's `max_rate_rps`, modeled ms: a
    /// fixed multiple of the workload's light-load p99, so that the limit
    /// is crossed at its knee.
    pub fn p99_limit_ms(self) -> f64 {
        match self {
            Workload::DhBatch => LIMIT_DH,
            Workload::ChBatch => LIMIT_CH,
            Workload::TweetStream => LIMIT_TWEET,
            Workload::ServeOpen => crate::run::P99_LIMIT_MS,
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One simulator job's generated inputs plus the knobs to launch it.
#[derive(Clone)]
pub struct SimInputs {
    /// Cluster topology and hardware.
    pub cluster: ClusterSpec,
    /// Optimizer configuration.
    pub optimizer: OptimizerConfig,
    /// Batch or stream feed.
    pub feed: FeedMode,
    /// Initial per-UDF CPU guess, seconds.
    pub udf_cpu_hint: f64,
    /// Digest UDF output size, bytes.
    pub udf_out_bytes: usize,
    /// Timeout/retry machinery (the serve shape arms it).
    pub retry: Option<RetryConfig>,
    /// Overload protection (the serve shape arms it).
    pub overload: Option<OverloadConfig>,
    /// Membership plane (the serve shape arms it, inert).
    pub membership: Option<MembershipConfig>,
    /// How the stored table is split into regions.
    pub partitioning: Partitioning,
    /// The stored table.
    pub rows: Vec<(RowKey, StoredValue)>,
    /// The join input.
    pub tuples: Vec<JobTuple>,
    /// Mid-stream row updates: `(index of the tuple they ride with, key,
    /// new value)`. They are posted at that tuple's arrival time.
    pub updates: Vec<(usize, RowKey, StoredValue)>,
    /// Root seed of the job.
    pub seed: u64,
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn row(&mut self, k: &RowKey, v: &StoredValue) {
        self.absorb(k.as_bytes());
        self.absorb(&v.data);
        self.absorb(&v.pad.to_le_bytes());
        self.absorb(&v.version.to_le_bytes());
        self.absorb(&v.udf_cpu_nanos.to_le_bytes());
    }
}

/// Mid-run store updates in the engine's posting form.
pub type Updates = Vec<(SimTime, jl_store::TableId, RowKey, StoredValue)>;

impl SimInputs {
    /// The job over these inputs. `policy` and `telemetry` are the only
    /// things a measured run varies.
    pub fn job(
        &self,
        policy: Option<PolicyFactory>,
        telemetry: Option<TelemetryConfig>,
    ) -> JobSpec {
        JobSpec {
            cluster: self.cluster.clone(),
            optimizer: self.optimizer.clone(),
            feed: self.feed,
            plan: JobPlan::single(0, UDF),
            seed: self.seed,
            udf_cpu_hint: self.udf_cpu_hint,
            policy,
            decision_sink: None,
            faults: None,
            retry: self.retry,
            telemetry,
            overload: self.overload,
            shed_policy: None,
            membership: self.membership.clone(),
            autoscale_policy: None,
        }
    }

    /// Load the stored table into a fresh store.
    pub fn store(&self) -> StoreCluster {
        let mut store = StoreCluster::new(self.cluster.n_data);
        let table = store.add_table(
            "t",
            RegionMap::round_robin(self.partitioning.clone(), self.cluster.n_data),
        );
        store.bulk_load(table, self.rows.clone());
        store
    }

    /// The UDF registry, with `wrap` applied to the digest function.
    pub fn udfs(&self, wrap: impl FnOnce(Arc<dyn Udf>) -> Arc<dyn Udf>) -> UdfRegistry {
        let mut u = UdfRegistry::new();
        u.register(
            UDF,
            wrap(Arc::new(DigestUdf {
                out_bytes: self.udf_out_bytes,
            })),
        );
        u
    }

    /// Updates stamped with their carrier tuple's arrival time.
    pub fn timed_updates(&self) -> Updates {
        self.updates
            .iter()
            .map(|(i, k, v)| (self.tuples[*i].arrival, 0, k.clone(), v.clone()))
            .collect()
    }

    /// The first `n` tuples (and their updates) re-fed as an open-loop
    /// stream at `rate` tuples per modeled second.
    pub fn at_rate(&self, rate: u64, n: usize) -> SimInputs {
        let n = n.min(self.tuples.len());
        let gap = SimDuration::from_secs_f64(1.0 / rate as f64);
        let mut tuples = self.tuples[..n].to_vec();
        let mut at = SimTime::ZERO;
        for t in &mut tuples {
            at += gap;
            t.arrival = at;
        }
        let per_node = n / self.cluster.n_compute.max(1);
        SimInputs {
            feed: FeedMode::Stream {
                horizon: SimDuration::from_secs(86_400),
                window: self.feed_window().min(per_node.max(1)),
            },
            tuples,
            updates: self.updates.iter().filter(|u| u.0 < n).cloned().collect(),
            ..self.clone()
        }
    }

    /// FNV-1a digest over every generated input — stored rows, tuples
    /// with their arrival times, and updates — in order. Stamped into the
    /// run manifest, so two runs can show they joined the same inputs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for (k, v) in &self.rows {
            h.row(k, v);
        }
        for t in &self.tuples {
            h.absorb(&t.seq.to_le_bytes());
            for k in &t.keys {
                h.absorb(k.as_bytes());
            }
            h.absorb(&t.params_size.to_le_bytes());
            h.absorb(&t.arrival.0.to_le_bytes());
        }
        for (i, k, v) in &self.updates {
            h.absorb(&(*i as u64).to_le_bytes());
            h.row(k, v);
        }
        h.0
    }

    fn feed_window(&self) -> usize {
        match self.feed {
            FeedMode::Batch { window } | FeedMode::Stream { window, .. } => window,
        }
    }
}

/// Generation and store-build times of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Input generation, seconds.
    pub gen_s: f64,
    /// Store build, seconds.
    pub build_s: f64,
}

impl SetupTimes {
    /// Both together: the end-to-end `setup_s`.
    pub fn total(&self) -> f64 {
        self.gen_s + self.build_s
    }
}

/// Generate a workload's simulator inputs and build its store, timing
/// the two apart.
pub fn setup(w: Workload, seed: u64) -> (SimInputs, StoreCluster, SetupTimes) {
    let t0 = Instant::now();
    let inputs = sim_inputs(w, seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let store = inputs.store();
    let build_s = t1.elapsed().as_secs_f64();
    (inputs, store, SetupTimes { gen_s, build_s })
}

/// A workload's simulator inputs. For `serve_open` this is the serve job
/// shape, hosted on the simulator, over requests arriving at 16k/s: below
/// the knee of its 39.7k/s modeled capacity, where its tail latency is
/// steady.
pub fn sim_inputs(w: Workload, seed: u64) -> SimInputs {
    match w {
        Workload::DhBatch => synthetic(SyntheticSpec::dh(), seed),
        Workload::ChBatch => synthetic(SyntheticSpec::ch(), seed),
        Workload::TweetStream => tweet_stream(seed),
        Workload::ServeOpen => serve_sim(seed),
    }
}

/// The §9.3 cluster: 10 + 10 nodes, region-server block cache off.
fn synthetic_cluster() -> ClusterSpec {
    ClusterSpec {
        block_cache_bytes: 0,
        ..ClusterSpec::default()
    }
}

fn optimizer(mem_cache: u64) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::for_strategy(Strategy::Full);
    cfg.mem_cache_bytes = mem_cache;
    cfg.batch_size = 64;
    cfg.batch_max_wait = SimDuration::from_millis(5);
    cfg
}

/// Prefetch window per compute node: a few percent of its input.
fn window(input_per_node: usize) -> usize {
    (input_per_node / 50).clamp(128, 4096)
}

/// A §9.3 synthetic batch job over `spec`, Zipf z = 1.0.
pub fn synthetic(spec: SyntheticSpec, seed: u64) -> SimInputs {
    let cluster = synthetic_cluster();
    let mut rng = stream_rng(seed, "tuples");
    let tuples: Vec<JobTuple> = spec
        .tuples(1.0, 1, &mut rng, seed)
        .into_iter()
        .map(|t| JobTuple {
            seq: t.seq,
            keys: vec![RowKey::from_u64(t.key)],
            params_size: t.params_size,
            arrival: SimTime::ZERO,
        })
        .collect();
    SimInputs {
        feed: FeedMode::Batch {
            window: window(tuples.len() / cluster.n_compute),
        },
        optimizer: optimizer(32 << 20),
        udf_cpu_hint: spec.udf_cpu.as_secs_f64(),
        udf_out_bytes: spec.output_size as usize,
        retry: None,
        overload: None,
        membership: None,
        partitioning: hash_partitioning(&cluster),
        rows: spec.rows(1).collect(),
        tuples,
        updates: Vec::new(),
        seed,
        cluster,
    }
}

fn tweet_stream(seed: u64) -> SimInputs {
    let cluster = ClusterSpec::default();
    let mut stream = TweetStream::scaled_default(seed);
    stream.rate_per_sec = 50_000.0; // saturating offered load, as in Fig. 6
    stream.count = TWEETS;
    let models = AnnotationWorkload::scaled_default(MODEL_CORPUS_SEED);
    let rows: Vec<(RowKey, StoredValue)> = models.model_rows().collect();

    let mut rng = stream_rng(seed, "model-updates");
    let mut versions = vec![1u64; rows.len()];
    let mut tuples = Vec::new();
    let mut updates = Vec::new();
    for (at, doc) in stream.generate() {
        for spot in doc.spots {
            let i = tuples.len();
            tuples.push(JobTuple {
                seq: i as u64,
                keys: vec![RowKey::from_u64(spot.token)],
                params_size: spot.context_size,
                arrival: at,
            });
            // Retrain the model of a token that is trending right now:
            // new version, same verification prefix, so the reference
            // join output is unchanged.
            if rng.gen_bool(UPDATE_SHARE) {
                let t = spot.token as usize;
                versions[t] += 1;
                let mut v = rows[t].1.clone();
                v.version = versions[t];
                updates.push((i, rows[t].0.clone(), v));
            }
        }
    }
    SimInputs {
        optimizer: optimizer(100 << 20),
        feed: FeedMode::Stream {
            horizon: SimDuration::from_secs(100_000),
            window: window(256 * 50),
        },
        udf_cpu_hint: 0.002,
        udf_out_bytes: 96,
        retry: None,
        overload: None,
        membership: None,
        // Giant head models spread one region per key, as HBase's
        // splitter would place them.
        partitioning: Partitioning::head_spread(
            (cluster.n_data as u64) * 16,
            cluster.n_data * cluster.regions_per_node,
            models.vocab as u64,
        ),
        rows,
        tuples,
        updates,
        seed,
        cluster,
    }
}

/// The cluster `jl_bench::serve` builds for `cfg`.
fn serve_cluster(cfg: &ServeConfig) -> ClusterSpec {
    ClusterSpec {
        n_compute: cfg.n_compute,
        n_data: cfg.n_data,
        block_cache_bytes: 0,
        ..ClusterSpec::default()
    }
}

/// The table `jl_bench::serve` stores for `cfg`.
fn serve_rows(cfg: &ServeConfig) -> Vec<(RowKey, StoredValue)> {
    SyntheticSpec {
        name: "serve",
        n_keys: cfg.rows,
        value_size: cfg.value_size,
        value_prefix: 64,
        udf_cpu: SimDuration::from_micros(cfg.udf_cpu_us),
        n_tuples: 0,
        params_size: 128,
        output_size: 256,
    }
    .rows(1)
    .collect()
}

/// The store `jl_bench::serve` builds for `cfg`.
pub fn serve_store(cfg: &ServeConfig) -> StoreCluster {
    let cluster = serve_cluster(cfg);
    let mut store = StoreCluster::new(cluster.n_data);
    let table = store.add_table(
        "serve",
        RegionMap::round_robin(hash_partitioning(&cluster), cluster.n_data),
    );
    store.bulk_load(table, serve_rows(cfg));
    store
}

/// Hash partitioning over every region of `cluster`: the layout
/// `jl_engine::build_store` gives a table.
fn hash_partitioning(cluster: &ClusterSpec) -> Partitioning {
    Partitioning::Hash {
        regions: cluster.n_data * cluster.regions_per_node,
    }
}

/// Zipf 1.0 request keys for ladder step `step` (`n` requests).
pub fn serve_keys(cfg: &ServeConfig, seed: u64, step: usize, n: usize) -> Vec<u64> {
    let zipf = Zipf::new(cfg.rows as usize, 1.0);
    let mut rng = stream_rng(seed ^ step as u64, "serve-keys");
    (0..n).map(|_| zipf.sample(&mut rng) as u64).collect()
}

/// Requests of one serve ladder step, as the front door turns them into
/// tuples (`key % rows`, 128-byte params).
pub fn serve_tuples(cfg: &ServeConfig, keys: &[u64], rate: u64) -> Vec<JobTuple> {
    let gap = SimDuration::from_secs_f64(1.0 / rate as f64);
    let mut at = SimTime::ZERO;
    keys.iter()
        .enumerate()
        .map(|(i, &k)| {
            at += gap;
            JobTuple {
                seq: i as u64,
                keys: vec![RowKey::from_u64(k % cfg.rows.max(1))],
                params_size: 128,
                arrival: at,
            }
        })
        .collect()
}

/// Requests per simulated serve run.
pub const SERVE_SIM_REQUESTS: usize = 32_000;

fn serve_sim(seed: u64) -> SimInputs {
    let cfg = ServeConfig {
        seed,
        ..ServeConfig::default()
    };
    let cluster = serve_cluster(&cfg);
    let job = serve_job(&cfg, &cluster);
    let keys = serve_keys(&cfg, seed, 1, SERVE_SIM_REQUESTS);
    SimInputs {
        optimizer: job.optimizer.clone(),
        feed: job.feed,
        udf_cpu_hint: job.udf_cpu_hint,
        udf_out_bytes: 256,
        retry: job.retry,
        overload: job.overload,
        membership: job.membership.clone(),
        partitioning: hash_partitioning(&cluster),
        rows: serve_rows(&cfg),
        tuples: serve_tuples(&cfg, &keys, LADDER[1]),
        updates: Vec::new(),
        seed,
        cluster,
    }
}
