//! The benchmark's declarations: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics, and the reference sizes. The
//! self-test pins these tables to `BENCHMARK.json`, name for name.

use crate::json::Json;

/// Seconds one run measures for unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`). A run repeats its timed region — a
/// *round* — until this much time has passed; the reference sizes make one
/// round last longer than this on the reference host, so a run is one round
/// there, and becomes two only once the program is that much faster.
pub const RUN_SECONDS: f64 = 5.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where an end-to-end number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall clock or memory of this process: noisy, compared within a bound.
    Host,
    /// A simulated statistic: a pure function of `(seed, sizes)` that must
    /// repeat exactly when both are fixed.
    Sim,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    pub kind: Kind,
}

/// Every workload reports every one of these; what an "op" is differs per
/// workload and is stated in [`WORKLOADS`] and the README.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Host,
    },
    EndToEnd {
        name: "op_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
    },
    EndToEnd {
        name: "op_us_p90",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Host,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        kind: Kind::Host,
    },
    EndToEnd {
        name: "quality_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.08,
        kind: Kind::Sim,
    },
    EndToEnd {
        name: "bytes_per_op",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
        kind: Kind::Sim,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every traced run reports every one of these (the contract wants one list
/// for all workloads). `share.*` split this workload's timed region by layer
/// (self time of the harness's spans); `run.*` and the in-run counts
/// describe the same region; everything else is a stage of this workload's
/// set-up, timed where it ran, or a probe of one layer's public functions on
/// this workload's input (`layers.rs`). A workload produces the metrics of
/// the layers it enters; those of a layer it never enters read 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // Where the timed region went.
    layer("share.sim.engine", "ratio", Lower),
    layer("share.transport.runtime", "ratio", Lower),
    layer("share.core.lazy.plan", "ratio", Lower),
    layer("share.core.lazy.commit", "ratio", Lower),
    layer("share.core.eager.issue", "ratio", Lower),
    layer("share.core.eager.plan", "ratio", Lower),
    layer("share.core.eager.commit", "ratio", Lower),
    layer("share.core.eager.effects", "ratio", Lower),
    layer("share.core.similarity.build", "ratio", Lower),
    layer("share.core.similarity.sweep", "ratio", Lower),
    layer("share.core.resolver.read", "ratio", Lower),
    layer("share.core.resolver.write", "ratio", Lower),
    layer("share.harness", "ratio", Lower),
    layer("run.timed_s", "s", Lower),
    layer("run.trace_overhead_ratio", "ratio", Lower),
    layer("run.cpu_per_wall", "ratio", Lower),
    layer("run.spans", "count", Lower),
    // Work the timed region did, per layer.
    layer("sim.engine.plans_per_cycle", "count", Lower),
    layer("sim.engine.exchanges_per_cycle", "count", Lower),
    layer("sim.engine.batches_per_cycle", "count", Lower),
    layer("sim.exchange.mean_batch_width", "count", Higher),
    layer("core.lazy.digest_bytes_share", "ratio", Lower),
    layer("core.eager.users_reached_per_query", "count", Lower),
    layer("core.eager.query_cycles_p50", "count", Lower),
    layer("core.resolver.cache_hit_ratio", "ratio", Higher),
    layer("core.resolver.patched_per_batch", "count", Higher),
    layer("core.resolver.evicted_per_batch", "count", Lower),
    layer("core.resolver.write_actions_per_s", "1/s", Higher),
    layer("transport.overhead_ratio", "ratio", Lower),
    // Probes of each layer's public functions.
    layer("trace.generate_s", "s", Lower),
    layer("trace.generate_actions_per_s", "1/s", Higher),
    layer("trace.codec.group_decode_entries_per_s", "1/s", Higher),
    layer("trace.codec.encode_entries_per_s", "1/s", Higher),
    layer("trace.dict.ids_ns_per_action", "ns", Lower),
    layer("trace.dict.bytes", "bytes", Lower),
    layer("trace.profile.decoded_bytes", "bytes", Lower),
    layer("trace.profile.packed_bytes", "bytes", Lower),
    layer("bloom.build_us_per_digest", "us", Lower),
    layer("bloom.contains_ns_per_probe", "ns", Lower),
    layer("bloom.false_positive_ratio", "ratio", Lower),
    layer("gossip.shuffle_us_per_exchange", "us", Lower),
    layer("gossip.view_upsert_ns", "ns", Lower),
    layer("topk.nra_us_per_query", "us", Lower),
    layer("topk.nra_positions_per_query", "count", Lower),
    layer("topk.stream_positions_per_resolve", "count", Lower),
    layer("topk.stream_early_termination_ratio", "ratio", Higher),
    layer("sim.engine.cycle_ms_p50", "ms", Lower),
    layer("sim.engine.residual_ms_per_cycle", "ms", Lower),
    layer("sim.exchange.batching_ms_per_cycle", "ms", Lower),
    layer("sim.store.node_bytes", "bytes", Lower),
    layer("sim.parallel.speedup_2t", "ratio", Higher),
    layer("core.lazy.bootstrap_s", "s", Lower),
    layer("core.lazy.plan_ms_per_cycle", "ms", Lower),
    layer("core.lazy.commit_ms_per_cycle", "ms", Lower),
    layer("core.eager.issue_query_us", "us", Lower),
    layer("core.eager.plan_ms_per_cycle", "ms", Lower),
    layer("core.eager.commit_ms_per_cycle", "ms", Lower),
    layer("core.scoring.partial_list_us_per_profile", "us", Lower),
    layer("core.scoring.relevance_us_per_query", "us", Lower),
    layer("core.similarity.index_build_s", "s", Lower),
    layer("core.similarity.accumulate_us_per_user", "us", Lower),
    layer("core.similarity.collect_top_us_per_user", "us", Lower),
    layer("core.similarity.apply_deltas_ms_per_batch", "ms", Lower),
    layer("core.similarity.index_bytes", "bytes", Lower),
    layer("core.resolver.resolve_us_per_miss", "us", Lower),
    layer("core.resolver.invalidate_ms_per_batch", "ms", Lower),
    layer("core.experiment.build_simulator_s", "s", Lower),
    layer("core.experiment.init_ideal_s", "s", Lower),
    layer("transport.from_simulator_s", "s", Lower),
    layer("transport.mailbox_hop_us", "us", Lower),
];

/// The input sizes of every workload. `reference()` is what
/// `BENCHMARK.json` measures; the self-tests shrink them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Population of the three gossip workloads.
    pub gossip_users: usize,
    /// Lazy cycles one `lazy_converge` round drives.
    pub lazy_cycles: u64,
    /// Lazy warm-up cycles before a query burst is issued.
    pub warmup_cycles: u64,
    /// Queries one burst issues at once (one per sampled user).
    pub burst_queries: usize,
    /// Cycle cap of a burst's run-until-complete drive.
    pub burst_max_cycles: u64,
    /// Population of `similarity_sweep`.
    pub sweep_users: usize,
    /// Population of `similarity_serve`.
    pub serve_users: usize,
    /// Read/write rounds in one serve pass.
    pub serve_rounds: usize,
    /// Point reads per serve round.
    pub serve_reads_per_round: usize,
    /// Lazy cycles the per-layer engine probes drive.
    pub probe_cycles: u64,
}

impl Sizes {
    pub const fn reference() -> Self {
        Self {
            gossip_users: 10_000,
            lazy_cycles: 24,
            warmup_cycles: 2,
            burst_queries: 2_500,
            burst_max_cycles: 60,
            sweep_users: 50_000,
            serve_users: 50_000,
            serve_rounds: 7,
            serve_reads_per_round: 400,
            probe_cycles: 4,
        }
    }

    /// Sizes at which every workload finishes in seconds, unoptimised.
    #[cfg(test)]
    pub const fn tiny() -> Self {
        Self {
            gossip_users: 250,
            lazy_cycles: 10,
            warmup_cycles: 1,
            burst_queries: 20,
            burst_max_cycles: 60,
            sweep_users: 400,
            serve_users: 400,
            serve_rounds: 3,
            serve_reads_per_round: 60,
            probe_cycles: 3,
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("gossip_users", Json::from(self.gossip_users)),
            ("lazy_cycles", Json::from(self.lazy_cycles)),
            ("warmup_cycles", Json::from(self.warmup_cycles)),
            ("burst_queries", Json::from(self.burst_queries)),
            ("burst_max_cycles", Json::from(self.burst_max_cycles)),
            ("sweep_users", Json::from(self.sweep_users)),
            ("serve_users", Json::from(self.serve_users)),
            ("serve_rounds", Json::from(self.serve_rounds)),
            (
                "serve_reads_per_round",
                Json::from(self.serve_reads_per_round),
            ),
            ("probe_cycles", Json::from(self.probe_cycles)),
        ])
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: which layers the workload loads and which it bypasses.
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "lazy_converge",
        why: "Fig. 2: lazy cycles from empty personal networks load core::lazy, bloom, gossip and the sim engine; similarity, top-k and transport do none of the timed work. op = one lazy cycle.",
    },
    WorkloadSpec {
        name: "eager_burst",
        why: "Fig. 3/6: a query burst on converged networks loads core::eager, scoring, topk NRA and the sim engine; lazy discovery and the similarity index are only set-up. op = one query.",
    },
    WorkloadSpec {
        name: "transport_burst",
        why: "The eager_burst input byte for byte on 2 shard actors: same protocol work, mailbox substrate. An engine-only gain leaves the gap; a runtime gain must not move eager_burst. op = one query.",
    },
    WorkloadSpec {
        name: "similarity_sweep",
        why: "Bulk read of core::similarity and trace::codec (index build, group-varint decode, counting sweep, top-s collect) with no gossip at all. op = one user's network.",
    },
    WorkloadSpec {
        name: "similarity_serve",
        why: "The same index as point reads (streaming top-k, memo cache) beside write batches that recompress shards and patch or evict the cache. op = one read; the rate counts the writes' seconds too.",
    },
];
