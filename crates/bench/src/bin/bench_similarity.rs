//! Similarity-engine benchmark: ideal-network build time (counting index vs
//! per-pair-merge reference, single-threaded and parallel), the dynamics
//! scenario (apply K profile-change batches: incremental delta-apply +
//! dirty re-score vs full rebuild), plus lazy-cycle throughput, at several
//! population scales.
//!
//! Emits `BENCH_similarity.json` in the working directory (git-ignored; the
//! recording the gate keeps is `ci/baselines/BENCH_similarity_smoke.json`).
//! Options: [`USAGE`].
//!
//! Every scale reports the resident bytes of the compressed columnar index
//! (`bytes_index*`) next to the uncompressed CSR layout the first index
//! generation used, and of the decoded vs packed profile columns; the
//! `index_memory` block repeats the accounting at the `--memory-users`
//! scale (the 100k-user paper-delicious scenario by default), where memory
//! — not CPU — is the binding constraint. `bench_check` gates all `bytes_*`
//! keys exact-or-below-baseline.
//!
//! Each scale carries a **decode microbench** (`decode` block): every
//! posting run of the trace is encoded both as a plain LEB128 delta run
//! and in the group-varint posting-run format the index stores,
//! then decoded back to back with matching checksums — the raw sweep cost
//! split from the full `accumulate` (id resolution + decode + counters)
//! cost. The `index_memory` probe repeats the decode columns at the
//! `--memory-users` scale, which is the acceptance measurement for the
//! group-varint kernels.
//!
//! Each scale also benches the **demand-driven** path (`on_demand` block):
//! under the `query-hotspot` querier schedule, per dynamics batch, exact
//! cache invalidation + lazy resolution of the queried users
//! (`OnDemandNetworks`) is timed against a global `IdealNetworks` recompute
//! over the patched index, with results asserted byte-equal on every
//! queried user. The `query_hotspot` block repeats the measurement at the
//! `--hotspot-users` scale (100k by default), where the query-proportional
//! cost model is the point.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use p3q::baseline::IdealNetworks;
use p3q::config::P3qConfig;
use p3q::experiment::build_simulator;
use p3q::lazy::bootstrap_random_views;
use p3q::resolver::OnDemandNetworks;
use p3q::similarity::{ActionIndex, SimilarityScratch};
use p3q::storage::StorageDistribution;
use p3q_bench::flags::{exit_with_usage, Flags};
use p3q_bench::json::Json;
use p3q_sim::default_threads;
use p3q_sim::RunOptions;
use p3q_trace::codec::{
    encode_sorted_u32s_grouped, for_each_sorted_u32_grouped_padded, read_varint, write_varint,
    GROUP_DECODE_SLACK,
};
use p3q_trace::{
    action_key, DynamicsConfig, DynamicsGenerator, Scenario, ScenarioConfig, SyntheticTrace,
    TraceGenerator, UserId,
};

const USAGE: &str = "\
cargo run --release -p p3q-bench --bin bench_similarity [-- OPTIONS]
    --users a,b,c   population scales        (default 1000,5000,20000)
    --cycles N      lazy cycles to time      (default 3)
    --delta-batches N  dynamics batches      (default 3)
    --seed N        master seed              (default 42)
    --scenario NAME workload preset          (default paper-delicious)
    --skip-reference  skip the slow per-pair-merge baseline
    --memory-users N  index-memory probe scale (default 100000; 0 = off)
    --hotspot-users N  query-hotspot probe scale (default 100000; 0 = off)
    --out PATH      output path              (default BENCH_similarity.json)";

struct Args {
    users: Vec<usize>,
    cycles: u64,
    delta_batches: usize,
    seed: u64,
    scenario: Scenario,
    skip_reference: bool,
    memory_users: usize,
    hotspot_users: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = Flags::from_env();
    let args = Args {
        users: flags.list("--users", &[1_000, 5_000, 20_000])?,
        cycles: flags.value("--cycles", 3)?,
        delta_batches: flags.value("--delta-batches", 3)?,
        seed: flags.value("--seed", 42)?,
        scenario: flags.scenario()?,
        skip_reference: flags.switch("--skip-reference"),
        memory_users: flags.value("--memory-users", 100_000)?,
        hotspot_users: flags.value("--hotspot-users", 100_000)?,
        out: flags.value("--out", "BENCH_similarity.json".to_string())?,
    };
    flags.finish()?;
    Ok(args)
}

/// A millisecond column: three decimals.
fn ms(value: f64) -> Json {
    Json::fixed(value, 3)
}

/// Resident-byte columns of one scale: the compressed index next to its
/// uncompressed CSR equivalent, and the decoded vs packed profile store.
struct MemoryResult {
    users: usize,
    total_actions: usize,
    distinct_actions: usize,
    bytes_index: usize,
    bytes_index_dictionary: usize,
    bytes_index_postings: usize,
    bytes_index_directory: usize,
    bytes_index_csr_equivalent: usize,
    bytes_profiles_decoded: usize,
    bytes_profiles_packed: usize,
}

impl MemoryResult {
    fn measure(dataset: &p3q_trace::Dataset, index: &ActionIndex) -> Self {
        let memory = index.memory();
        Self {
            users: dataset.num_users(),
            total_actions: dataset.total_actions(),
            distinct_actions: memory.distinct_actions,
            bytes_index: memory.total_bytes,
            bytes_index_dictionary: memory.dictionary_bytes,
            bytes_index_postings: memory.postings_bytes,
            bytes_index_directory: memory.directory_bytes,
            bytes_index_csr_equivalent: memory.csr_equivalent_bytes,
            bytes_profiles_decoded: dataset.profile_heap_bytes(),
            bytes_profiles_packed: dataset.packed_profile_bytes(),
        }
    }

    fn reduction_percent(&self) -> f64 {
        if self.bytes_index_csr_equivalent == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.bytes_index as f64 / self.bytes_index_csr_equivalent as f64)
    }

    /// Appends the byte columns to `doc`.
    fn add_to(&self, doc: Json) -> Json {
        doc.with("bytes_index", self.bytes_index)
            .with("bytes_index_dictionary", self.bytes_index_dictionary)
            .with("bytes_index_postings", self.bytes_index_postings)
            .with("bytes_index_directory", self.bytes_index_directory)
            .with(
                "bytes_index_csr_equivalent",
                self.bytes_index_csr_equivalent,
            )
            .with("bytes_profiles_decoded", self.bytes_profiles_decoded)
            .with("bytes_profiles_packed", self.bytes_profiles_packed)
    }
}

/// The decode microbench: every posting run of the scale's trace encoded
/// both ways — as a plain LEB128 delta run, encoded here, and in the
/// group-varint posting-run format the index stores — then decoded back to
/// back over the same runs, with matching rolling checksums proving the two
/// streams agree.
/// `accumulate_sample_ms` re-times the *full* counting sweep (id
/// resolution, decode, per-user counters) over a user sample, so the
/// raw-decode and end-to-end accumulate costs are split into separate
/// gated columns.
struct DecodeResult {
    posting_runs: usize,
    posting_entries: usize,
    decode_passes: usize,
    checksum: u64,
    leb_ms: f64,
    group_ms: f64,
    accumulate_users: usize,
    accumulate_ms: f64,
    accumulate_checksum: u64,
}

impl DecodeResult {
    fn measure(dataset: &p3q_trace::Dataset, index: &ActionIndex, network_size: usize) -> Self {
        // Rebuild the per-action posting runs straight from the profiles
        // (sorted `(action, user)` pairs, grouped by action) so the bench
        // owns its byte streams and can encode each run under both codecs.
        let mut pairs: Vec<(u64, u32)> = Vec::new();
        for (user, profile) in dataset.iter() {
            for action in profile.iter() {
                pairs.push((action_key(action), user.0));
            }
        }
        pairs.sort_unstable();

        let mut leb_blob = Vec::new();
        let mut grp_blob = Vec::new();
        let mut leb_ends = Vec::new();
        let mut grp_ends = Vec::new();
        let mut run: Vec<u32> = Vec::new();
        let mut i = 0usize;
        while i < pairs.len() {
            let key = pairs[i].0;
            run.clear();
            while i < pairs.len() && pairs[i].0 == key {
                run.push(pairs[i].1);
                i += 1;
            }
            // The LEB128 side: first value, then every delta, one varint each.
            let mut prev = 0;
            for &user in &run {
                write_varint(u64::from(user - prev), &mut leb_blob);
                prev = user;
            }
            leb_ends.push(leb_blob.len());
            encode_sorted_u32s_grouped(&run, &mut grp_blob);
            grp_ends.push(grp_blob.len());
        }
        // The same decode slack posting blobs carry, so the fused kernel's
        // bounds-check-free path covers trailing groups here too.
        grp_blob.resize(grp_blob.len() + GROUP_DECODE_SLACK, 0);
        let posting_entries = pairs.len();
        // Enough repetitions that the timed region dominates timer noise at
        // the small scales, but deliberately FEW passes at the large ones:
        // repeated hot passes over an identical multi-MB stream let the
        // branch predictor memorize LEB128's continuation-bit pattern,
        // erasing precisely the per-byte misprediction cost the group
        // format removes — production sweeps decode each run once per
        // query in ever-changing order, so the streaming (once-through)
        // regime is the honest model. Deterministic in the trace, so the
        // per-pass decode counts (and the checksums) gate exactly.
        let decode_passes = (8_000_000 / posting_entries.max(1)).clamp(1, 32);

        let start = Instant::now();
        let mut leb_sum = 0u64;
        for _ in 0..decode_passes {
            let mut begin = 0usize;
            for &end in &leb_ends {
                let bytes = &leb_blob[begin..end];
                let mut pos = 0usize;
                let mut user = read_varint(bytes, &mut pos) as u32;
                leb_sum = leb_sum.wrapping_add(u64::from(user));
                while pos < bytes.len() {
                    user += read_varint(bytes, &mut pos) as u32;
                    leb_sum = leb_sum.wrapping_add(u64::from(user));
                }
                begin = end;
            }
        }
        let leb_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let mut grp_sum = 0u64;
        for _ in 0..decode_passes {
            let mut begin = 0usize;
            for &end in &grp_ends {
                // The same fused kernel the production counting sweep runs.
                for_each_sorted_u32_grouped_padded(&grp_blob[begin..], end - begin, |user| {
                    grp_sum = grp_sum.wrapping_add(u64::from(user));
                });
                begin = end;
            }
        }
        let group_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            leb_sum, grp_sum,
            "the two codecs decoded different posting streams"
        );

        // The accumulate side of the split: the full counting sweep over a
        // deterministic user sample, through the production entry point.
        let step = (dataset.num_users() / 512).max(1);
        let sample: Vec<UserId> = dataset.users().step_by(step).collect();
        let mut scratch = SimilarityScratch::new(dataset.num_users());
        let start = Instant::now();
        for &user in &sample {
            index.accumulate(dataset.profile(user), user, &mut scratch);
        }
        let accumulate_ms = start.elapsed().as_secs_f64() * 1e3;
        // Rank the final sweep so the loop stays observable and the sample's
        // last scoring round is pinned byte-exactly in the baseline.
        let top = index.collect_top(network_size, &mut scratch);
        let accumulate_checksum = checksum_ranking(&top);

        eprintln!(
            "   decode: group-varint {:.1} ms vs LEB128 {:.1} ms ({:.2}x) over {} entries x {} passes",
            group_ms,
            leb_ms,
            leb_ms / group_ms.max(f64::MIN_POSITIVE),
            posting_entries,
            decode_passes
        );
        Self {
            posting_runs: leb_ends.len(),
            posting_entries,
            decode_passes,
            checksum: leb_sum,
            leb_ms,
            group_ms,
            accumulate_users: sample.len(),
            accumulate_ms,
            accumulate_checksum,
        }
    }

    fn entries_per_sec(&self, ms: f64) -> f64 {
        (self.posting_entries * self.decode_passes) as f64 / (ms / 1e3).max(f64::MIN_POSITIVE)
    }

    fn json(&self) -> Json {
        let speedup = self.leb_ms / self.group_ms.max(f64::MIN_POSITIVE);
        Json::object()
            .with("posting_runs", self.posting_runs)
            .with("posting_entries", self.posting_entries)
            .with("decode_passes", self.decode_passes)
            .with("decode_checksum", Json::checksum(self.checksum))
            .with("decode_leb128_ms", ms(self.leb_ms))
            .with("decode_group_ms", ms(self.group_ms))
            .with(
                "decode_leb128_entries_per_sec",
                Json::fixed(self.entries_per_sec(self.leb_ms), 0),
            )
            .with(
                "decode_group_entries_per_sec",
                Json::fixed(self.entries_per_sec(self.group_ms), 0),
            )
            .with("decode_group_speedup", Json::fixed(speedup, 2))
            .with("accumulate_sample_users", self.accumulate_users)
            .with("accumulate_sample_ms", ms(self.accumulate_ms))
            .with(
                "accumulate_checksum",
                Json::checksum(self.accumulate_checksum),
            )
    }
}

/// FNV-style fold of a ranking into one gateable word.
fn checksum_ranking(ranking: &[(UserId, u64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(user, score) in ranking {
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= u64::from(user.0);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= score;
    }
    h
}

/// The dynamics scenario: apply `batches` paper-day change batches and, for
/// each, time the incremental path (patch the sharded index, then a fully
/// cached [`OnDemandNetworks`] patches or evicts the dirty users and
/// `into_ideal` re-sweeps the evicted ones) against a full rebuild (fresh
/// index + full population sweep), verifying after every batch that both
/// produce identical networks. Both sides run single-threaded so the ratio
/// is an algorithmic speedup, not a parallelism artefact. Returns the
/// `dynamics` block: `apply_deltas_ms` is the index write alone (the part
/// of `incremental_update_ms` spent in `ActionIndex::apply_deltas`), and
/// `index_bytes_after_batches` the exact resident size of the patched index
/// — a write path that changes what the index holds moves it.
fn bench_dynamics(trace: &SyntheticTrace, s: usize, args: &Args) -> Option<Json> {
    if args.delta_batches == 0 {
        return None;
    }
    let mut dataset = trace.dataset.clone();
    let mut index = ActionIndex::build(&dataset);
    let mut ideal = IdealNetworks::compute_with_threads(&dataset, s, 1);

    let mut changed_users = 0usize;
    let mut new_actions = 0usize;
    let mut dirty_users = 0usize;
    let mut apply_deltas_ms = 0.0f64;
    let mut incremental_ms = 0.0f64;
    let mut rebuild_ms = 0.0f64;
    for k in 0..args.delta_batches {
        let day_seed = args.seed ^ 0xDA7 ^ ((k as u64) << 17);
        let batch = DynamicsGenerator::new(DynamicsConfig::paper_day(day_seed)).generate(trace);
        changed_users += batch.len();
        new_actions += batch.apply(&mut dataset);

        // A fully cached resolver's `apply_change_batch_with_threads`,
        // spelled out so the index write is also timed apart from the
        // network update it is summed with.
        let start = Instant::now();
        let outcome = index.apply_deltas(
            batch
                .changes
                .iter()
                .map(|c| (c.user, c.new_actions.as_slice())),
        );
        apply_deltas_ms += start.elapsed().as_secs_f64() * 1e3;
        let mut resolver = OnDemandNetworks::from(ideal);
        resolver.apply_delta_outcome(&dataset, &outcome, 1);
        ideal = resolver.into_ideal(&dataset, &index, 1);
        let dirty = outcome.dirty_users();
        incremental_ms += start.elapsed().as_secs_f64() * 1e3;
        dirty_users += dirty.len();

        let start = Instant::now();
        let full = IdealNetworks::compute_with_threads(&dataset, s, 1);
        rebuild_ms += start.elapsed().as_secs_f64() * 1e3;

        for user in dataset.users() {
            assert_eq!(
                ideal.network_of(user),
                full.network_of(user),
                "incremental path diverged from full rebuild at batch {k} for {user}"
            );
        }
    }
    let n = args.delta_batches as f64;
    let mean_dirty_users = dirty_users as f64 / n;
    let speedup = rebuild_ms / incremental_ms.max(f64::MIN_POSITIVE);
    eprintln!(
        "   dynamics ({} batches): incremental {:.1} ms vs rebuild {:.0} ms ({speedup:.1}x), \
         {mean_dirty_users:.0} dirty users/batch",
        args.delta_batches,
        incremental_ms / n,
        rebuild_ms / n,
    );
    Some(
        Json::object()
            .with("batches", args.delta_batches)
            .with(
                "mean_changed_users",
                Json::fixed(changed_users as f64 / n, 1),
            )
            .with("mean_new_actions", Json::fixed(new_actions as f64 / n, 1))
            .with("mean_dirty_users", Json::fixed(mean_dirty_users, 1))
            .with("apply_deltas_ms", ms(apply_deltas_ms / n))
            .with("incremental_update_ms", ms(incremental_ms / n))
            .with("full_rebuild_ms", ms(rebuild_ms / n))
            .with("speedup_incremental_vs_rebuild", Json::fixed(speedup, 2))
            .with("index_bytes_after_batches", index.memory().total_bytes),
    )
}

/// The demand-driven columns: per dynamics batch, time exact cache
/// invalidation plus lazy resolution of that cycle's queriers
/// ([`OnDemandNetworks`]) against a global [`IdealNetworks`] recompute over
/// the same patched index, asserting both agree on every queried user. The
/// querier schedule is always the `query-hotspot` preset (Zipf-skewed,
/// <1% of users per cycle) regardless of `--scenario` — the hotspot axis is
/// what the demand-driven resolver exists for. The index patch itself
/// (`apply_deltas`) is shared infrastructure both paths need, so it runs
/// untimed and the ratio compares pure resolution strategies.
struct OnDemandResult {
    users: usize,
    batches: usize,
    mean_queriers_per_cycle: f64,
    resolutions: usize,
    cache_hits: usize,
    positions_scanned: usize,
    early_terminations: usize,
    patched: usize,
    evicted: usize,
    threads: usize,
    on_demand_ms_mean: f64,
    global_ms_mean: f64,
    speedup: f64,
}

impl OnDemandResult {
    /// Appends the resolver columns to `doc`.
    fn add_to(&self, doc: Json) -> Json {
        doc.with("batches", self.batches)
            .with(
                "mean_queriers_per_cycle",
                Json::fixed(self.mean_queriers_per_cycle, 1),
            )
            .with("resolutions", self.resolutions)
            .with("cache_hits", self.cache_hits)
            .with("positions_scanned", self.positions_scanned)
            .with("early_terminations", self.early_terminations)
            .with("patched", self.patched)
            .with("evicted", self.evicted)
            .with("parallel_threads", self.threads)
            .with("on_demand_update_ms", ms(self.on_demand_ms_mean))
            .with("global_recompute_ms", ms(self.global_ms_mean))
            .with("speedup_on_demand_vs_global", Json::fixed(self.speedup, 2))
    }
}

fn bench_on_demand(
    trace: &SyntheticTrace,
    s: usize,
    args: &Args,
    threads: usize,
) -> Option<OnDemandResult> {
    if args.delta_batches == 0 {
        return None;
    }
    let users = trace.dataset.num_users();
    // One warm-up cycle (so the dynamics batches hit memoized entries:
    // patch and evict both exercised) plus one querier set per batch.
    let schedule = ScenarioConfig::new(Scenario::QueryHotspot, users, args.seed)
        .with_horizon(args.delta_batches as u64 + 1)
        .querier_schedule();

    let mut dataset = trace.dataset.clone();
    let mut index = ActionIndex::build(&dataset);
    let mut resolver = OnDemandNetworks::new(users, s);
    resolver.resolve_many(&dataset, &index, &schedule[0], threads);

    let mut queried = schedule[0].len();
    let mut on_demand_ms = 0.0f64;
    let mut global_ms = 0.0f64;
    for k in 0..args.delta_batches {
        let day_seed = args.seed ^ 0xDA7 ^ ((k as u64) << 17);
        let batch = DynamicsGenerator::new(DynamicsConfig::paper_day(day_seed)).generate(trace);
        batch.apply(&mut dataset);
        let outcome = index.apply_deltas(
            batch
                .changes
                .iter()
                .map(|c| (c.user, c.new_actions.as_slice())),
        );
        let queriers = &schedule[k + 1];
        queried += queriers.len();

        let start = Instant::now();
        resolver.apply_delta_outcome(&dataset, &outcome, threads);
        resolver.resolve_many(&dataset, &index, queriers, threads);
        on_demand_ms += start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let oracle = IdealNetworks::compute_with_index_threads(&dataset, s, &index, threads);
        global_ms += start.elapsed().as_secs_f64() * 1e3;

        for &user in queriers {
            assert_eq!(
                resolver.cached(user).expect("queried user must be cached"),
                oracle.network_of(user),
                "on-demand resolution diverged from the global oracle at batch {k} for {user}"
            );
        }
    }
    let stats = resolver.stats();
    assert!(
        stats.patched + stats.evicted > 0,
        "dynamics never touched the cache: invalidation was not exercised"
    );
    let n = args.delta_batches as f64;
    let result = OnDemandResult {
        users,
        batches: args.delta_batches,
        mean_queriers_per_cycle: queried as f64 / (n + 1.0),
        resolutions: stats.resolutions,
        cache_hits: stats.cache_hits,
        positions_scanned: stats.positions_scanned,
        early_terminations: stats.early_terminations,
        patched: stats.patched,
        evicted: stats.evicted,
        threads,
        on_demand_ms_mean: on_demand_ms / n,
        global_ms_mean: global_ms / n,
        speedup: global_ms / on_demand_ms.max(f64::MIN_POSITIVE),
    };
    eprintln!(
        "   on-demand ({} batches, {:.0} queriers/cycle): {:.1} ms vs global {:.0} ms \
         ({:.1}x), {} patched / {} evicted",
        result.batches,
        result.mean_queriers_per_cycle,
        result.on_demand_ms_mean,
        result.global_ms_mean,
        result.speedup,
        result.patched,
        result.evicted
    );
    Some(result)
}

/// Measures one scale; returns its element of `scales`.
fn bench_scale(users: usize, args: &Args) -> Json {
    eprintln!("== {users} users ==");
    let generation = Instant::now();
    // The scenario layer's density-preserving shape: items-per-user density
    // (and therefore the overlap structure) stays constant across scales.
    // Only the trace is generated — this benchmark rolls its own dynamics
    // batches below, so materializing the scenario schedule would be waste.
    let scenario = ScenarioConfig::new(args.scenario, users, args.seed);
    let trace = TraceGenerator::new(scenario.trace_config()).generate();
    let dataset = &trace.dataset;
    eprintln!(
        "   trace: {} actions in {:.1?}",
        dataset.total_actions(),
        generation.elapsed()
    );
    let cfg = P3qConfig::laptop_scale();
    let s = cfg.personal_network_size;

    let start = Instant::now();
    let index = ActionIndex::build(dataset);
    let index_build_ms = start.elapsed().as_secs_f64() * 1e3;
    let distinct_actions = index.distinct_actions();
    let index_shards = index.num_shards();
    let memory = MemoryResult::measure(dataset, &index);
    eprintln!(
        "   index memory: {:.1} MiB compressed vs {:.1} MiB CSR ({:.0}% less)",
        memory.bytes_index as f64 / (1 << 20) as f64,
        memory.bytes_index_csr_equivalent as f64 / (1 << 20) as f64,
        memory.reduction_percent()
    );
    let decode = DecodeResult::measure(dataset, &index, s);

    let start = Instant::now();
    let single = IdealNetworks::compute_with_threads(dataset, s, 1);
    let counting_single_ms = start.elapsed().as_secs_f64() * 1e3;
    eprintln!("   counting engine (1 thread): {counting_single_ms:.0} ms");

    let parallel_threads = default_threads();
    let start = Instant::now();
    let parallel = IdealNetworks::compute_with_threads(dataset, s, parallel_threads);
    let counting_parallel_ms = start.elapsed().as_secs_f64() * 1e3;
    eprintln!("   counting engine ({parallel_threads} threads): {counting_parallel_ms:.0} ms");

    let reference_ms = if args.skip_reference {
        None
    } else {
        let start = Instant::now();
        let reference = IdealNetworks::compute_reference(dataset, s);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "   per-pair-merge reference:   {ms:.0} ms ({:.1}x slower than counting)",
            ms / counting_single_ms
        );
        for user in dataset.users().take(50) {
            assert_eq!(
                single.network_of(user),
                reference.network_of(user),
                "engines disagree for {user}"
            );
        }
        Some(ms)
    };
    for user in dataset.users().take(50) {
        assert_eq!(
            single.network_of(user),
            parallel.network_of(user),
            "thread count changed the result for {user}"
        );
    }

    // The dynamics scenario: incremental delta-apply vs full rebuild.
    let dynamics = bench_dynamics(&trace, s, args);

    // The demand-driven columns: single-threaded on both sides, so the
    // ratio is an algorithmic speedup, not a parallelism artefact.
    let on_demand = bench_on_demand(&trace, s, args, 1);

    // Lazy-cycle throughput over a bootstrapped network.
    let mut sim = build_simulator(
        dataset,
        &cfg,
        &StorageDistribution::Uniform(1000),
        args.seed,
    );
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xB007);
    bootstrap_random_views(&mut sim, &cfg, &mut rng);
    let start = Instant::now();
    sim.drive(&cfg.lazy(), RunOptions::cycles(args.cycles), |_, _| {});
    let lazy_cycle_ms = start.elapsed().as_secs_f64() * 1e3 / args.cycles as f64;
    eprintln!("   lazy cycle: {lazy_cycle_ms:.0} ms");

    let doc = Json::object()
        .with("users", users)
        .with("total_actions", dataset.total_actions())
        .with("distinct_actions", distinct_actions)
        .with("index_shards", index_shards);
    memory
        .add_to(doc)
        .with("index_build_ms", ms(index_build_ms))
        .with(
            "ideal_networks_counting_1_thread_ms",
            ms(counting_single_ms),
        )
        .with(
            "ideal_networks_counting_parallel_ms",
            ms(counting_parallel_ms),
        )
        .with("parallel_threads", parallel_threads)
        .with("ideal_networks_reference_merge_ms", reference_ms.map(ms))
        .with(
            "speedup_counting_vs_reference_1_thread",
            reference_ms.map(|ms| Json::fixed(ms / counting_single_ms, 2)),
        )
        .with("dynamics", dynamics)
        .with("on_demand", on_demand.map(|d| d.add_to(Json::object())))
        .with("decode", decode.json())
        .with("lazy_cycle_ms", ms(lazy_cycle_ms))
}

/// Query-hotspot probe at a large scale: the acceptance measurement for the
/// demand-driven resolver. Unlike the per-scale columns this runs with the
/// full worker pool on both sides — at 100k users a single-threaded global
/// recompute would dominate the benchmark's wall clock, and the resolver's
/// work counters are thread-count invariant anyway (pinned by
/// `on_demand_props`), so every gated key stays deterministic.
fn hotspot_probe(users: usize, args: &Args) -> Option<OnDemandResult> {
    eprintln!("== query-hotspot probe: {users} users ==");
    let scenario = ScenarioConfig::new(Scenario::QueryHotspot, users, args.seed);
    let trace = TraceGenerator::new(scenario.trace_config()).generate();
    let s = P3qConfig::laptop_scale().personal_network_size;
    bench_on_demand(&trace, s, args, default_threads())
}

/// Index + decode probe at a large scale: generate the trace, build the
/// compressed index, account both layouts, and run the decode microbench —
/// no ideal-network computation, so the 100k paper-delicious scenario stays
/// cheap enough to run on every benchmark invocation. The decode columns at
/// this scale are the acceptance measurement for the group-varint kernels:
/// the posting population here is what the codec was shaped for.
fn memory_probe(users: usize, args: &Args) -> (MemoryResult, DecodeResult) {
    eprintln!("== index-memory probe: {users} users ==");
    let scenario = ScenarioConfig::new(args.scenario, users, args.seed);
    let trace = TraceGenerator::new(scenario.trace_config()).generate();
    let index = ActionIndex::build(&trace.dataset);
    let memory = MemoryResult::measure(&trace.dataset, &index);
    eprintln!(
        "   {} actions, {} distinct: {:.1} MiB compressed vs {:.1} MiB CSR ({:.0}% less)",
        memory.total_actions,
        memory.distinct_actions,
        memory.bytes_index as f64 / (1 << 20) as f64,
        memory.bytes_index_csr_equivalent as f64 / (1 << 20) as f64,
        memory.reduction_percent()
    );
    let decode = DecodeResult::measure(
        &trace.dataset,
        &index,
        P3qConfig::laptop_scale().personal_network_size,
    );
    (memory, decode)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| exit_with_usage(&e, USAGE));
    let scales: Json = args.users.iter().map(|&u| bench_scale(u, &args)).collect();
    let hotspot = if args.hotspot_users > 0 {
        hotspot_probe(args.hotspot_users, &args)
    } else {
        None
    };
    let probe = (args.memory_users > 0).then(|| memory_probe(args.memory_users, &args));

    let doc = Json::object()
        .with("benchmark", "similarity")
        .with(
            "network_size",
            P3qConfig::laptop_scale().personal_network_size,
        )
        .with("lazy_cycles_timed", args.cycles)
        .with("seed", args.seed)
        .with("scales", scales)
        .with(
            "query_hotspot",
            hotspot.map(|d| d.add_to(Json::object().with("users", d.users))),
        )
        .with(
            "index_memory",
            probe.map(|(m, d)| {
                let doc = Json::object()
                    .with("users", m.users)
                    .with("total_actions", m.total_actions)
                    .with("distinct_actions", m.distinct_actions);
                m.add_to(doc).with("decode", d.json()).with(
                    "note",
                    format!(
                        "compressed columnar index vs uncompressed CSR: {:.1}% smaller",
                        m.reduction_percent()
                    ),
                )
            }),
        );
    doc.save(&args.out);
    println!("{}", doc.pretty());
}
