//! Shared plumbing for the experiment harness.
//!
//! Every table and figure of the paper's evaluation (Section 3) is one
//! `--figure` of the `paper_figures` binary; it and the `bench_*` binaries
//! share the helpers in this crate: the command-line reader ([`flags`]), the
//! JSON value the `bench_*` binaries write and `bench_check` reads
//! ([`json`]), a common "world" (trace + ideal networks + query workload),
//! the burst set-up of the fault and transport benchmarks and the per-cycle
//! recall measurement used by the eager-mode figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flags;
pub mod json;

use p3q::prelude::*;
use p3q_trace::{ChangeBatch, Scenario, ScenarioConfig, SyntheticTrace, TraceShape};

use flags::{exit_with_usage, Flags};

/// The options of `paper_figures` after `--figure NAME`; `bench_faults` and
/// `bench_transport` build their worlds from one too.
///
/// ```text
/// --users N        population size                    (default 1000)
/// --seed N         master RNG seed                    (default 42)
/// --cycles N       number of gossip cycles            (figure-specific default)
/// --queries N      number of tracked queries          (default 200)
/// --paper-scale    use the paper's 10,000-user scale  (slow!)
/// ```
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Number of users in the simulated system.
    pub users: usize,
    /// Master seed.
    pub seed: u64,
    /// Number of gossip cycles to run (meaning depends on the figure).
    pub cycles: u64,
    /// Number of queries tracked in eager-mode experiments.
    pub queries: usize,
    /// Use the paper's full 10,000-user configuration.
    pub paper_scale: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            users: 1_000,
            seed: 42,
            cycles: 0,
            queries: 200,
            paper_scale: false,
        }
    }
}

/// The flags `paper_figures` takes: printed by `--help` and after a bad
/// flag.
const HARNESS_USAGE: &str =
    "options: --figure NAME --users N --seed N --cycles N --queries N --paper-scale";

/// One figure of the paper's evaluation: what `paper_figures --figure NAME`
/// runs.
pub struct Figure {
    /// The name `--figure` takes.
    pub name: &'static str,
    /// `--cycles` when the flag is not given.
    pub default_cycles: u64,
    /// Prints the figure.
    pub run: fn(&HarnessArgs),
}

impl HarnessArgs {
    /// Parses `std::env::args` as `--figure NAME` and the shared flags.
    /// `--help` prints the options and the figures with their default
    /// cycles; a bad flag or figure name prints the error and the options
    /// and exits with status 2.
    pub fn parse_figure(figures: &[Figure]) -> (&Figure, Self) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|arg| arg == "--help" || arg == "-h") {
            println!("{HARNESS_USAGE}");
            println!("figures (default --cycles):");
            for figure in figures {
                println!("  {:<28} {}", figure.name, figure.default_cycles);
            }
            std::process::exit(0);
        }
        Self::parse_figure_from(args, figures)
            .unwrap_or_else(|e| exit_with_usage(&e, HARNESS_USAGE))
    }

    /// Parses an explicit argument iterator (testable variant of
    /// [`parse_figure`](Self::parse_figure)): the figure named by
    /// `--figure`, and the shared flags with its default cycles.
    pub fn parse_figure_from<I: IntoIterator<Item = String>>(
        args: I,
        figures: &[Figure],
    ) -> Result<(&Figure, Self), String> {
        let mut flags = Flags::new(args);
        let name: String = flags.optional("--figure")?.ok_or("missing --figure NAME")?;
        let figure = figures.iter().find(|f| f.name == name).ok_or_else(|| {
            let names: Vec<&str> = figures.iter().map(|f| f.name).collect();
            format!("unknown figure {name}; one of: {}", names.join(", "))
        })?;
        Ok((figure, Self::read(flags, figure.default_cycles)?))
    }

    /// Parses the shared flags alone, using `default_cycles` when `--cycles`
    /// is not given; `--figure` is an unknown flag here.
    pub fn parse_from<I: IntoIterator<Item = String>>(
        args: I,
        default_cycles: u64,
    ) -> Result<Self, String> {
        Self::read(Flags::new(args), default_cycles)
    }

    fn read(mut flags: Flags, default_cycles: u64) -> Result<Self, String> {
        let defaults = Self::default();
        let parsed = Self {
            users: flags.users(defaults.users)?,
            seed: flags.value("--seed", defaults.seed)?,
            cycles: flags.value("--cycles", default_cycles)?,
            queries: flags.count("--queries", defaults.queries)?,
            paper_scale: flags.switch("--paper-scale"),
        };
        flags.finish()?;
        Ok(parsed)
    }

    /// The protocol configuration implied by the scale flags.
    pub fn protocol_config(&self) -> P3qConfig {
        if self.paper_scale {
            P3qConfig::paper()
        } else {
            P3qConfig::laptop_scale()
        }
    }
}

/// Everything an experiment needs: the trace, the protocol configuration, the
/// offline ideal networks and the one-query-per-user workload.
pub struct World {
    /// The generated trace (dataset + latent topic model).
    pub trace: SyntheticTrace,
    /// Protocol configuration.
    pub cfg: P3qConfig,
    /// The counting action index over the trace — the shared base of every
    /// incremental dynamics/churn path (clone it before patching).
    pub index: ActionIndex,
    /// Ideal personal networks (global knowledge).
    pub ideal: IdealNetworks,
    /// The query workload (one query per user with a non-empty profile).
    pub queries: Vec<Query>,
}

impl World {
    /// Builds the world for the given harness arguments over the paper's
    /// trace: the laptop vocabulary or, with `--paper-scale`, the paper's.
    pub fn build(args: &HarnessArgs) -> Self {
        let shape = if args.paper_scale {
            TraceShape::FixedPaper
        } else {
            TraceShape::FixedLaptop
        };
        let trace_config = ScenarioConfig::new(Scenario::PaperDelicious, args.users, args.seed)
            .with_shape(shape)
            .trace_config();
        let trace = TraceGenerator::new(trace_config).generate();
        let cfg = args.protocol_config();
        let index = ActionIndex::build(&trace.dataset);
        let ideal =
            IdealNetworks::compute_with_index(&trace.dataset, cfg.personal_network_size, &index);
        let queries = QueryGenerator::new(args.seed ^ 0x5EED)
            .one_query_per_user(&trace.dataset)
            .into_iter()
            .filter(|q| !ideal.network_of(q.querier).is_empty())
            .collect();
        Self {
            trace,
            cfg,
            index,
            ideal,
            queries,
        }
    }

    /// The ideal personal networks after one batch of profile changes,
    /// derived incrementally: the batch is applied to a dataset clone, a
    /// fully cached [`OnDemandNetworks`] made from a clone of the networks
    /// absorbs it into a clone of the pre-change index, and
    /// [`OnDemandNetworks::into_ideal`] re-sweeps only the users it evicted
    /// (the index must predate the batch — the set semantics of
    /// `apply_deltas` tolerate re-applied actions, but the dirty set would
    /// degenerate to empty if the deltas were already indexed).
    ///
    /// Returns the new networks and the dirty users, whose networks were
    /// patched or re-swept.
    pub fn incremental_ideal_after(&self, batch: &ChangeBatch) -> (IdealNetworks, Vec<UserId>) {
        let mut changed_dataset = self.trace.dataset.clone();
        batch.apply(&mut changed_dataset);
        let mut index = self.index.clone();
        let mut resolver = OnDemandNetworks::from(self.ideal.clone());
        let outcome = resolver.apply_change_batch(&changed_dataset, &mut index, batch);
        let new_ideal = resolver.into_ideal(&changed_dataset, &index, p3q_sim::default_threads());
        (new_ideal, outcome.dirty_users())
    }

    /// A simulator over the trace with `storage` budgets, engine seed `seed`
    /// and every personal network set to its ideal content.
    pub fn simulator(&self, storage: &StorageDistribution, seed: u64) -> Simulator<P3qNode> {
        let mut sim = build_simulator(&self.trace.dataset, &self.cfg, storage, seed);
        init_ideal_networks(&mut sim, &self.ideal);
        sim
    }

    /// One paper-style day of profile changes (≈ 15 % of the users add ≈ 8
    /// actions each), drawn from `seed`.
    pub fn paper_day(&self, seed: u64) -> ChangeBatch {
        DynamicsGenerator::new(DynamicsConfig::paper_day(seed ^ 0xDA7)).generate(&self.trace)
    }

    /// A deterministic sample of at most `limit` queries (spread over the
    /// user population rather than taking a prefix).
    pub fn sample_queries(&self, limit: usize) -> Vec<Query> {
        if self.queries.len() <= limit {
            return self.queries.clone();
        }
        let stride = self.queries.len() as f64 / limit as f64;
        (0..limit)
            .map(|i| self.queries[(i as f64 * stride) as usize].clone())
            .collect()
    }
}

/// Issues `queries[i]` from its querier's node as `QueryId(i)` — the
/// numbering every harness reads the query books back under.
pub fn issue_queries(sim: &mut Simulator<P3qNode>, queries: &[Query], cfg: &P3qConfig) {
    for (i, query) in queries.iter().enumerate() {
        issue_query(
            sim,
            query.querier.index(),
            QueryId(i as u64),
            query.clone(),
            cfg,
        );
    }
}

/// The state of `queries[i]`, which [`issue_queries`] issued as
/// `QueryId(i)`.
pub fn query_state<'a>(
    sim: &'a mut Simulator<P3qNode>,
    queries: &[Query],
    i: usize,
) -> &'a mut QuerierState {
    sim.node_mut(queries[i].querier.index())
        .querier_states
        .get_mut(&QueryId(i as u64))
        .expect("query state exists")
}

/// The simulation the burst benchmarks (`bench_faults`, `bench_transport`)
/// start from: a storage budget of 4 profiles per node, engine seed 5 and
/// the ideal personal networks installed.
pub fn burst_simulator(world: &World, cfg: &P3qConfig) -> Simulator<P3qNode> {
    let budgets = vec![4usize; world.trace.dataset.num_users()];
    let mut sim = build_simulator_with_budgets(&world.trace.dataset, cfg, &budgets, 5);
    init_ideal_networks(&mut sim, &world.ideal);
    sim
}

/// The composite fault mix of the burst benchmarks at headline `rate` (a
/// fraction, not percent): the `lossy` delivery preset (drop `rate`, delay
/// `rate / 2`, duplicate `rate / 4`) plus `crash_rate` crashes per node per
/// cycle with a 2-cycle downtime. Pure delivery loss only delays the eager
/// protocol (an uncommitted exchange leaves the remaining list with the
/// initiator, who re-plans next cycle); the permanent damage comes from
/// crashes wiping in-flight query state.
///
/// The two callers pass different crash rates: `bench_faults` scales it with
/// the sweep (`rate / 20`, so 0.0025 at its 5 % row), `bench_transport` pairs
/// the 5 % preset with a fixed 0.002. The `fault_checksum`, `state_checksum`
/// and `traffic_checksum` values committed under `ci/baselines/` pin both, so
/// neither can adopt the other's rate without a deliberate re-bless.
pub fn composite_faults(rate: f64, crash_rate: f64, fault_seed: u64) -> FaultConfig {
    if rate <= 0.0 {
        return FaultConfig::none();
    }
    let mut cfg = FaultConfig::lossy(rate, fault_seed);
    cfg.crash_rate = crash_rate;
    cfg.downtime_cycles = 2;
    cfg.validate();
    cfg
}

/// Per-cycle average recall of a batch of queries processed simultaneously in
/// eager mode — the measurement behind Figures 3, 4 and 11.
pub struct RecallExperiment {
    /// Average recall at cycle 0 (local processing only), then after each
    /// eager cycle.
    pub recall_per_cycle: Vec<f64>,
    /// Fraction of tracked queries whose final recall stays below 1 — the
    /// paper's "queries unable to get R10 = 1" metric (Figure 11(c)).
    pub incomplete_fraction: f64,
    /// Mean number of users reached per query.
    pub mean_users_reached: f64,
}

/// Issues `queries` on `sim`, runs `cycles` eager cycles and measures the
/// average recall against the centralized reference after every cycle.
pub fn run_recall_experiment(
    sim: &mut Simulator<P3qNode>,
    world: &World,
    queries: &[Query],
    cycles: u64,
) -> RecallExperiment {
    let cfg = &world.cfg;
    let references: Vec<Vec<(ItemId, u32)>> = queries
        .iter()
        .map(|q| centralized_topk(&world.trace.dataset, &world.ideal, q, cfg.top_k))
        .collect();

    issue_queries(sim, queries, cfg);

    let average_recall = |sim: &mut Simulator<P3qNode>| -> f64 {
        let mut total = 0.0;
        for (i, reference) in references.iter().enumerate() {
            let items: Vec<ItemId> = query_state(sim, queries, i)
                .current_topk(cfg.top_k)
                .iter()
                .map(|r| r.item)
                .collect();
            total += recall_at_k(&items, reference);
        }
        total / queries.len().max(1) as f64
    };

    let mut recall_per_cycle = vec![average_recall(sim)];
    sim.drive(&cfg.eager(), RunOptions::cycles(cycles), |sim, event| {
        if let RunEvent::CycleEnd(_) = event {
            recall_per_cycle.push(average_recall(sim));
        }
    });

    let mut incomplete = 0usize;
    let mut reached_total = 0usize;
    for (i, reference) in references.iter().enumerate() {
        let state = query_state(sim, queries, i);
        reached_total += state.reached_users.len();
        // Figure 11(c): a query counts as unable to reach R10 = 1 if, with
        // everything it has received (scanned exhaustively), some relevant
        // item is still missing.
        let items: Vec<ItemId> = state
            .nra
            .topk_exhaustive(cfg.top_k)
            .iter()
            .map(|r| r.item)
            .collect();
        if recall_at_k(&items, reference) < 1.0 - 1e-9 {
            incomplete += 1;
        }
    }

    RecallExperiment {
        recall_per_cycle,
        incomplete_fraction: incomplete as f64 / queries.len().max(1) as f64,
        mean_users_reached: reached_total as f64 / queries.len().max(1) as f64,
    }
}

/// The host's available parallelism (1 when it cannot be told), recorded
/// beside every result that depends on threads.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Prints a simple aligned table: a header row followed by data rows.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let formatted: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", formatted.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a float with 3 decimal places (the precision used in the output
/// tables).
pub fn fmt(value: f64) -> String {
    format!("{value:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_defaults_and_overrides() {
        let args = HarnessArgs::parse_from(Vec::<String>::new(), 25).unwrap();
        assert_eq!(args.users, 1000);
        assert_eq!(args.cycles, 25);
        assert!(!args.paper_scale);

        let args = HarnessArgs::parse_from(
            [
                "--users",
                "50",
                "--seed",
                "9",
                "--cycles",
                "3",
                "--queries",
                "7",
            ]
            .iter()
            .map(|s| s.to_string()),
            25,
        )
        .unwrap();
        assert_eq!(args.users, 50);
        assert_eq!(args.seed, 9);
        assert_eq!(args.cycles, 3);
        assert_eq!(args.queries, 7);
    }

    #[test]
    fn figure_picks_its_default_cycles() {
        let figures = [
            Figure {
                name: "fig2_convergence",
                default_cycles: 100,
                run: |_| {},
            },
            Figure {
                name: "fig3_alpha",
                default_cycles: 20,
                run: |_| {},
            },
        ];
        let parse = |args: &[&str]| {
            HarnessArgs::parse_figure_from(args.iter().map(|s| s.to_string()), &figures)
                .map(|(figure, args)| (figure.name, args.cycles, args.users))
        };
        assert_eq!(
            parse(&["--figure", "fig3_alpha"]),
            Ok(("fig3_alpha", 20, 1000))
        );
        assert_eq!(
            parse(&[
                "--users",
                "5",
                "--figure",
                "fig2_convergence",
                "--cycles",
                "3"
            ]),
            Ok(("fig2_convergence", 3, 5))
        );

        let unknown = parse(&["--figure", "fig99"]).unwrap_err();
        assert!(unknown.contains("fig3_alpha"), "{unknown}");
        assert!(parse(&["--figure"]).is_err());
        assert!(parse(&["--figure", "--users", "5"]).is_err());
        assert!(parse(&["--users", "5"]).is_err());
        assert!(parse(&["--figure", "fig3_alpha", "--bogus"]).is_err());
        // Only the figure binary reads --figure.
        assert!(HarnessArgs::parse_from(["--figure".into(), "fig3_alpha".into()], 1).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(HarnessArgs::parse_from(["--bogus".to_string()], 1).is_err());
    }

    #[test]
    fn zero_users_is_an_error() {
        let zero = HarnessArgs::parse_from(["--users".into(), "0".into()], 1);
        assert!(zero.is_err());
    }

    #[test]
    fn zero_queries_is_an_error() {
        let zero = HarnessArgs::parse_from(["--queries".into(), "0".into()], 1);
        assert_eq!(zero.unwrap_err(), "--queries must be at least 1");
    }

    #[test]
    fn world_build_and_recall_experiment_smoke() {
        // Build a miniature world by hand to keep the test fast.
        let mut trace_cfg = TraceConfig::tiny(3);
        trace_cfg.num_users = 60;
        let trace = TraceGenerator::new(trace_cfg).generate();
        let cfg = P3qConfig::tiny();
        let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
        let queries: Vec<Query> = QueryGenerator::new(1)
            .one_query_per_user(&trace.dataset)
            .into_iter()
            .filter(|q| !ideal.network_of(q.querier).is_empty())
            .take(5)
            .collect();
        let index = ActionIndex::build(&trace.dataset);
        let world = World {
            trace,
            cfg: cfg.clone(),
            index,
            ideal,
            queries: queries.clone(),
        };

        let budgets = vec![2usize; world.trace.dataset.num_users()];
        let mut sim = build_simulator_with_budgets(&world.trace.dataset, &cfg, &budgets, 5);
        init_ideal_networks(&mut sim, &world.ideal);
        let outcome = run_recall_experiment(&mut sim, &world, &queries, 6);
        assert_eq!(outcome.recall_per_cycle.len(), 7);
        let first = outcome.recall_per_cycle[0];
        let last = *outcome.recall_per_cycle.last().unwrap();
        assert!(
            last >= first - 1e-9,
            "recall must not degrade: {first} -> {last}"
        );
        assert!(last > 0.9, "recall should approach 1, got {last}");
    }

    #[test]
    fn sample_queries_spreads_over_population() {
        let mut trace_cfg = TraceConfig::tiny(1);
        trace_cfg.num_users = 40;
        let trace = TraceGenerator::new(trace_cfg).generate();
        let cfg = P3qConfig::tiny();
        let ideal = IdealNetworks::compute(&trace.dataset, cfg.personal_network_size);
        let queries = QueryGenerator::new(1).one_query_per_user(&trace.dataset);
        let index = ActionIndex::build(&trace.dataset);
        let world = World {
            trace,
            cfg,
            index,
            ideal,
            queries,
        };
        let sample = world.sample_queries(10);
        assert_eq!(sample.len(), 10);
        let full = world.sample_queries(10_000);
        assert_eq!(full.len(), world.queries.len());
        assert!(world.sample_queries(0).is_empty());
    }

    #[test]
    fn print_table_and_fmt_do_not_panic() {
        print_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(fmt(0.5), "0.500");
    }
}
