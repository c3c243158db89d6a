//! `stash` — the command-line profiler.
//!
//! `COMMANDS` is the usage table: each subcommand's usage line (printed
//! on a usage error, and by a bare `stash` for all of them together), the
//! flags it declares and the function that runs it. One pass over the
//! arguments (`Args::parse`) splits positionals from declared flags; a
//! flag the command does not declare, or a value flag given no value, is
//! a usage error. Every command returns `Result<ExitCode, String>` and
//! `main` alone reports an `Err`: the message on stderr, exit 1. Exit 2
//! is a finished run with failed sweep cells or corrupt store records.
//! A `STASH_BENCH_THREADS` value that is not a whole number of worker
//! threads exits 1 naming the variable before any command runs.
//!
//! Cluster syntax matches the paper: `p3.16xlarge` or `p3.8xlarge*2`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use stash::core::profiler::threads_setting;
use stash::prelude::*;
use stash::telemetry::diff::TelemetryDiff;
use stash::telemetry::series::IterSeries;

/// The flags several commands share, as `Args` keys.
const OUT: &str = "-o/--out";
const BATCH: &str = "-b/--batch";

/// One subcommand. Its usage line gives its name and one `<positional>`
/// per required positional argument; flags are spelled `--long` or
/// `-s/--long`.
struct Command {
    usage: &'static str,
    /// Flags that take the next argument as their value.
    values: &'static [&'static str],
    /// Flags that stand alone.
    switches: &'static [&'static str],
    run: fn(&Args) -> Result<ExitCode, String>,
}

impl Command {
    fn name(&self) -> &str {
        self.usage.split(' ').nth(1).unwrap_or_default()
    }

    fn positionals(&self) -> usize {
        self.usage.matches(" <").count()
    }

    /// The table spelling of the flag `token` names, and whether it takes
    /// a value.
    fn flag(&self, token: &str) -> Option<(&'static str, bool)> {
        let values = self.values.iter().map(|&f| (f, true));
        let switches = self.switches.iter().map(|&f| (f, false));
        values
            .chain(switches)
            .find(|(f, _)| f.split('/').any(|name| name == token))
    }
}

static COMMANDS: [Command; 13] = [
    Command {
        usage: "stash catalog",
        values: &[],
        switches: &[],
        run: cmd_catalog,
    },
    Command {
        usage: "stash models",
        values: &[],
        switches: &[],
        run: cmd_models,
    },
    Command {
        usage: "stash profile <model> <cluster> [-b batch]",
        values: &[BATCH],
        switches: &[],
        run: cmd_profile,
    },
    Command {
        usage: "stash advise <model> [-b batch] [--cost|--time]",
        values: &[BATCH],
        switches: &["--cost", "--time"],
        run: cmd_advise,
    },
    Command {
        usage: "stash probe <instance>",
        values: &[],
        switches: &[],
        run: cmd_probe,
    },
    Command {
        usage: "stash trace <instance> <model> [--out PATH] [-b batch]",
        values: &[OUT, BATCH],
        switches: &[],
        run: cmd_trace,
    },
    Command {
        usage: "stash report <instance> <model> [--out PATH] [-b batch]",
        values: &[OUT, BATCH],
        switches: &[],
        run: cmd_report,
    },
    Command {
        usage: "stash diff <baseline.json> <current.json> [--threshold FRAC]",
        values: &["-t/--threshold"],
        switches: &[],
        run: cmd_diff,
    },
    Command {
        usage: "stash chaos <instance> <model> [--seed N] [--plan FILE] [--out PATH] \
                [--flight PATH] [--series PATH] [-b batch]",
        values: &["--seed", "--plan", OUT, "--flight", "--series", BATCH],
        switches: &[],
        run: cmd_chaos,
    },
    Command {
        usage: "stash perf <cluster|sweep> <model> [-b batch] [--out BASE] [--format csv]",
        values: &[BATCH, OUT, "-f/--format"],
        switches: &[],
        run: cmd_perf,
    },
    Command {
        usage: "stash dash <results-dir> [--out PATH]",
        values: &[OUT],
        switches: &[],
        run: cmd_dash,
    },
    Command {
        usage: "stash sweep [--models A,B] [--clusters X,Y] [-b batch] [--iters N] \
                [--store DIR] [--resume] [--out CSV] [--io-fault-plan FILE] \
                [--io-fault-seed N] [--retries N] [--deadline-secs S]",
        values: &[
            "--models",
            "--clusters",
            BATCH,
            "--iters",
            "--store",
            "--out",
            "--io-fault-plan",
            "--io-fault-seed",
            "--retries",
            "--deadline-secs",
        ],
        switches: &["--resume"],
        run: cmd_sweep,
    },
    Command {
        usage: "stash fsck <store-dir> [--repair]",
        values: &[],
        switches: &["--repair"],
        run: cmd_fsck,
    },
];

/// A command's arguments, split in one pass.
struct Args {
    cmd: &'static Command,
    /// Positional arguments in order: at least `cmd.positionals()`.
    pos: Vec<String>,
    /// The flags given, keyed by their table spelling, with their values
    /// (`None` for switches). The first occurrence of a flag wins.
    flags: BTreeMap<&'static str, Option<String>>,
}

impl Args {
    /// Splits `raw` into positionals and `cmd`'s flags. A value flag takes
    /// the next argument unless that starts with `--`, so `-b -3` still
    /// reaches the batch parser.
    fn parse(cmd: &'static Command, raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            cmd,
            pos: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut it = raw.iter();
        while let Some(token) = it.next() {
            if !token.starts_with('-') {
                args.pos.push(token.clone());
                continue;
            }
            let Some((flag, takes_value)) = cmd.flag(token) else {
                return Err(format!("unknown flag '{token}'\n{}", args.usage()));
            };
            let value = if takes_value {
                match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(format!("{token} needs a value\n{}", args.usage())),
                }
            } else {
                None
            };
            args.flags.entry(flag).or_insert(value);
        }
        if args.pos.len() < cmd.positionals() {
            return Err(args.usage());
        }
        Ok(args)
    }

    fn usage(&self) -> String {
        format!("usage: {}", self.cmd.usage)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag)?.as_deref()
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// `flag`'s value as a positive integer, `None` when absent.
    fn positive<T: std::str::FromStr + Default + PartialOrd>(
        &self,
        flag: &str,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.value(flag) else {
            return Ok(None);
        };
        match v.parse::<T>() {
            Ok(n) if n > T::default() => Ok(Some(n)),
            _ => Err(format!("{flag} wants a positive integer, got '{v}'")),
        }
    }

    /// The `-b/--batch` value: 32 when the flag is absent.
    fn batch(&self) -> Result<u64, String> {
        Ok(self.positive(BATCH)?.unwrap_or(32))
    }
}

/// Edit distance, for "did you mean" hints on unknown names.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = Vec::with_capacity(b.len() + 1);
        cur.push(i + 1);
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The closest candidate within an edit distance of 3, if any.
fn nearest<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    let name = name.to_lowercase();
    candidates
        .map(|c| (levenshtein(&name, &c.to_lowercase()), c))
        .filter(|&(d, _)| d <= 3)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

fn lookup_model(name: &str) -> Result<Model, String> {
    if let Some(m) = zoo::by_name(name) {
        return Ok(m);
    }
    let names: Vec<String> = zoo::all_models().into_iter().map(|(m, _)| m.name).collect();
    Err(match nearest(name, names.iter().map(String::as_str)) {
        Some(s) => format!("unknown model '{name}' — did you mean '{s}'? (try `stash models`)"),
        None => format!("unknown model '{name}' (try `stash models`)"),
    })
}

fn parse_cluster(spec: &str) -> Result<ClusterSpec, String> {
    ClusterSpec::parse(spec).map_err(|e| {
        let cat = catalog();
        let inst = spec.split('*').next().unwrap_or(spec);
        if cat.iter().any(|i| i.name == inst) {
            return e;
        }
        let hint = nearest(inst, cat.iter().map(|i| i.name.as_str()))
            .map(|s| format!(" — did you mean '{s}'?"))
            .unwrap_or_default();
        format!(
            "{e}{hint} (known instances: {})",
            cat.iter()
                .map(|i| i.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

/// The `<instance> <model>` pair of trace, report, chaos and perf, in
/// either order: `first` is the model when it names one in the zoo.
/// Returns the resolved model and both names as given.
fn subject<'a>(first: &'a str, second: &'a str) -> Result<(Model, &'a str, &'a str), String> {
    let (model_name, cluster_spec) = if zoo::by_name(first).is_some() {
        (first, second)
    } else {
        (second, first)
    };
    Ok((lookup_model(model_name)?, model_name, cluster_spec))
}

/// `<model>_<cluster>` for default output paths (`*` becomes `x`).
fn slug(model_name: &str, cluster_spec: &str) -> String {
    format!(
        "{}_{}",
        model_name.to_lowercase(),
        cluster_spec.replace('*', "x")
    )
}

fn stash_for(model: Model, batch: u64) -> Stash {
    let dataset = DatasetSpec::for_model(&model);
    Stash::new(model).with_batch(batch).with_dataset(dataset)
}

/// The window `trace` and `report` simulate: 12 sampled iterations of
/// real, warm-cache data, so the trace shows the full pipeline — fetch,
/// prep, H2D upload, compute and all-reduce on their own tracks.
fn traced_window(cluster: ClusterSpec, model: Model, batch: u64) -> TrainConfig {
    let dataset = DatasetSpec::for_model(&model);
    let mut cfg = TrainConfig::synthetic(cluster, model, batch, batch * 12);
    cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
    cfg.record_trace = true;
    cfg.data = DataMode::Real {
        dataset,
        cache: CacheState::Warm,
    };
    cfg
}

fn write_creating_dirs(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs `cfg` (under `plan`, if any) with a recording tracer and returns
/// the run together with every event the tracer saw.
fn traced_epoch(
    cfg: &TrainConfig,
    plan: Option<&FaultPlan>,
) -> Result<(FaultedRun, Vec<(u32, TraceEvent)>), TrainError> {
    use std::cell::RefCell;
    use std::rc::Rc;

    let sink = Rc::new(RefCell::new(JsonSink::new()));
    let tracer = shared(Tracer::new(sink.clone()));
    let run = Run {
        plan,
        tracer: Some(&tracer),
        ..Run::default()
    }
    .epoch(cfg)?;
    let events = sink.borrow().events().to_vec();
    Ok((run, events))
}

/// Runs one traced window of `cfg` and returns the epoch report plus the
/// rank-0 critical-path decomposition of the raw trace.
fn traced_critical_path(cfg: &TrainConfig) -> Result<(EpochReport, CriticalPath), TrainError> {
    let (run, events) = traced_epoch(cfg, None)?;
    Ok((
        run.report,
        CriticalPath::from_events(&events, 0, Track::gpu(0, 0)),
    ))
}

/// The engine's stall accumulators, labelled, in the order every
/// reconciliation checks them. Recovery and straggler time only move
/// under faults.
fn engine_accounts(r: &EpochReport) -> [(&'static str, SimDuration); 5] {
    [
        ("compute", r.compute_time),
        ("data-wait", r.data_wait),
        ("comm-wait", r.comm_wait),
        ("recovery", r.recovery_time),
        ("straggler", r.straggler_time),
    ]
}

/// The critical path's raw total for each of `engine_accounts`, in the
/// same order: a trace that balances the engine's accounting matches
/// them to the nanosecond (after extrapolating a sampled window).
fn path_accounts(path: &CriticalPath) -> [SimDuration; 5] {
    use PathCategory as C;
    [
        &[C::Compute, C::Overlap][..],
        &[C::Prep, C::Fetch],
        &[C::Interconnect, C::Network],
        &[C::Recovery],
        &[C::Straggler],
    ]
    .map(|cats| SimDuration::from_nanos(cats.iter().map(|&c| path.total_ns(c)).sum()))
}

/// Runs `cfg` (under `plan`, if any) recording its iteration series. The
/// series is a pure observer, so the run never disagrees with a plain run
/// of the same config — the zoo-wide differential test proves
/// bit-identity.
fn series_epoch(
    cfg: &TrainConfig,
    plan: Option<&FaultPlan>,
) -> Result<(FaultedRun, IterSeries), TrainError> {
    let mut series = IterSeries::default();
    let run = Run {
        plan,
        series: Some(&mut series),
        ..Run::default()
    }
    .epoch(cfg)?;
    Ok((run, series))
}

/// The `stash-series-v1` document of `series`, recorded by the run that
/// produced `r`.
fn series_doc(r: &EpochReport, series: &IterSeries) -> serde_json::Value {
    let meta = stash::telemetry::series::SeriesMeta {
        cluster: r.cluster.clone(),
        model: r.model.clone(),
        world: r.world as u64,
        per_gpu_batch: r.per_gpu_batch,
        iterations: r.iterations,
        simulated_iterations: r.simulated_iterations,
    };
    series.to_json(&meta)
}

fn cmd_catalog(_: &Args) -> Result<ExitCode, String> {
    println!(
        "{:<13} {:>10} {:>6} {:<14} {:>9} {:>8}",
        "instance", "gpus", "vcpus", "interconnect", "net_gbps", "$/hr"
    );
    for i in catalog() {
        println!(
            "{:<13} {:>10} {:>6} {:<14} {:>9} {:>8.2}",
            i.name,
            format!("{}x{}", i.gpu_count, i.gpu.label()),
            i.vcpus,
            i.interconnect.label(),
            i.network_gbps,
            i.price_per_hour
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_models(_: &Args) -> Result<ExitCode, String> {
    println!(
        "{:<14} {:>12} {:>8} {:>12}",
        "model", "gradients_M", "layers", "sync_points"
    );
    for (m, _) in zoo::all_models() {
        println!(
            "{:<14} {:>12.2} {:>8} {:>12}",
            m.name,
            m.param_count() as f64 / 1e6,
            m.layer_count(),
            m.trainable_layer_count()
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs the 5-step methodology against one cluster.
fn cmd_profile(args: &Args) -> Result<ExitCode, String> {
    let model = lookup_model(&args.pos[0])?;
    let cluster = parse_cluster(&args.pos[1])?;
    let report = stash_for(model, args.batch()?)
        .profile(&cluster)
        .map_err(|e| format!("profiling failed: {e}"))?;
    print!("{report}");
    Ok(ExitCode::SUCCESS)
}

/// Ranks every candidate cluster by epoch cost (or time).
fn cmd_advise(args: &Args) -> Result<ExitCode, String> {
    let model = lookup_model(&args.pos[0])?;
    let objective = if args.has("--time") {
        Objective::Time
    } else {
        Objective::Cost
    };
    let stash = stash_for(model, args.batch()?);
    let advice = recommend(&stash, &default_candidates(), objective)
        .map_err(|e| format!("advisor failed: {e}"))?;
    println!("{:<16} {:>12} {:>10}", "cluster", "epoch", "cost $");
    for r in &advice.ranked {
        println!(
            "{:<16} {:>12} {:>10.2}",
            r.cluster_name,
            r.cost.epoch_time.to_string(),
            r.cost.epoch_cost
        );
    }
    for s in &advice.skipped {
        println!("{:<16} skipped: {}", s.cluster_name, s.reason);
    }
    Ok(ExitCode::SUCCESS)
}

/// Per-GPU PCIe bandwidth with every GPU of an instance probing at once.
fn cmd_probe(args: &Args) -> Result<ExitCode, String> {
    let name = &args.pos[0];
    let inst = by_name(name).ok_or_else(|| {
        let cat = catalog();
        match nearest(name, cat.iter().map(|i| i.name.as_str())) {
            Some(s) => format!("unknown instance '{name}' — did you mean '{s}'?"),
            None => format!("unknown instance '{name}' (try `stash catalog`)"),
        }
    })?;
    let mut net = FlowNet::new();
    let topo = Topology::build(&ClusterSpec::single(inst), &mut net);
    let rates = topo.pcie_bandwidth_probe(&net, 0);
    println!(
        "per-GPU PCIe bandwidth with {} GPUs probing concurrently:",
        rates.len()
    );
    for (g, r) in rates.iter().enumerate() {
        println!("  gpu{g}: {:.2} GB/s", r / 1e9);
    }
    Ok(ExitCode::SUCCESS)
}

/// A traced epoch: per-iteration timeline, span rollup, and a validated
/// Chrome trace JSON.
fn cmd_trace(args: &Args) -> Result<ExitCode, String> {
    let (model, model_name, cluster_spec) = subject(&args.pos[0], &args.pos[1])?;
    let cluster = parse_cluster(cluster_spec)?;
    let out_path = args.value(OUT).map_or_else(
        || format!("results/trace_{}.json", slug(model_name, cluster_spec)),
        str::to_string,
    );
    let cfg = traced_window(cluster, model, args.batch()?);
    let (FaultedRun { report: r, .. }, events) =
        traced_epoch(&cfg, None).map_err(|e| format!("trace failed: {e}"))?;

    println!(
        "{} | {} | batch {} x {} GPUs — per-iteration timeline",
        r.cluster, r.model, r.per_gpu_batch, r.world
    );
    println!(
        "{:>5} {:>12} {:>12} {:>12}",
        "iter", "total", "data wait", "comm wait"
    );
    for s in &r.trace {
        println!(
            "{:>5} {:>12} {:>12} {:>12}",
            s.iteration,
            s.total.to_string(),
            s.data_wait.to_string(),
            s.comm_wait.to_string()
        );
    }
    println!(
        "host-bus utilisation: {:.1}%  |  throughput: {:.0} samples/s",
        r.host_bus_utilization * 100.0,
        r.throughput
    );

    let rollup = StallRollup::from_events(&events);
    println!(
        "\nper-category traced span time (raw, {} simulated iterations):",
        r.simulated_iterations
    );
    for (kind, category, total) in rollup.kind_totals() {
        println!("  {:<9} {:<13} {}", kind.label(), category.label(), total);
    }
    print!("\n{}", stash::trace::metrics::render_rollup(&rollup));

    let text = serde_json::to_string_pretty(&stash::trace::chrome::export(&events))
        .map_err(|e| format!("cannot serialize trace: {e}"))?;
    write_creating_dirs(&out_path, &text)?;
    let stats = stash::trace::chrome::validate(&text)
        .map_err(|e| format!("exported trace failed validation: {e}"))?;
    println!(
        "\ntrace validated: {} spans / {} instants / {} counters on {} tracks (max depth {})",
        stats.spans, stats.instants, stats.counters, stats.tracks, stats.max_depth
    );
    println!("chrome trace written to {out_path} (open in chrome://tracing or Perfetto)");
    Ok(ExitCode::SUCCESS)
}

/// Resolves `--out BASE` (or the default) into `(html, json)` paths:
/// an explicit `.html`/`.json` extension names one file and derives the
/// sibling; anything else is treated as a base stem.
fn report_paths(base: &str) -> (String, String) {
    if let Some(stem) = base.strip_suffix(".html") {
        (base.to_string(), format!("{stem}.json"))
    } else if let Some(stem) = base.strip_suffix(".json") {
        (format!("{stem}.html"), base.to_string())
    } else {
        (format!("{base}.html"), format!("{base}.json"))
    }
}

/// A critical-path stall report: self-contained HTML plus JSON for
/// `stash diff`, with a re-simulated what-if table.
fn cmd_report(args: &Args) -> Result<ExitCode, String> {
    use stash::trace::report::{BlameRow, WhatIfRow};

    let (model, model_name, cluster_spec) = subject(&args.pos[0], &args.pos[1])?;
    let cluster = parse_cluster(cluster_spec)?;
    let out_base = args.value(OUT).map_or_else(
        || format!("results/report_{}", slug(model_name, cluster_spec)),
        str::to_string,
    );
    let (html_path, json_path) = report_paths(&out_base);
    let cfg = traced_window(cluster.clone(), model, args.batch()?);

    let (r, path) = traced_critical_path(&cfg).map_err(|e| format!("report failed: {e}"))?;
    let factor = r.iterations as f64 / r.simulated_iterations as f64;

    // The critical path must balance the engine's own accounting exactly:
    // the raw per-category sums, extrapolated with the same mul_f64 the
    // report used, land on the EpochReport fields to the nanosecond.
    println!(
        "{} | {} | batch {} x {} GPUs — critical-path reconciliation",
        r.cluster, r.model, r.per_gpu_batch, r.world
    );
    let accounts = engine_accounts(&r).into_iter().zip(path_accounts(&path));
    for ((what, engine), traced) in accounts.take(3) {
        let scaled = traced.mul_f64(factor);
        println!("  {what:<9} trace {scaled:>12}  engine {engine:>12}");
        if scaled != engine {
            return Err(format!(
                "critical path does not reconcile with the engine's {what} accounting"
            ));
        }
    }

    let mut report = InsightReport::from_path(&r.cluster, &r.model, r.world, factor, &path);
    report.epoch_ns = r.epoch_time.as_nanos();
    report.engine_compute_ns = r.compute_time.as_nanos();
    report.engine_data_wait_ns = r.data_wait.as_nanos();
    report.engine_comm_wait_ns = r.comm_wait.as_nanos();
    let (run, series) = series_epoch(&cfg, None).map_err(|e| format!("report failed: {e}"))?;
    report.series = (!series.is_empty()).then(|| series_doc(&run.report, &series));
    report.blame = path
        .top_blamed(10)
        .into_iter()
        .map(|b| BlameRow {
            name: b.name.to_string(),
            arg: b.arg,
            category: b.category.label().to_string(),
            ns: b.contribution_ns,
        })
        .collect();

    // What-if table: every resource 2x faster, each cross-checked by
    // actually re-simulating on rescaled hardware.
    println!("\nwhat-if (2x faster), projected vs re-simulated window:");
    for res in WhatIfResource::ALL {
        let projected = project(&path, res, 2.0);
        let resim = match Resource::from_label(res.label()) {
            None => {
                eprintln!(
                    "  {:<15} has no hardware counterpart; skipping re-simulation",
                    res.label()
                );
                None
            }
            Some(hw) => {
                let mut cfg2 = cfg.clone();
                cfg2.cluster = cluster.scaled(hw, 2.0);
                match traced_critical_path(&cfg2) {
                    Ok((_, p2)) => Some(p2.wall_ns),
                    Err(e) => {
                        eprintln!("  {:<15} re-simulation failed: {e}", res.label());
                        None
                    }
                }
            }
        };
        if let Some(truth) = resim {
            let err = (projected as f64 - truth as f64).abs() / truth.max(1) as f64;
            let flag = if err > PROJECTION_TOLERANCE {
                "  (!) outside tolerance"
            } else {
                ""
            };
            println!(
                "  {:<15} projected {:>14} ns   re-sim {:>14} ns   err {:>5.1}%{flag}",
                res.label(),
                projected,
                truth,
                err * 100.0
            );
        }
        report.whatif.push(WhatIfRow {
            resource: res.label().to_string(),
            factor: 2.0,
            projected_wall_ns: projected,
            resim_wall_ns: resim,
        });
    }

    let json_text = serde_json::to_string_pretty(&report.to_json())
        .map_err(|e| format!("cannot serialize report: {e}"))?;
    write_creating_dirs(&json_path, &json_text)?;
    write_creating_dirs(&html_path, &report.to_html())?;
    println!(
        "\nreport written to {html_path} (open in any browser) and {json_path} (for `stash diff`)"
    );
    Ok(ExitCode::SUCCESS)
}

/// Prints a simulator-health or iteration-dynamics gate: the notes, then
/// either the all-clear or the regressions (exit 1).
fn print_gate(
    d: &TelemetryDiff,
    what: &str,
    base_path: &str,
    cur_path: &str,
) -> Result<ExitCode, String> {
    for note in &d.notes {
        println!("  {note}");
    }
    if d.is_clean() {
        println!("no {what} regressions: {base_path} vs {cur_path}");
        return Ok(ExitCode::SUCCESS);
    }
    Err(format!(
        "{} {what} regression(s):\n  {}",
        d.regressions.len(),
        d.regressions.join("\n  ")
    ))
}

/// Gates one document against a baseline: stall reports per category,
/// telemetry documents on simulator health, series documents on
/// iteration dynamics. Regressions exit non-zero.
fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    use serde_json::Value;
    use stash::telemetry::{diff as telemetry, series};
    use stash::trace::report::{diff, DEFAULT_DIFF_THRESHOLD};

    let (base_path, cur_path) = (args.pos[0].as_str(), args.pos[1].as_str());
    let threshold = match args.value("-t/--threshold") {
        None => DEFAULT_DIFF_THRESHOLD,
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t.is_finite() && t >= 0.0 => t,
            _ => {
                return Err(format!(
                    "--threshold wants a finite, non-negative fraction, got '{v}'\n{}",
                    args.usage()
                ))
            }
        },
    };
    let load_doc = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
    };
    let base_doc = load_doc(base_path)?;
    let cur_doc = load_doc(cur_path)?;

    // Series documents get the iteration-dynamics gates (CoV, transient
    // spikes); telemetry documents the simulator-health gates; stall
    // reports the per-category workload gates. Mixing kinds is an error.
    type Gate = fn(&Value, &Value) -> Result<TelemetryDiff, String>;
    type Kind = (&'static str, fn(&Value) -> bool, Gate, &'static str);
    let kinds: [Kind; 2] = [
        (
            "iteration-dynamics",
            series::is_series_doc,
            series::diff_docs,
            "a series document against a non-series document",
        ),
        (
            "simulator-health",
            telemetry::is_telemetry_doc,
            telemetry::diff_docs,
            "a telemetry document against a stall report",
        ),
    ];
    for (what, is_kind, gate, mixed) in kinds {
        match (is_kind(&base_doc), is_kind(&cur_doc)) {
            (true, true) => {
                let d = gate(&base_doc, &cur_doc)?;
                return print_gate(&d, what, base_path, cur_path);
            }
            (false, false) => {}
            _ => return Err(format!("cannot diff {mixed} ({base_path} vs {cur_path})")),
        }
    }

    let load =
        |path: &str, doc: &Value| InsightReport::from_json(doc).map_err(|e| format!("{path}: {e}"));
    let baseline = load(base_path, &base_doc)?;
    let current = load(cur_path, &cur_doc)?;
    let regs = diff(&baseline, &current, threshold);
    if regs.is_empty() {
        println!(
            "no stall regressions: {} / {} vs {} / {} within {:.0}%",
            baseline.cluster,
            baseline.model,
            current.cluster,
            current.model,
            threshold * 100.0
        );
        return Ok(ExitCode::SUCCESS);
    }
    let rows: Vec<String> = regs
        .iter()
        .map(|reg| {
            format!(
                "  {:<13} {:>14} ns -> {:>14} ns  ({:.2}x)",
                reg.category, reg.baseline_ns, reg.current_ns, reg.ratio
            )
        })
        .collect();
    Err(format!(
        "{} stall regression(s) beyond {:.0}%:\n{}",
        regs.len(),
        threshold * 100.0,
        rows.join("\n")
    ))
}

/// Simulator self-telemetry for one profile or a candidate sweep:
/// BASE.json + BASE.prom (+ BASE.csv with `--format csv`).
fn cmd_perf(args: &Args) -> Result<ExitCode, String> {
    use stash::telemetry::snapshot::Snapshot;

    let format_csv = match args.value("-f/--format") {
        None | Some("table") => false,
        Some("csv") => true,
        Some(v) => return Err(format!("--format expects 'csv' or 'table', got '{v}'")),
    };
    // `perf sweep <model>` aggregates the advisor's default candidates;
    // anything else profiles one cluster. Either argument order works.
    let (model, model_name, cluster_spec) = match (args.pos[0].as_str(), args.pos[1].as_str()) {
        ("sweep", name) | (name, "sweep") => (lookup_model(name)?, name, None),
        (first, second) => {
            let (model, name, cluster_spec) = subject(first, second)?;
            (model, name, Some(cluster_spec))
        }
    };
    let batch = args.batch()?;
    let model_slug = model_name.to_lowercase();

    // Everything below runs with self-telemetry on, from a clean
    // registry, against one shared measurement cache (so sweep mode
    // exercises the hit path on repeated reference-instance steps).
    stash::telemetry::enable();
    stash::telemetry::metrics::reset_all();
    let cache = MeasurementCache::new();

    let (scope, what, default_base, snap) = match cluster_spec {
        None => {
            let mut fleet = Snapshot::zero();
            let mut prev = Snapshot::take();
            println!(
                "{:<16} {:>12} {:>12} {:>16}",
                "cluster", "events", "recomputes", "solver p99 ns"
            );
            for cluster in default_candidates() {
                let name = cluster.display_name();
                let stash_p = stash_for(model.clone(), batch);
                if let Err(e) = stash_p.profile_cached(&cluster, &cache) {
                    println!("{name:<16} skipped: {e}");
                    continue;
                }
                let cur = Snapshot::take();
                let delta = cur.since(&prev);
                prev = cur;
                println!(
                    "{:<16} {:>12} {:>12} {:>16}",
                    name,
                    delta.counter("stash_sim_queue_events_popped_total"),
                    delta.counter("stash_sim_solver_full_recomputes_total"),
                    delta
                        .histogram("stash_sim_solver_recompute_latency_ns")
                        .map_or(0, |h| h.quantile(0.99))
                );
                fleet.merge(&delta);
            }
            (
                "sweep",
                format!("sweep {model_slug}"),
                format!("results/telemetry_sweep_{model_slug}"),
                fleet,
            )
        }
        Some(cluster_spec) => {
            let cluster = parse_cluster(cluster_spec)?;
            stash_for(model, batch)
                .profile_cached(&cluster, &cache)
                .map_err(|e| format!("profiling failed: {e}"))?;
            (
                "instance",
                format!("{cluster_spec} {model_slug}"),
                format!("results/telemetry_{}", slug(model_name, cluster_spec)),
                Snapshot::take(),
            )
        }
    };

    if format_csv {
        print!("{}", snap.to_csv());
    } else {
        println!("\nsimulator self-telemetry — {what}:");
        for &(name, v) in &snap.counters {
            println!("  {name:<46} {v:>14}");
        }
        for &(name, v) in &snap.gauges {
            println!("  {name:<46} {v:>14}");
        }
        for (name, h) in &snap.histograms {
            println!(
                "  {name:<46} n={} p50={} ns p99={} ns",
                h.count,
                h.quantile(0.50),
                h.quantile(0.99)
            );
        }
    }

    let out_base = args.value(OUT).map_or(default_base, str::to_string);
    let json_text = serde_json::to_string_pretty(&snap.to_json(scope, &what))
        .map_err(|e| format!("cannot serialize telemetry: {e}"))?;
    let prom_text = snap.render_prom();
    stash::telemetry::prom::validate(&prom_text)
        .map_err(|e| format!("telemetry exposition failed validation: {e}"))?;
    let mut outputs = vec![
        (format!("{out_base}.json"), json_text),
        (format!("{out_base}.prom"), prom_text),
    ];
    if format_csv {
        outputs.push((format!("{out_base}.csv"), snap.to_csv()));
    }
    for (path, text) in &outputs {
        write_creating_dirs(path, text)?;
    }
    let names: Vec<&str> = outputs.iter().map(|(p, _)| p.as_str()).collect();
    println!(
        "\nprom validated — telemetry written to {}",
        names.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

/// A faulted epoch under a seeded or file-provided fault plan, self-checked
/// against the engine, with a JSON resilience report (and, with
/// `--flight`, the engine's last events dumped on failure).
fn cmd_chaos(args: &Args) -> Result<ExitCode, String> {
    use stash::telemetry::flight::{flight_dump, flight_enable, DEFAULT_CAPACITY};

    let (model, model_name, cluster_spec) = subject(&args.pos[0], &args.pos[1])?;
    let cluster = parse_cluster(cluster_spec)?;
    let batch = args.batch()?;
    let seed: u64 = match args.value("--seed") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--seed expects an unsigned integer, got '{v}'"))?,
        None => 42,
    };
    let plan_file = args.value("--plan");
    let out_path = args.value(OUT).map_or_else(
        || {
            let origin = plan_file.map_or_else(|| format!("seed{seed}"), |_| "plan".to_string());
            format!(
                "results/chaos_{}_{origin}.json",
                slug(model_name, cluster_spec)
            )
        },
        str::to_string,
    );

    // Optional flight recorder: keep the tail of the engine's event
    // stream and dump it on failure — typed errors and panics alike —
    // so a broken chaos run leaves behind what the simulator was doing.
    let flight_path = args.value("--flight");
    if let Some(path) = flight_path.map(str::to_string) {
        flight_enable(DEFAULT_CAPACITY);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(dump) = flight_dump() {
                if write_creating_dirs(&path, &dump).is_ok() {
                    eprintln!("flight recording written to {path}");
                }
            }
            prev(info);
        }));
    }

    // A full (factor-1) synthetic window: every accumulator is exact, so
    // the trace must corroborate the engine to the nanosecond.
    let iters: u64 = 16;
    let mut cfg = TrainConfig::synthetic(cluster.clone(), model, batch, batch * iters);
    cfg.epoch_mode = EpochMode::Full;
    cfg.record_trace = true;

    // Everything the flight recorder covers: the runs and their checks.
    let checked_run = || -> Result<(EpochReport, FaultPlan, FaultedRun), String> {
        // Fault-free baseline: the yardstick, and the plan horizon.
        let base = run_epoch(&cfg).map_err(|e| format!("chaos baseline failed: {e}"))?;
        let (world, nodes) = (cluster.world_size(), cluster.node_count());
        let plan = match plan_file {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                FaultPlan::from_json(&text).map_err(|e| format!("{path}: {e}"))?
            }
            None => FaultPlan::seeded(seed, world, nodes, base.epoch_time),
        };
        plan.validate(world, nodes)
            .map_err(|e| format!("fault plan does not fit {cluster_spec}: {e}"))?;

        let (run, events) =
            traced_epoch(&cfg, Some(&plan)).map_err(|e| format!("chaos run failed: {e}"))?;
        let r = &run.report;

        // Self-check: the rank-0 trace lane must reconcile with the engine's
        // accounting exactly, recovery and straggler categories included.
        let path = CriticalPath::from_events(&events, 0, Track::gpu(0, 0));
        for ((what, engine), traced) in engine_accounts(r).into_iter().zip(path_accounts(&path)) {
            if traced != engine {
                return Err(format!(
                    "chaos self-check failed: traced {what} {traced} != engine {engine}"
                ));
            }
        }

        // Optional iteration series: an un-traced series run of the same
        // faulted config must agree with the traced run bit-for-bit (both
        // instrumentation layers are pure observers), and its downsampled
        // totals must reconcile with the report at integer-ns exactness —
        // the sixth leg of the chaos self-check.
        if let Some(spath) = args.value("--series") {
            let (series_run, series) = series_epoch(&cfg, Some(&plan))
                .map_err(|e| format!("chaos series run failed: {e}"))?;
            if series_run != run {
                return Err(
                    "chaos self-check failed: series engine disagrees with the traced run".into(),
                );
            }
            let t = series.totals();
            let totals = [
                t.compute_ns,
                t.data_wait_ns,
                t.comm_wait_ns,
                t.recovery_ns,
                t.straggler_ns,
            ];
            let factor = r.iterations as f64 / r.simulated_iterations as f64;
            for ((what, engine), ns) in engine_accounts(r).into_iter().zip(totals) {
                let ns = u64::try_from(ns)
                    .map_err(|_| format!("chaos series {what} total is negative ({ns})"))?;
                if SimDuration::from_nanos(ns).mul_f64(factor) != engine {
                    return Err(format!(
                        "chaos self-check failed: series {what} does not reconcile with the engine"
                    ));
                }
            }
            let text = serde_json::to_string_pretty(&series_doc(r, &series))
                .map_err(|e| format!("cannot serialize series: {e}"))?;
            write_creating_dirs(spath, &text)?;
            println!(
                "  iteration series ({} buckets, {} fault windows) written to {spath}",
                series.samples.len(),
                series.annotations.len()
            );
        }
        Ok((base, plan, run))
    };
    let (base, plan, run) = checked_run().inspect_err(|_| {
        if let Some(path) = flight_path {
            if let Some(dump) = flight_dump() {
                match write_creating_dirs(path, &dump) {
                    Ok(()) => eprintln!("flight recording written to {path}"),
                    Err(e) => eprintln!("{e}"),
                }
            }
        }
    })?;
    let r = &run.report;

    let slowdown = r.epoch_time.as_secs_f64() / base.epoch_time.as_secs_f64().max(1e-12);
    println!(
        "{} | {} | batch {} x {} GPUs — chaos run ({})",
        r.cluster,
        r.model,
        r.per_gpu_batch,
        base.world,
        plan_file.map_or_else(|| format!("seed {seed}"), str::to_string)
    );
    println!(
        "  baseline epoch {:>12}   faulted epoch {:>12}   slowdown {slowdown:.2}x",
        base.epoch_time.to_string(),
        r.epoch_time.to_string()
    );
    println!(
        "  recovery stall {:>12}   straggler excess {:>12}",
        r.recovery_time.to_string(),
        r.straggler_time.to_string()
    );
    println!(
        "  replayed iterations: {}   straggler detections: {}   dead nodes: {:?}",
        run.faults.replayed_iterations,
        run.faults.detections.len(),
        run.faults.dead_nodes
    );
    println!("  per-event blame:");
    for ev in &run.faults.events {
        println!(
            "    {:<18} at {:>12} fired {:<5} blame {:>12}",
            ev.label,
            ev.at.duration_since(SimTime::ZERO).to_string(),
            ev.fired,
            ev.blame.to_string()
        );
    }

    let doc = serde_json::json!({
        "schema": "stash-resilience-v1",
        "cluster": r.cluster,
        "model": r.model,
        "per_gpu_batch": r.per_gpu_batch,
        "seed": plan_file.is_none().then_some(seed),
        "plan": &plan,
        "baseline": serde_json::json!({
            "epoch_ns": base.epoch_time.as_nanos(),
            "throughput": base.throughput,
            "world": base.world,
            "samples": base.samples,
        }),
        "faulted": serde_json::json!({
            "epoch_ns": r.epoch_time.as_nanos(),
            "compute_ns": r.compute_time.as_nanos(),
            "data_wait_ns": r.data_wait.as_nanos(),
            "comm_wait_ns": r.comm_wait.as_nanos(),
            "recovery_ns": r.recovery_time.as_nanos(),
            "straggler_ns": r.straggler_time.as_nanos(),
            "throughput": r.throughput,
            "world": r.world,
            "samples": r.samples,
        }),
        "slowdown": slowdown,
        "goodput_fraction": r.throughput / base.throughput.max(1e-12),
        "faults": &run.faults,
    });
    let text = serde_json::to_string_pretty(&doc)
        .map_err(|e| format!("cannot serialize resilience report: {e}"))?;
    write_creating_dirs(&out_path, &text)?;
    println!("\nresilience report written to {out_path}");
    Ok(ExitCode::SUCCESS)
}

/// A validated, self-contained fleet stall dashboard over the
/// stash-series-v1 documents in a directory, simulating the default grid
/// into it when it has none.
fn cmd_dash(args: &Args) -> Result<ExitCode, String> {
    use stash::trace::dash::{DashCell, Dashboard};

    let dir = &args.pos[0];
    let out_path = args
        .value(OUT)
        .map_or_else(|| format!("{dir}/dashboard.html"), str::to_string);

    // A result store is not a series directory: refuse loudly instead of
    // simulating a default sweep into it (which would bury series JSON
    // between the records) or silently skipping its binary files.
    let dir_path = Path::new(dir);
    if dir_path.join("records").is_dir() || dir_path.join("journal.log").is_file() {
        return Err(format!(
            "{dir}: this is a stash result store (records/ + journal.log), not a series \
             results directory — inspect it with `stash fsck {dir}` or point dash at a \
             directory of stash-series-v1 JSON documents"
        ));
    }

    // Load every stash-series-v1 document already in the directory
    // (sorted by filename for deterministic cell input order; ordering
    // is then re-normalised by Dashboard::new anyway). Unreadable or
    // non-JSON files are typed errors; valid JSON that is not a series
    // document is skipped with an explicit note.
    let mut cells: Vec<DashCell> = Vec::new();
    if dir_path.is_dir() {
        let entries =
            std::fs::read_dir(dir_path).map_err(|e| format!("cannot read directory {dir}: {e}"))?;
        let mut paths: Vec<std::path::PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let doc = serde_json::from_str::<serde_json::Value>(&text)
                .map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
            if !stash::telemetry::series::is_series_doc(&doc) {
                println!("skipped (not a series document): {}", path.display());
                continue;
            }
            let cell = DashCell::from_doc(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("loaded series: {}", path.display());
            cells.push(cell);
        }
    }

    // Nothing on disk: simulate the default sweep grid and leave the
    // series documents behind so the next `stash dash` is a pure load.
    if cells.is_empty() {
        println!("no series documents in {dir} — simulating the default sweep");
        for cluster_spec in DEFAULT_CLUSTERS {
            let cluster = parse_cluster(cluster_spec)?;
            for model_name in ["ShuffleNet", "ResNet18", "BERT-Large"] {
                let model = lookup_model(model_name)?;
                let batch = if model.name.starts_with("BERT") {
                    4
                } else {
                    32
                };
                let mut cfg = TrainConfig::synthetic(cluster.clone(), model, batch, batch * 64);
                cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
                let cell_err = |e: String| format!("{cluster_spec} {model_name}: {e}");
                let (run, series) =
                    series_epoch(&cfg, None).map_err(|e| cell_err(e.to_string()))?;
                if series.is_empty() {
                    return Err(cell_err("empty series".into()));
                }
                let doc = series_doc(&run.report, &series);
                let cell = DashCell::from_doc(&doc).map_err(cell_err)?;
                let text = serde_json::to_string_pretty(&doc)
                    .map_err(|e| format!("cannot serialize series: {e}"))?;
                let spath = format!("{dir}/series_{}.json", slug(model_name, cluster_spec));
                write_creating_dirs(&spath, &text)?;
                println!("simulated {cluster_spec} x {model_name} -> {spath}");
                cells.push(cell);
            }
        }
    }

    let html = Dashboard::new(cells).to_html();
    let validated =
        Dashboard::validate(&html).map_err(|e| format!("dashboard failed self-validation: {e}"))?;
    write_creating_dirs(&out_path, &html)?;
    println!(
        "dashboard validated ({validated} cell{}) and written to {out_path}",
        if validated == 1 { "" } else { "s" }
    );
    Ok(ExitCode::SUCCESS)
}

/// The record key a quarantine file holds the corpse of, from its
/// `<32 hex>.rec.qN` name.
fn quarantined_record_key(path: &Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    let (stem, _) = name.split_once(".rec")?;
    (stem.len() == 32 && stem.chars().all(|c| c.is_ascii_hexdigit())).then(|| stem.to_string())
}

/// The default grid of `sweep` and of `dash`'s simulated sweep; `sweep`
/// pairs it with CNN-family models so every cell profiles quickly.
const DEFAULT_CLUSTERS: [&str; 3] = ["p3.2xlarge", "p3.8xlarge", "p3.8xlarge*2"];
const SWEEP_MODELS: [&str; 3] = ["ShuffleNet", "ResNet18", "AlexNet"];

/// A durable characterization sweep: consult-first cells against a
/// checksummed result store with a write-ahead journal, optional
/// deterministic I/O fault injection, and exit 2 when cells failed but
/// the sweep finished.
fn cmd_sweep(args: &Args) -> Result<ExitCode, String> {
    let with_usage = |e: String| format!("{e}\n{}", args.usage());
    let store_dir = args.value("--store");
    let resume = args.has("--resume");
    if resume && store_dir.is_none() {
        return Err(with_usage("--resume requires --store DIR".into()));
    }

    // Sampled iterations per cell. A cell's key covers this (it is part
    // of the descriptor), so records computed at different budgets never
    // collide, and resume replays each cell at its journaled budget.
    let sampled_iterations = args.positive("--iters").map_err(with_usage)?.unwrap_or(6);
    let batch = args.batch()?;
    let mut policy = RetryPolicy::default();
    if let Some(n) = args.positive("--retries").map_err(with_usage)? {
        policy.max_attempts = n;
    }
    if let Some(s) = args
        .positive::<u64>("--deadline-secs")
        .map_err(with_usage)?
    {
        policy.deadline_ms = s.saturating_mul(1000);
    }

    // The I/O backend: production StdFs, or deterministic fault
    // injection when a plan (file or seed) is given.
    let fault_plan = match (args.value("--io-fault-plan"), args.value("--io-fault-seed")) {
        (Some(_), Some(_)) => {
            return Err(with_usage(
                "--io-fault-plan and --io-fault-seed are mutually exclusive".into(),
            ))
        }
        (Some(path), None) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let plan = IoFaultPlan::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
            Some((plan, format!("plan file {path}")))
        }
        (None, Some(seed)) => {
            let seed: u64 = seed.parse().map_err(|_| {
                with_usage(format!("--io-fault-seed wants an integer, got '{seed}'"))
            })?;
            Some((IoFaultPlan::seeded(seed), format!("seed {seed}")))
        }
        (None, None) => None,
    };
    if fault_plan.is_some() && store_dir.is_none() {
        return Err(with_usage(
            "I/O fault injection only touches store I/O — add --store DIR".into(),
        ));
    }

    let store = match store_dir {
        Some(dir) => {
            let io: Box<dyn StoreIo> = match fault_plan {
                Some((plan, origin)) => {
                    println!(
                        "sweep: injecting {} planned I/O fault(s) ({origin})",
                        plan.faults.len()
                    );
                    Box::new(FaultFs::new(plan))
                }
                None => Box::new(StdFs::new()),
            };
            Some(ResultStore::open(Path::new(dir), io).map_err(|e| e.to_string())?)
        }
        None => None,
    };

    // The cell list: on --resume, reconstruct it from the journal's plan
    // lines (what the interrupted sweep intended); otherwise build the
    // flag-selected (or default) cluster x model grid.
    let mut jobs: Vec<ProfileJob> = Vec::new();
    if let (true, Some(store)) = (resume, &store) {
        let replay = store
            .journal()
            .replay(store.io())
            .map_err(|e| format!("cannot replay {}: {e}", store.journal().path().display()))?;
        if replay.torn_tail {
            println!(
                "sweep: journal has a torn tail (crash mid-append) — trusting the intact prefix"
            );
        }
        for (key, detail) in &replay.planned_cells() {
            jobs.push(stash::core::sweep::job_from_descriptor(key, detail)?);
        }
        if jobs.is_empty() {
            println!("sweep: journal is empty — running a fresh sweep");
        } else {
            println!("sweep: resuming {} journaled cell(s)", jobs.len());
        }
    }
    if jobs.is_empty() {
        let list = |flag: &str, defaults: &[&str]| -> Vec<String> {
            args.value(flag).map_or_else(
                || defaults.iter().map(|s| (*s).to_string()).collect(),
                |s| {
                    s.split(',')
                        .map(str::trim)
                        .filter(|p| !p.is_empty())
                        .map(String::from)
                        .collect()
                },
            )
        };
        let cluster_specs = list("--clusters", &DEFAULT_CLUSTERS);
        let model_names = list("--models", &SWEEP_MODELS);
        if cluster_specs.is_empty() || model_names.is_empty() {
            return Err(with_usage("empty --clusters/--models list".into()));
        }
        for cluster_spec in &cluster_specs {
            let cluster = parse_cluster(cluster_spec)?;
            for model_name in &model_names {
                jobs.push(ProfileJob {
                    stash: stash_for(lookup_model(model_name)?, batch)
                        .with_sampled_iterations(sampled_iterations)
                        .with_epoch_samples(20_000),
                    cluster: cluster.clone(),
                });
            }
        }
    }

    stash::telemetry::enable();
    let cache = MeasurementCache::new();
    let outcome = stash::core::sweep::run_sweep(&jobs, store.as_ref(), &policy, &cache);

    println!("{:<16} {:<12} {:>6} status", "cluster", "model", "batch");
    for cell in &outcome.cells {
        println!(
            "{:<16} {:<12} {:>6} {}",
            cell.cluster,
            cell.model,
            cell.per_gpu_batch,
            cell.status.code()
        );
    }
    println!(
        "sweep: {} computed, {} resumed, {} failed",
        outcome.computed(),
        outcome.resumed(),
        outcome.failed()
    );

    let out_path = args.value("--out").map_or_else(
        || {
            store_dir.map_or_else(
                || "results/sweep.csv".into(),
                |dir| format!("{dir}/results.csv"),
            )
        },
        str::to_string,
    );
    write_creating_dirs(&out_path, &outcome.results_csv())?;
    println!("results written to {out_path}");

    if outcome.failed() > 0 {
        eprintln!(
            "sweep finished with {} failed cell(s) — see the status column in {out_path}",
            outcome.failed()
        );
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}

/// Verifies every store record's frame and quarantines corrupt ones;
/// `--repair` rebuilds them from the journal. Exit 2 when corruption
/// remains.
fn cmd_fsck(args: &Args) -> Result<ExitCode, String> {
    let dir = &args.pos[0];
    if !Path::new(dir).is_dir() {
        return Err(format!(
            "{dir}: not a directory (fsck wants an existing stash result store)"
        ));
    }
    let store =
        ResultStore::open(Path::new(dir), Box::new(StdFs::new())).map_err(|e| e.to_string())?;
    let report = store.fsck().map_err(|e| e.to_string())?;
    println!(
        "fsck {dir}: {} record(s) scanned, {} ok, {} issue(s)",
        report.scanned,
        report.ok,
        report.issues.len()
    );
    for issue in &report.issues {
        println!("  {issue}");
    }
    // The rebuild worklist: keys quarantined by this scan plus keys a
    // *previous* scan quarantined (their bytes still sit in quarantine/
    // and their record is gone), minus anything that verifies clean now.
    let mut needs_rebuild: std::collections::BTreeSet<String> =
        report.quarantined_keys().into_iter().collect();
    let quarantined = store
        .io()
        .list(&store.quarantine_dir())
        .map_err(|e| format!("cannot list {}: {e}", store.quarantine_dir().display()))?;
    needs_rebuild.extend(quarantined.iter().filter_map(|f| quarantined_record_key(f)));
    needs_rebuild.retain(|key| {
        stash::store::parse_key_hex(key).is_none_or(|k| !matches!(store.get(k), Ok(Fetch::Hit(_))))
    });
    if needs_rebuild.is_empty() {
        println!("store verifies clean");
        return Ok(ExitCode::SUCCESS);
    }
    if !args.has("--repair") {
        eprintln!(
            "{} corrupt record(s) in quarantine — re-run with --repair to rebuild them \
             from the journal",
            needs_rebuild.len()
        );
        return Ok(ExitCode::from(2));
    }

    // Repair: re-run the quarantined cells from their journal plans; the
    // engine is deterministic, so a rebuilt record is byte-identical to
    // the one the corruption destroyed.
    let replay = store
        .journal()
        .replay(store.io())
        .map_err(|e| format!("cannot replay {}: {e}", store.journal().path().display()))?;
    let mut jobs: Vec<ProfileJob> = Vec::new();
    for key in &needs_rebuild {
        let Some(detail) = replay.plan_for(key) else {
            eprintln!("cannot rebuild {key}: no journal plan for it");
            continue;
        };
        match stash::core::sweep::job_from_descriptor(key, detail) {
            Ok(job) => jobs.push(job),
            Err(e) => eprintln!("cannot rebuild: {e}"),
        }
    }
    let cache = MeasurementCache::new();
    let policy = RetryPolicy::default();
    let outcome = stash::core::sweep::run_sweep(&jobs, Some(&store), &policy, &cache);
    for cell in &outcome.cells {
        match &cell.status {
            CellStatus::Failed(reason) => {
                eprintln!("rebuild of {} failed: {reason}", cell.key);
            }
            _ => println!(
                "rebuilt {} ({} x {}, b{})",
                cell.key, cell.cluster, cell.model, cell.per_gpu_batch
            ),
        }
    }
    // Every quarantined key must now fetch as a verified hit; this loop
    // is the sole arbiter of repair success.
    let mut unrepaired = 0usize;
    for key in &needs_rebuild {
        let failure = match stash::store::parse_key_hex(key).map(|k| store.get(k)) {
            Some(Ok(Fetch::Hit(_))) => continue,
            Some(Ok(_)) => format!("rebuild of {key} did not verify"),
            Some(Err(e)) => e.to_string(),
            None => format!("rebuild of {key} failed: not a valid record key"),
        };
        eprintln!("{failure}");
        unrepaired += 1;
    }
    if unrepaired > 0 {
        eprintln!("{unrepaired} record(s) remain unrepaired");
        return Ok(ExitCode::from(2));
    }
    println!("repair complete: store verifies clean");
    Ok(ExitCode::SUCCESS)
}

/// The top-level help: every command's usage line.
fn help() -> String {
    let lines: Vec<&str> = COMMANDS.iter().map(|c| c.usage).collect();
    format!(
        "stash — DDL stall profiler (ICDCS'23 reproduction)\n\nusage:\n  {}\n\n\
         clusters: p3.16xlarge, p3.8xlarge*2, ...",
        lines.join("\n  ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name() == name))
    {
        // Every command that profiles fans out to this many workers; an
        // unreadable count is refused up front, whatever the command.
        Some(cmd) => threads_setting()
            .and_then(|_| Args::parse(cmd, &raw[1..]))
            .and_then(|args| (cmd.run)(&args)),
        None => Err(help()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}
