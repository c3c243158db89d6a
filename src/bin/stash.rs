//! `stash` — the command-line profiler.
//!
//! ```text
//! stash catalog                          list the AWS instance catalog
//! stash models                           list the model zoo
//! stash profile <model> <cluster> [-b N] run the 5-step methodology
//! stash advise <model> [-b N] [--cost]   rank all candidate clusters
//! stash probe <instance>                 per-GPU PCIe bandwidth probe
//! stash trace <instance> <model>         traced epoch + Chrome trace JSON
//!             [--out PATH] [-b N]        (either argument order works)
//! stash report <instance> <model>        critical-path stall report:
//!             [--out PATH] [-b N]        self-contained HTML + JSON
//! stash diff <baseline.json> <cur.json>  flag per-category stall (or, for
//!             [--threshold FRAC]         telemetry docs, simulator-health)
//!                                        regressions (non-zero exit)
//! stash chaos <instance> <model>         faulted epoch under a seeded or
//!             [--seed N] [--plan FILE]   file-provided fault plan, with a
//!             [--out PATH] [-b N]        JSON resilience report
//!             [--flight PATH]            (+ last-events flight recording
//!                                        dumped to PATH on failure)
//! stash perf <cluster|sweep> <model>     simulator self-telemetry for one
//!             [-b N] [--out BASE]        profile or a candidate sweep:
//!             [--format csv]             BASE.json + BASE.prom
//!                                        (+ BASE.csv with --format csv)
//! stash dash <results-dir>               fleet stall dashboard from the
//!             [--out PATH]               stash-series-v1 docs in the dir
//!                                        (simulates a default sweep when
//!                                        the dir has none), validated
//!                                        self-contained HTML
//! stash sweep [--models A,B]             durable characterization sweep:
//!             [--clusters X,Y] [-b N]    consult-first cells against a
//!             [--iters N]                checksummed result store with a
//!             [--store DIR] [--resume]   write-ahead journal; exit 2 when
//!             [--out CSV]                cells failed but the sweep
//!             [--io-fault-plan FILE]     finished (graceful degradation);
//!             [--io-fault-seed N]        deterministic I/O fault
//!             [--retries N]              injection for crash drills
//!             [--deadline-secs S]
//! stash fsck <store-dir> [--repair]      verify every store record's
//!                                        frame; quarantine corrupt ones
//!                                        and (with --repair) rebuild them
//!                                        from the journal, exit 2 when
//!                                        corruption remains
//! ```
//!
//! Cluster syntax matches the paper: `p3.16xlarge` or `p3.8xlarge*2`.

use std::process::ExitCode;

use stash::prelude::*;

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

/// The `-b/--batch` value: 32 when the flag is absent, otherwise a
/// positive integer. Anything else prints a usage error and yields `None`.
fn parse_batch(args: &[String]) -> Option<u64> {
    let Some(i) = args.iter().position(|a| a == "-b" || a == "--batch") else {
        return Some(32);
    };
    let v = args.get(i + 1).map_or("", String::as_str);
    match v.parse::<u64>() {
        Ok(b) if b >= 1 => Some(b),
        _ => {
            eprintln!("-b/--batch wants a positive integer, got '{v}'");
            None
        }
    }
}

fn stash_for(model: Model, batch: u64) -> Stash {
    let dataset = if model.name.starts_with("BERT") {
        DatasetSpec::squad2()
    } else {
        DatasetSpec::imagenet1k()
    };
    Stash::new(model).with_batch(batch).with_dataset(dataset)
}

fn cmd_catalog() -> ExitCode {
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
    ExitCode::SUCCESS
}

fn cmd_models() -> ExitCode {
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
    ExitCode::SUCCESS
}

fn cmd_profile(args: &[String]) -> ExitCode {
    let (Some(model_name), Some(cluster_spec)) = (args.first(), args.get(1)) else {
        eprintln!("usage: stash profile <model> <cluster> [-b batch]");
        return ExitCode::FAILURE;
    };
    let model = match lookup_model(model_name) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cluster = match parse_cluster(cluster_spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(batch) = parse_batch(args) else {
        return ExitCode::FAILURE;
    };
    match stash_for(model, batch).profile(&cluster) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("profiling failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_advise(args: &[String]) -> ExitCode {
    let Some(model_name) = args.first() else {
        eprintln!("usage: stash advise <model> [-b batch] [--cost|--time]");
        return ExitCode::FAILURE;
    };
    let model = match lookup_model(model_name) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let objective = if args.iter().any(|a| a == "--time") {
        Objective::Time
    } else {
        Objective::Cost
    };
    let Some(batch) = parse_batch(args) else {
        return ExitCode::FAILURE;
    };
    let stash = stash_for(model, batch);
    match recommend(&stash, &default_candidates(), objective) {
        Ok(advice) => {
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
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("advisor failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_probe(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        eprintln!("usage: stash probe <instance>");
        return ExitCode::FAILURE;
    };
    let Some(inst) = by_name(name) else {
        let cat = catalog();
        match nearest(name, cat.iter().map(|i| i.name.as_str())) {
            Some(s) => eprintln!("unknown instance '{name}' — did you mean '{s}'?"),
            None => eprintln!("unknown instance '{name}' (try `stash catalog`)"),
        }
        return ExitCode::FAILURE;
    };
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
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String]) -> ExitCode {
    use std::cell::RefCell;
    use std::rc::Rc;

    let (Some(first), Some(second)) = (args.first(), args.get(1)) else {
        eprintln!("usage: stash trace <instance> <model> [--out PATH] [-b batch]");
        return ExitCode::FAILURE;
    };
    // Accept either argument order: `trace p3.2xlarge resnet50` (the
    // paper's instance-first habit) or `trace resnet50 p3.8xlarge*2`.
    let (model_name, cluster_spec) = if zoo::by_name(first).is_some() {
        (first, second)
    } else {
        (second, first)
    };
    let model = match lookup_model(model_name) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cluster = match parse_cluster(cluster_spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out" || a == "-o")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            format!(
                "results/trace_{}_{}.json",
                model_name.to_lowercase(),
                cluster_spec.replace('*', "x")
            )
        });

    let Some(batch) = parse_batch(args) else {
        return ExitCode::FAILURE;
    };
    // Real warm-cache data so the trace shows the full pipeline: fetch,
    // prep, H2D upload, compute and all-reduce on their own tracks.
    let dataset = if model.name.starts_with("BERT") {
        DatasetSpec::squad2()
    } else {
        DatasetSpec::imagenet1k()
    };
    let mut cfg = TrainConfig::synthetic(cluster, model, batch, batch * 12);
    cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
    cfg.record_trace = true;
    cfg.data = DataMode::Real {
        dataset,
        cache: CacheState::Warm,
    };

    let sink = Rc::new(RefCell::new(JsonSink::new()));
    let tracer = shared(Tracer::new(sink.clone()));
    let r = match run_epoch_traced(&cfg, &tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace failed: {e}");
            return ExitCode::FAILURE;
        }
    };

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

    let events = sink.borrow().events().to_vec();
    let rollup = StallRollup::from_events(&events);
    println!(
        "\nper-category traced span time (raw, {} simulated iterations):",
        r.simulated_iterations
    );
    for (kind, category, total) in rollup.kind_totals() {
        println!("  {:<9} {:<13} {}", kind.label(), category.label(), total);
    }
    print!("\n{}", stash::trace::metrics::render_rollup(&rollup, None));

    let json = stash::trace::chrome::export(&events);
    let text = match serde_json::to_string_pretty(&json) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot serialize trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, &text) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    match stash::trace::chrome::validate(&text) {
        Ok(stats) => {
            println!(
                "\ntrace validated: {} spans / {} instants / {} counters on {} tracks (max depth {})",
                stats.spans, stats.instants, stats.counters, stats.tracks, stats.max_depth
            );
            println!("chrome trace written to {out_path} (open in chrome://tracing or Perfetto)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("exported trace failed validation: {e}");
            ExitCode::FAILURE
        }
    }
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

fn write_creating_dirs(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs one traced window of `cfg` and returns the epoch report plus the
/// rank-0 critical-path decomposition of the raw trace.
fn traced_critical_path(cfg: &TrainConfig) -> Result<(EpochReport, CriticalPath), String> {
    use std::cell::RefCell;
    use std::rc::Rc;

    let sink = Rc::new(RefCell::new(JsonSink::new()));
    let tracer = shared(Tracer::new(sink.clone()));
    let r = run_epoch_traced(cfg, &tracer).map_err(|e| e.to_string())?;
    let events = sink.borrow().events().to_vec();
    let path = CriticalPath::from_events(&events, 0, Track::gpu(0, 0));
    Ok((r, path))
}

/// Runs one iteration-series pass of `cfg` (telemetry switched on for
/// the duration) and returns the run's `stash-series-v1` document, or
/// `None` when the run produced no samples. The series engine is a pure
/// observer, so this never disagrees with a plain run of the same
/// config — the zoo-wide differential test proves bit-identity.
fn run_series(
    cfg: &TrainConfig,
    plan: Option<&FaultPlan>,
) -> Result<Option<serde_json::Value>, String> {
    let was_enabled = stash::telemetry::enabled();
    stash::telemetry::enable();
    let out = run_epoch_series(cfg, &EngineOptions { fast_forward: true }, plan);
    if !was_enabled {
        stash::telemetry::disable();
    }
    let sr = out.map_err(|e| e.to_string())?;
    if sr.series.is_empty() {
        return Ok(None);
    }
    let r = &sr.run.report;
    let meta = stash::telemetry::series::SeriesMeta {
        cluster: r.cluster.clone(),
        model: r.model.clone(),
        world: r.world as u64,
        per_gpu_batch: r.per_gpu_batch,
        iterations: r.iterations,
        simulated_iterations: r.simulated_iterations,
    };
    Ok(Some(sr.series.to_json(&meta)))
}

fn cmd_report(args: &[String]) -> ExitCode {
    use stash::trace::report::BlameRow;

    let (Some(first), Some(second)) = (args.first(), args.get(1)) else {
        eprintln!("usage: stash report <instance> <model> [--out PATH] [-b batch]");
        return ExitCode::FAILURE;
    };
    // Either argument order, like `stash trace`.
    let (model_name, cluster_spec) = if zoo::by_name(first).is_some() {
        (first, second)
    } else {
        (second, first)
    };
    let model = match lookup_model(model_name) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cluster = match parse_cluster(cluster_spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let out_base = args
        .iter()
        .position(|a| a == "--out" || a == "-o")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            format!(
                "results/report_{}_{}",
                model_name.to_lowercase(),
                cluster_spec.replace('*', "x")
            )
        });
    let (html_path, json_path) = report_paths(&out_base);

    let Some(batch) = parse_batch(args) else {
        return ExitCode::FAILURE;
    };
    let dataset = if model.name.starts_with("BERT") {
        DatasetSpec::squad2()
    } else {
        DatasetSpec::imagenet1k()
    };
    let mut cfg = TrainConfig::synthetic(cluster.clone(), model, batch, batch * 12);
    cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
    cfg.record_trace = true;
    cfg.data = DataMode::Real {
        dataset,
        cache: CacheState::Warm,
    };

    let (r, path) = match traced_critical_path(&cfg) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("report failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let factor = r.iterations as f64 / r.simulated_iterations as f64;

    // The critical path must balance the engine's own accounting exactly:
    // the raw per-category sums, extrapolated with the same mul_f64 the
    // report used, land on the EpochReport fields to the nanosecond.
    let raw = |cats: &[PathCategory]| {
        SimDuration::from_nanos(cats.iter().map(|&c| path.total_ns(c)).sum::<u64>())
    };
    let checks = [
        (
            "compute",
            raw(&[PathCategory::Compute, PathCategory::Overlap]),
            r.compute_time,
        ),
        (
            "data-wait",
            raw(&[PathCategory::Prep, PathCategory::Fetch]),
            r.data_wait,
        ),
        (
            "comm-wait",
            raw(&[PathCategory::Interconnect, PathCategory::Network]),
            r.comm_wait,
        ),
    ];
    println!(
        "{} | {} | batch {} x {} GPUs — critical-path reconciliation",
        r.cluster, r.model, r.per_gpu_batch, r.world
    );
    for (what, traced, engine) in checks {
        let scaled = traced.mul_f64(factor);
        println!("  {what:<9} trace {scaled:>12}  engine {engine:>12}");
        if scaled != engine {
            eprintln!("critical path does not reconcile with the engine's {what} accounting");
            return ExitCode::FAILURE;
        }
    }

    let mut report = InsightReport::from_path(&r.cluster, &r.model, r.world, factor, &path);
    report.epoch_ns = r.epoch_time.as_nanos();
    report.engine_compute_ns = r.compute_time.as_nanos();
    report.engine_data_wait_ns = r.data_wait.as_nanos();
    report.engine_comm_wait_ns = r.comm_wait.as_nanos();
    report.series = match run_series(&cfg, None) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("report failed: {e}");
            return ExitCode::FAILURE;
        }
    };
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
        report.whatif.push(stash::trace::report::WhatIfRow {
            resource: res.label().to_string(),
            factor: 2.0,
            projected_wall_ns: projected,
            resim_wall_ns: resim,
        });
    }

    let json_text = match serde_json::to_string_pretty(&report.to_json()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot serialize report: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (path, text) in [(&json_path, &json_text), (&html_path, &report.to_html())] {
        if let Err(e) = write_creating_dirs(path, text) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "\nreport written to {html_path} (open in any browser) and {json_path} (for `stash diff`)"
    );
    ExitCode::SUCCESS
}

fn cmd_diff(args: &[String]) -> ExitCode {
    use stash::trace::report::{diff, InsightReport, DEFAULT_DIFF_THRESHOLD};

    let (Some(base_path), Some(cur_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: stash diff <baseline.json> <current.json> [--threshold FRAC]");
        return ExitCode::FAILURE;
    };
    let threshold = match args
        .iter()
        .position(|a| a == "--threshold" || a == "-t")
        .map(|i| args.get(i + 1).map_or("", String::as_str))
    {
        None => DEFAULT_DIFF_THRESHOLD,
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t.is_finite() && t >= 0.0 => t,
            _ => {
                eprintln!(
                    "--threshold wants a finite, non-negative fraction, got '{v}'\n\
                     usage: stash diff <baseline.json> <current.json> [--threshold FRAC]"
                );
                return ExitCode::FAILURE;
            }
        },
    };
    let load_doc = |path: &str| -> Result<serde_json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
    };
    let (base_doc, cur_doc) = match (load_doc(base_path), load_doc(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    // Series documents get the iteration-dynamics gates (CoV, transient
    // spikes); telemetry documents the simulator-health gates; stall
    // reports the per-category workload gates. Mixing kinds is an error.
    let series = (
        stash::telemetry::series::is_series_doc(&base_doc),
        stash::telemetry::series::is_series_doc(&cur_doc),
    );
    match series {
        (true, true) => {
            let d = match stash::telemetry::series::diff_docs(&base_doc, &cur_doc) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            for note in &d.notes {
                println!("  {note}");
            }
            if d.is_clean() {
                println!("no iteration-dynamics regressions: {base_path} vs {cur_path}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{} iteration-dynamics regression(s):", d.regressions.len());
            for reg in &d.regressions {
                eprintln!("  {reg}");
            }
            return ExitCode::FAILURE;
        }
        (true, false) | (false, true) => {
            eprintln!(
                "cannot diff a series document against a non-series document \
                 ({base_path} vs {cur_path})"
            );
            return ExitCode::FAILURE;
        }
        (false, false) => {}
    }

    // Telemetry documents get the simulator-health gates; stall reports
    // get the per-category workload gates. Mixing the two is an error.
    let telemetry = (
        stash::telemetry::diff::is_telemetry_doc(&base_doc),
        stash::telemetry::diff::is_telemetry_doc(&cur_doc),
    );
    match telemetry {
        (true, true) => {
            let d = match stash::telemetry::diff::diff_docs(&base_doc, &cur_doc) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            for note in &d.notes {
                println!("  {note}");
            }
            if d.is_clean() {
                println!("no simulator-health regressions: {base_path} vs {cur_path}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{} simulator-health regression(s):", d.regressions.len());
            for reg in &d.regressions {
                eprintln!("  {reg}");
            }
            return ExitCode::FAILURE;
        }
        (true, false) | (false, true) => {
            eprintln!(
                "cannot diff a telemetry document against a stall report \
                 ({base_path} vs {cur_path})"
            );
            return ExitCode::FAILURE;
        }
        (false, false) => {}
    }

    let load = |path: &str, doc: &serde_json::Value| -> Result<InsightReport, String> {
        InsightReport::from_json(doc).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, current) = match (load(base_path, &base_doc), load(cur_path, &cur_doc)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
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
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "{} stall regression(s) beyond {:.0}%:",
        regs.len(),
        threshold * 100.0
    );
    for reg in &regs {
        eprintln!(
            "  {:<13} {:>14} ns -> {:>14} ns  ({:.2}x)",
            reg.category, reg.baseline_ns, reg.current_ns, reg.ratio
        );
    }
    ExitCode::FAILURE
}

fn cmd_perf(args: &[String]) -> ExitCode {
    use stash::telemetry::snapshot::Snapshot;

    let (Some(first), Some(second)) = (args.first(), args.get(1)) else {
        eprintln!(
            "usage: stash perf <cluster|sweep> <model> [-b batch] [--out BASE] [--format csv]"
        );
        return ExitCode::FAILURE;
    };
    let format_csv = match args
        .iter()
        .position(|a| a == "--format" || a == "-f")
        .map(|i| args.get(i + 1))
    {
        None => false,
        Some(Some(v)) if v == "csv" => true,
        Some(Some(v)) if v == "table" => false,
        Some(v) => {
            eprintln!(
                "--format expects 'csv' or 'table', got '{}'",
                v.map(String::as_str).unwrap_or("")
            );
            return ExitCode::FAILURE;
        }
    };
    // `perf sweep <model>` aggregates the advisor's default candidates;
    // anything else profiles one cluster. Either argument order works.
    let sweep = first == "sweep" || second == "sweep";
    let model_name = if sweep {
        if first == "sweep" {
            second
        } else {
            first
        }
    } else if zoo::by_name(first).is_some() {
        first
    } else {
        second
    };
    let model = match lookup_model(model_name) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(batch) = parse_batch(args) else {
        return ExitCode::FAILURE;
    };
    let model_slug = model_name.to_lowercase();

    // Everything below runs with self-telemetry on, from a clean
    // registry, against one shared measurement cache (so sweep mode
    // exercises the hit path on repeated reference-instance steps).
    stash::telemetry::enable();
    stash::telemetry::metrics::reset_all();
    let cache = MeasurementCache::new();

    let (scope, subject, default_base, snap) = if sweep {
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
    } else {
        let cluster_spec = if model_name == first { second } else { first };
        let cluster = match parse_cluster(cluster_spec) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = stash_for(model.clone(), batch).profile_cached(&cluster, &cache) {
            eprintln!("profiling failed: {e}");
            return ExitCode::FAILURE;
        }
        (
            "instance",
            format!("{cluster_spec} {model_slug}"),
            format!(
                "results/telemetry_{model_slug}_{}",
                cluster_spec.replace('*', "x")
            ),
            Snapshot::take(),
        )
    };

    if format_csv {
        print!("{}", snap.to_csv());
    } else {
        println!("\nsimulator self-telemetry — {subject}:");
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

    let out_base = args
        .iter()
        .position(|a| a == "--out" || a == "-o")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or(default_base);
    let json_path = format!("{out_base}.json");
    let prom_path = format!("{out_base}.prom");
    let json_text = match serde_json::to_string_pretty(&snap.to_json(scope, &subject)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot serialize telemetry: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prom_text = snap.render_prom();
    if let Err(e) = stash::telemetry::prom::validate(&prom_text) {
        eprintln!("telemetry exposition failed validation: {e}");
        return ExitCode::FAILURE;
    }
    let mut outputs = vec![
        (json_path.clone(), json_text),
        (prom_path.clone(), prom_text),
    ];
    if format_csv {
        outputs.push((format!("{out_base}.csv"), snap.to_csv()));
    }
    for (path, text) in &outputs {
        if let Err(e) = write_creating_dirs(path, text) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let names: Vec<&str> = outputs.iter().map(|(p, _)| p.as_str()).collect();
    println!(
        "\nprom validated — telemetry written to {}",
        names.join(", ")
    );
    ExitCode::SUCCESS
}

fn cmd_chaos(args: &[String]) -> ExitCode {
    use std::cell::RefCell;
    use std::rc::Rc;

    let (Some(first), Some(second)) = (args.first(), args.get(1)) else {
        eprintln!(
            "usage: stash chaos <instance> <model> [--seed N] [--plan FILE] [--out PATH] [--series PATH] [-b batch]"
        );
        return ExitCode::FAILURE;
    };
    // Either argument order, like `stash trace`.
    let (model_name, cluster_spec) = if zoo::by_name(first).is_some() {
        (first, second)
    } else {
        (second, first)
    };
    let model = match lookup_model(model_name) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cluster = match parse_cluster(cluster_spec) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(batch) = parse_batch(args) else {
        return ExitCode::FAILURE;
    };
    let seed: u64 = match args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
    {
        Some(v) => match v.parse() {
            Ok(s) => s,
            Err(_) => {
                eprintln!("--seed expects an unsigned integer, got '{v}'");
                return ExitCode::FAILURE;
            }
        },
        None => 42,
    };
    let plan_file = args
        .iter()
        .position(|a| a == "--plan")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let out_path = args
        .iter()
        .position(|a| a == "--out" || a == "-o")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            format!(
                "results/chaos_{}_{}_{}.json",
                model_name.to_lowercase(),
                cluster_spec.replace('*', "x"),
                if plan_file.is_some() {
                    "plan".to_string()
                } else {
                    format!("seed{seed}")
                }
            )
        });

    // Optional flight recorder: keep the tail of the engine's event
    // stream and dump it on failure — typed errors and panics alike —
    // so a broken chaos run leaves behind what the simulator was doing.
    let flight_path = args
        .iter()
        .position(|a| a == "--flight")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let series_path = args
        .iter()
        .position(|a| a == "--series")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if let Some(path) = flight_path.clone() {
        stash::telemetry::flight::flight_enable(stash::telemetry::flight::DEFAULT_CAPACITY);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if let Some(dump) = stash::telemetry::flight::flight_dump() {
                if write_creating_dirs(&path, &dump).is_ok() {
                    eprintln!("flight recording written to {path}");
                }
            }
            prev(info);
        }));
    }
    let flight_fail = |msg: String| -> ExitCode {
        if let Some(path) = &flight_path {
            if let Some(dump) = stash::telemetry::flight::flight_dump() {
                match write_creating_dirs(path, &dump) {
                    Ok(()) => eprintln!("flight recording written to {path}"),
                    Err(e) => eprintln!("{e}"),
                }
            }
        }
        eprintln!("{msg}");
        ExitCode::FAILURE
    };

    // A full (factor-1) synthetic window: every accumulator is exact, so
    // the trace must corroborate the engine to the nanosecond.
    let iters: u64 = 16;
    let mut cfg = TrainConfig::synthetic(cluster.clone(), model, batch, batch * iters);
    cfg.epoch_mode = EpochMode::Full;
    cfg.record_trace = true;

    // Fault-free baseline: the yardstick, and the plan horizon.
    let base = match run_epoch(&cfg) {
        Ok(r) => r,
        Err(e) => return flight_fail(format!("chaos baseline failed: {e}")),
    };

    let (world, nodes) = (cluster.world_size(), cluster.node_count());
    let plan = match &plan_file {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return flight_fail(format!("cannot read {path}: {e}")),
            };
            match FaultPlan::from_json(&text) {
                Ok(p) => p,
                Err(e) => return flight_fail(format!("{path}: {e}")),
            }
        }
        None => FaultPlan::seeded(seed, world, nodes, base.epoch_time),
    };
    if let Err(e) = plan.validate(world, nodes) {
        return flight_fail(format!("fault plan does not fit {cluster_spec}: {e}"));
    }

    let sink = Rc::new(RefCell::new(JsonSink::new()));
    let tracer = shared(Tracer::new(sink.clone()));
    let run = match run_epoch_faulted_traced(&cfg, &plan, &tracer) {
        Ok(r) => r,
        Err(e) => return flight_fail(format!("chaos run failed: {e}")),
    };
    let r = &run.report;

    // Self-check: the rank-0 trace lane must reconcile with the engine's
    // accounting exactly, recovery and straggler categories included.
    let events = sink.borrow().events().to_vec();
    let path = CriticalPath::from_events(&events, 0, Track::gpu(0, 0));
    let raw = |cats: &[PathCategory]| {
        SimDuration::from_nanos(cats.iter().map(|&c| path.total_ns(c)).sum::<u64>())
    };
    let checks = [
        (
            "compute",
            raw(&[PathCategory::Compute, PathCategory::Overlap]),
            r.compute_time,
        ),
        (
            "data-wait",
            raw(&[PathCategory::Prep, PathCategory::Fetch]),
            r.data_wait,
        ),
        (
            "comm-wait",
            raw(&[PathCategory::Interconnect, PathCategory::Network]),
            r.comm_wait,
        ),
        ("recovery", raw(&[PathCategory::Recovery]), r.recovery_time),
        (
            "straggler",
            raw(&[PathCategory::Straggler]),
            r.straggler_time,
        ),
    ];
    for (what, traced, engine) in checks {
        if traced != engine {
            return flight_fail(format!(
                "chaos self-check failed: traced {what} {traced} != engine {engine}"
            ));
        }
    }

    // Optional iteration series: an un-traced series run of the same
    // faulted config must agree with the traced run bit-for-bit (both
    // instrumentation layers are pure observers), and its downsampled
    // totals must reconcile with the report at integer-ns exactness —
    // the sixth leg of the chaos self-check.
    if let Some(spath) = &series_path {
        let was_enabled = stash::telemetry::enabled();
        stash::telemetry::enable();
        let sr = run_epoch_series(&cfg, &EngineOptions { fast_forward: true }, Some(&plan));
        if !was_enabled {
            stash::telemetry::disable();
        }
        let sr = match sr {
            Ok(sr) => sr,
            Err(e) => return flight_fail(format!("chaos series run failed: {e}")),
        };
        if sr.run != run {
            return flight_fail(
                "chaos self-check failed: series engine disagrees with the traced run".to_string(),
            );
        }
        let t = sr.series.totals();
        let factor = r.iterations as f64 / r.simulated_iterations as f64;
        let series_checks = [
            ("compute", t.compute_ns, r.compute_time),
            ("data-wait", t.data_wait_ns, r.data_wait),
            ("comm-wait", t.comm_wait_ns, r.comm_wait),
            ("recovery", t.recovery_ns, r.recovery_time),
            ("straggler", t.straggler_ns, r.straggler_time),
        ];
        for (what, ns, engine) in series_checks {
            let Ok(ns) = u64::try_from(ns) else {
                return flight_fail(format!("chaos series {what} total is negative ({ns})"));
            };
            if SimDuration::from_nanos(ns).mul_f64(factor) != engine {
                return flight_fail(format!(
                    "chaos self-check failed: series {what} does not reconcile with the engine"
                ));
            }
        }
        let meta = stash::telemetry::series::SeriesMeta {
            cluster: r.cluster.clone(),
            model: r.model.clone(),
            world: r.world as u64,
            per_gpu_batch: r.per_gpu_batch,
            iterations: r.iterations,
            simulated_iterations: r.simulated_iterations,
        };
        let text = match serde_json::to_string_pretty(&sr.series.to_json(&meta)) {
            Ok(t) => t,
            Err(e) => return flight_fail(format!("cannot serialize series: {e}")),
        };
        if let Err(e) = write_creating_dirs(spath, &text) {
            return flight_fail(e);
        }
        println!(
            "  iteration series ({} buckets, {} fault windows) written to {spath}",
            sr.series.samples.len(),
            sr.series.annotations.len()
        );
    }

    let slowdown = r.epoch_time.as_secs_f64() / base.epoch_time.as_secs_f64().max(1e-12);
    println!(
        "{} | {} | batch {} x {} GPUs — chaos run ({})",
        r.cluster,
        r.model,
        r.per_gpu_batch,
        base.world,
        plan_file
            .as_deref()
            .map_or_else(|| format!("seed {seed}"), str::to_string)
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
    let text = match serde_json::to_string_pretty(&doc) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot serialize resilience report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_creating_dirs(&out_path, &text) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    println!("\nresilience report written to {out_path}");
    ExitCode::SUCCESS
}

fn cmd_dash(args: &[String]) -> ExitCode {
    use stash::trace::dash::{DashCell, Dashboard};

    let Some(dir) = args.first() else {
        eprintln!("usage: stash dash <results-dir> [--out PATH] [-b batch]");
        return ExitCode::FAILURE;
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out" || a == "-o")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("{dir}/dashboard.html"));

    // A result store is not a series directory: refuse loudly instead of
    // simulating a default sweep into it (which would bury series JSON
    // between the records) or silently skipping its binary files.
    let dir_path = std::path::Path::new(dir);
    if dir_path.join("records").is_dir() || dir_path.join("journal.log").is_file() {
        eprintln!(
            "{dir}: this is a stash result store (records/ + journal.log), not a series \
             results directory — inspect it with `stash fsck {dir}` or point dash at a \
             directory of stash-series-v1 JSON documents"
        );
        return ExitCode::FAILURE;
    }

    // Load every stash-series-v1 document already in the directory
    // (sorted by filename for deterministic cell input order; ordering
    // is then re-normalised by Dashboard::new anyway). Unreadable or
    // non-JSON files are typed errors; valid JSON that is not a series
    // document is skipped with an explicit note.
    let mut cells: Vec<DashCell> = Vec::new();
    if dir_path.is_dir() {
        let entries = match std::fs::read_dir(dir_path) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("cannot read directory {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut paths: Vec<std::path::PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            let doc = match serde_json::from_str::<serde_json::Value>(&text) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("{}: invalid JSON: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            if !stash::telemetry::series::is_series_doc(&doc) {
                println!("skipped (not a series document): {}", path.display());
                continue;
            }
            match DashCell::from_doc(&doc) {
                Ok(cell) => {
                    println!("loaded series: {}", path.display());
                    cells.push(cell);
                }
                Err(e) => {
                    eprintln!("{}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    // Nothing on disk: simulate the default sweep grid and leave the
    // series documents behind so the next `stash dash` is a pure load.
    if cells.is_empty() {
        println!("no series documents in {dir} — simulating the default sweep");
        let grid_clusters = ["p3.2xlarge", "p3.8xlarge", "p3.8xlarge*2"];
        let grid_models = ["ShuffleNet", "ResNet18", "BERT-Large"];
        for cluster_spec in grid_clusters {
            let cluster = match parse_cluster(cluster_spec) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            for model_name in grid_models {
                let model = match lookup_model(model_name) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                let batch = if model.name.starts_with("BERT") {
                    4
                } else {
                    32
                };
                let mut cfg = TrainConfig::synthetic(cluster.clone(), model, batch, batch * 64);
                cfg.epoch_mode = EpochMode::Sampled { iterations: 12 };
                let doc = match run_series(&cfg, None) {
                    Ok(Some(doc)) => doc,
                    Ok(None) => {
                        eprintln!("{cluster_spec} {model_name}: empty series");
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        eprintln!("{cluster_spec} {model_name}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let cell = match DashCell::from_doc(&doc) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("{cluster_spec} {model_name}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let text = match serde_json::to_string_pretty(&doc) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("cannot serialize series: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let spath = format!(
                    "{dir}/series_{}_{}.json",
                    model_name.to_lowercase(),
                    cluster_spec.replace('*', "x")
                );
                if let Err(e) = write_creating_dirs(&spath, &text) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                println!("simulated {cluster_spec} x {model_name} -> {spath}");
                cells.push(cell);
            }
        }
    }

    let dash = Dashboard::new(cells);
    let html = dash.to_html();
    let validated = match Dashboard::validate(&html) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("dashboard failed self-validation: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_creating_dirs(&out_path, &html) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    println!(
        "dashboard validated ({validated} cell{}) and written to {out_path}",
        if validated == 1 { "" } else { "s" }
    );
    ExitCode::SUCCESS
}

/// The value following `name`, if the flag is present.
fn flag_val<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
}

/// Reconstructs a sweep cell from its journal `plan` descriptor (the
/// JSON written by `cell_descriptor`), so `--resume` and `fsck --repair`
/// can re-run exactly what the interrupted sweep intended.
fn job_from_descriptor(detail: &str) -> Result<ProfileJob, String> {
    let v: serde_json::Value =
        serde_json::from_str(detail).map_err(|e| format!("journal plan is not JSON: {e}"))?;
    match v.get("schema").and_then(serde_json::Value::as_str) {
        Some(s) if s == stash::core::sweep::CELL_SCHEMA => {}
        Some(other) => return Err(format!("unknown journal plan schema '{other}'")),
        None => return Err("journal plan missing schema tag".to_string()),
    }
    let str_field = |k: &str| {
        v.get(k)
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("journal plan missing '{k}'"))
    };
    let u64_field = |k: &str| {
        v.get(k)
            .and_then(serde_json::Value::as_u64)
            .ok_or_else(|| format!("journal plan missing '{k}'"))
    };
    let cluster = parse_cluster(str_field("cluster")?)?;
    let model = lookup_model(str_field("model")?)?;
    let mut stash_p = stash_for(model, u64_field("per_gpu_batch")?)
        .with_sampled_iterations(u64_field("sampled_iterations")?);
    if let Some(samples) = v.get("epoch_samples").and_then(serde_json::Value::as_u64) {
        stash_p = stash_p.with_epoch_samples(samples);
    }
    let dataset = str_field("dataset")?;
    if stash_p.dataset().name != dataset {
        return Err(format!(
            "journal plan dataset '{dataset}' does not match '{}' derived for the model",
            stash_p.dataset().name
        ));
    }
    Ok(ProfileJob {
        stash: stash_p,
        cluster,
    })
}

/// The record key a quarantine file holds the corpse of, from its
/// `<32 hex>.rec.qN` name.
fn quarantined_record_key(path: &std::path::Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    let (stem, _) = name.split_once(".rec")?;
    (stem.len() == 32 && stem.chars().all(|c| c.is_ascii_hexdigit())).then(|| stem.to_string())
}

/// The default sweep grid (matches the dash simulation grid's clusters,
/// with CNN-family models so every cell profiles quickly).
const SWEEP_CLUSTERS: [&str; 3] = ["p3.2xlarge", "p3.8xlarge", "p3.8xlarge*2"];
const SWEEP_MODELS: [&str; 3] = ["ShuffleNet", "ResNet18", "AlexNet"];

fn cmd_sweep(args: &[String]) -> ExitCode {
    let usage = "usage: stash sweep [--models A,B] [--clusters X,Y] [-b batch] [--iters N] \
                 [--store DIR] [--resume] [--out CSV] [--io-fault-plan FILE] \
                 [--io-fault-seed N] [--retries N] [--deadline-secs S]";
    let store_dir = flag_val(args, "--store").cloned();
    let resume = args.iter().any(|a| a == "--resume");
    if resume && store_dir.is_none() {
        eprintln!("--resume requires --store DIR\n{usage}");
        return ExitCode::FAILURE;
    }

    // Sampled iterations per cell. A cell's key covers this (it is part
    // of the descriptor), so records computed at different budgets never
    // collide, and resume replays each cell at its journaled budget.
    let sampled_iterations = match flag_val(args, "--iters") {
        None => 6,
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--iters wants a positive integer, got '{v}'\n{usage}");
                return ExitCode::FAILURE;
            }
        },
    };

    let Some(batch) = parse_batch(args) else {
        return ExitCode::FAILURE;
    };

    let mut policy = RetryPolicy::default();
    if let Some(v) = flag_val(args, "--retries") {
        match v.parse::<u32>() {
            Ok(n) if n >= 1 => policy.max_attempts = n,
            _ => {
                eprintln!("--retries wants a positive integer, got '{v}'\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(v) = flag_val(args, "--deadline-secs") {
        match v.parse::<u64>() {
            Ok(s) if s >= 1 => policy.deadline_ms = s.saturating_mul(1000),
            _ => {
                eprintln!("--deadline-secs wants a positive integer, got '{v}'\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }

    // The I/O backend: production StdFs, or deterministic fault
    // injection when a plan (file or seed) is given.
    let fault_plan = match (
        flag_val(args, "--io-fault-plan"),
        flag_val(args, "--io-fault-seed"),
    ) {
        (Some(_), Some(_)) => {
            eprintln!("--io-fault-plan and --io-fault-seed are mutually exclusive\n{usage}");
            return ExitCode::FAILURE;
        }
        (Some(path), None) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match IoFaultPlan::from_json(&text) {
                Ok(plan) => Some((plan, format!("plan file {path}"))),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        (None, Some(seed)) => match seed.parse::<u64>() {
            Ok(seed) => Some((IoFaultPlan::seeded(seed), format!("seed {seed}"))),
            Err(_) => {
                eprintln!("--io-fault-seed wants an integer, got '{seed}'\n{usage}");
                return ExitCode::FAILURE;
            }
        },
        (None, None) => None,
    };
    if fault_plan.is_some() && store_dir.is_none() {
        eprintln!("I/O fault injection only touches store I/O — add --store DIR\n{usage}");
        return ExitCode::FAILURE;
    }

    let store = match &store_dir {
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
            match ResultStore::open(std::path::Path::new(dir), io) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    // The cell list: on --resume, reconstruct it from the journal's plan
    // lines (what the interrupted sweep intended); otherwise build the
    // flag-selected (or default) cluster x model grid.
    let mut jobs: Vec<ProfileJob> = Vec::new();
    let mut resumed_from_journal = false;
    if resume {
        let Some(store) = &store else {
            unreachable!("--resume checked above")
        };
        let replay = match store.journal().replay(store.io()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot replay {}: {e}", store.journal().path().display());
                return ExitCode::FAILURE;
            }
        };
        if replay.torn_tail {
            println!(
                "sweep: journal has a torn tail (crash mid-append) — trusting the intact prefix"
            );
        }
        let planned = replay.planned_cells();
        for (key, detail) in &planned {
            match job_from_descriptor(detail) {
                Ok(job) => jobs.push(job),
                Err(e) => {
                    eprintln!("journal plan for cell {key}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if !jobs.is_empty() {
            resumed_from_journal = true;
            println!("sweep: resuming {} journaled cell(s)", jobs.len());
        } else {
            println!("sweep: journal is empty — running a fresh sweep");
        }
    }
    if !resumed_from_journal {
        let split = |v: Option<&String>, defaults: &[&str]| -> Vec<String> {
            v.map_or_else(
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
        let cluster_specs = split(flag_val(args, "--clusters"), &SWEEP_CLUSTERS);
        let model_names = split(flag_val(args, "--models"), &SWEEP_MODELS);
        if cluster_specs.is_empty() || model_names.is_empty() {
            eprintln!("empty --clusters/--models list\n{usage}");
            return ExitCode::FAILURE;
        }
        for cluster_spec in &cluster_specs {
            let cluster = match parse_cluster(cluster_spec) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            for model_name in &model_names {
                let model = match lookup_model(model_name) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                jobs.push(ProfileJob {
                    stash: stash_for(model, batch)
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

    let out_path = flag_val(args, "--out").cloned().unwrap_or_else(|| {
        store_dir.as_ref().map_or_else(
            || "results/sweep.csv".to_string(),
            |dir| format!("{dir}/results.csv"),
        )
    });
    if let Err(e) = write_creating_dirs(&out_path, &outcome.results_csv()) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    println!("results written to {out_path}");

    if outcome.failed() > 0 {
        eprintln!(
            "sweep finished with {} failed cell(s) — see the status column in {out_path}",
            outcome.failed()
        );
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

fn cmd_fsck(args: &[String]) -> ExitCode {
    let Some(dir) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: stash fsck <store-dir> [--repair]");
        return ExitCode::FAILURE;
    };
    let repair = args.iter().any(|a| a == "--repair");

    if !std::path::Path::new(dir).is_dir() {
        eprintln!("{dir}: not a directory (fsck wants an existing stash result store)");
        return ExitCode::FAILURE;
    }
    let store = match ResultStore::open(std::path::Path::new(dir), Box::new(StdFs::new())) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match store.fsck() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
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
    match store.io().list(&store.quarantine_dir()) {
        Ok(files) => {
            for file in files {
                if let Some(key) = quarantined_record_key(&file) {
                    needs_rebuild.insert(key);
                }
            }
        }
        Err(e) => {
            eprintln!("cannot list {}: {e}", store.quarantine_dir().display());
            return ExitCode::FAILURE;
        }
    }
    needs_rebuild.retain(|key| {
        stash::store::parse_key_hex(key).is_none_or(|k| !matches!(store.get(k), Ok(Fetch::Hit(_))))
    });
    if needs_rebuild.is_empty() {
        println!("store verifies clean");
        return ExitCode::SUCCESS;
    }
    if !repair {
        eprintln!(
            "{} corrupt record(s) in quarantine — re-run with --repair to rebuild them \
             from the journal",
            needs_rebuild.len()
        );
        return ExitCode::from(2);
    }

    // Repair: re-run the quarantined cells from their journal plans; the
    // engine is deterministic, so a rebuilt record is byte-identical to
    // the one the corruption destroyed.
    let replay = match store.journal().replay(store.io()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot replay {}: {e}", store.journal().path().display());
            return ExitCode::FAILURE;
        }
    };
    let mut jobs: Vec<ProfileJob> = Vec::new();
    for key in &needs_rebuild {
        let Some(detail) = replay.plan_for(key) else {
            eprintln!("cannot rebuild {key}: no journal plan for it");
            continue;
        };
        match job_from_descriptor(detail) {
            Ok(job) => jobs.push(job),
            Err(e) => eprintln!("cannot rebuild {key}: {e}"),
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
        let Some(parsed) = stash::store::parse_key_hex(key) else {
            eprintln!("rebuild of {key} failed: not a valid record key");
            unrepaired += 1;
            continue;
        };
        match store.get(parsed) {
            Ok(Fetch::Hit(_)) => {}
            Ok(_) => {
                eprintln!("rebuild of {key} did not verify");
                unrepaired += 1;
            }
            Err(e) => {
                eprintln!("{e}");
                unrepaired += 1;
            }
        }
    }
    if unrepaired > 0 {
        eprintln!("{unrepaired} record(s) remain unrepaired");
        return ExitCode::from(2);
    }
    println!("repair complete: store verifies clean");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("catalog") => cmd_catalog(),
        Some("models") => cmd_models(),
        Some("profile") => cmd_profile(&args[1..]),
        Some("advise") => cmd_advise(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("perf") => cmd_perf(&args[1..]),
        Some("dash") => cmd_dash(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]),
        _ => {
            eprintln!(
                "stash — DDL stall profiler (ICDCS'23 reproduction)\n\n\
                 usage:\n  stash catalog\n  stash models\n  \
                 stash profile <model> <cluster> [-b batch]\n  \
                 stash advise <model> [-b batch] [--cost|--time]\n  \
                 stash probe <instance>\n  \
                 stash trace <instance> <model> [--out PATH] [-b batch]\n  \
                 stash report <instance> <model> [--out PATH] [-b batch]\n  \
                 stash diff <baseline.json> <current.json> [--threshold FRAC]\n  \
                 stash chaos <instance> <model> [--seed N] [--plan FILE] [--out PATH] [--flight PATH] [--series PATH] [-b batch]\n  \
                 stash perf <cluster|sweep> <model> [-b batch] [--out BASE] [--format csv]\n  \
                 stash dash <results-dir> [--out PATH]\n  \
                 stash sweep [--models A,B] [--clusters X,Y] [-b batch] [--iters N] [--store DIR] [--resume] [--out CSV] [--io-fault-plan FILE] [--io-fault-seed N] [--retries N] [--deadline-secs S]\n  \
                 stash fsck <store-dir> [--repair]\n\n\
                 clusters: p3.16xlarge, p3.8xlarge*2, ..."
            );
            ExitCode::FAILURE
        }
    }
}
