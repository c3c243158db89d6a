//! Iteration-resolved time series with a bounded, exact downsampler.
//!
//! Every other view in the telemetry stack collapses the time axis:
//! [`crate::snapshot::Snapshot`] and the trace rollups are epoch-level
//! aggregates, so a warm-up transient, a fault window, or a straggler
//! burst is invisible inside the totals. This module keeps the time
//! axis: the engine emits one [`SeriesSample`] per iteration of the
//! reporting rank, and a [`SeriesRecorder`] folds them into at most
//! `capacity` buckets by merging adjacent pairs whenever the store
//! fills — halving resolution instead of dropping data, so every
//! integer-ns category sum is preserved *exactly* no matter how long
//! the run is.
//!
//! Three sample shapes flow through the recorder:
//!
//! * **Per-iteration samples** (`iterations == 1`): the normal case,
//!   deltas of the reporting rank's stall accumulators since the last
//!   boundary.
//! * **Compressed fast-forward regions** (`ff_iterations > 0`): when
//!   the engine's fast-forward skips whole periods of a proven steady
//!   state, the skipped span arrives as one explicitly-marked sample.
//!   It is stored as its own bucket (never merged into a pending
//!   partial bucket) so renderers can mark the region, and its totals
//!   keep the series reconciling exactly against the extrapolated
//!   `EpochReport`.
//! * **Corrections** (`iterations == 0`): checkpoint-replay rebilling
//!   moves already-recorded compute/data/comm time into the recovery
//!   category after the fact; the engine emits the (partly negative)
//!   delta as a zero-width sample that is absorbed into the most
//!   recent bucket. Category fields are `i64` for exactly this reason;
//!   running sums stay exact, and only renderers clamp for display.
//!
//! Fault windows are recorded as [`Annotation`]s beside the samples —
//! they are never downsampled, so preemption/straggler/degradation
//! overlays survive any amount of bucket merging.

use serde_json::{Map, Number, Value};

use crate::diff::TelemetryDiff;

/// JSON schema tag written by [`IterSeries::to_json`].
pub const SCHEMA: &str = "stash-series-v1";

/// Default bucket capacity of a [`SeriesRecorder`].
pub const DEFAULT_CAPACITY: usize = 512;

/// Smallest accepted capacity (kept even so pair-merging always works).
pub const MIN_CAPACITY: usize = 8;

/// Iterations counted as the warm-up head by [`IterSeries::warmup_ratio`].
pub const WARMUP_ITERATIONS: u64 = 3;

/// A bucket's mean iteration time must exceed the steady-state mean by
/// this factor to count as a transient spike.
pub const SPIKE_RATIO: f64 = 1.5;

/// `stash diff` gate: iteration-time CoV may grow by this factor…
pub const COV_RATIO: f64 = 1.5;
/// …plus this absolute floor before it counts as a regression.
pub const COV_FLOOR: f64 = 0.02;
/// `stash diff` gate: transient-spike count may grow by this factor…
pub const SPIKE_COUNT_RATIO: f64 = 1.5;
/// …plus this absolute floor before it counts as a regression.
pub const SPIKE_COUNT_FLOOR: u64 = 2;

/// One bucket of the series: `iterations` iterations starting at
/// `start_iter`/`start_ns`, with integer-ns category sums.
///
/// Category fields are signed: replay corrections can subtract time
/// that an earlier sample already recorded (the net over the series is
/// what must reconcile, and it does — exactly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeriesSample {
    /// First iteration index covered (0-based; repeats after a
    /// checkpoint rollback, which is the honest reading of a replay).
    pub start_iter: u64,
    /// Iterations covered. `0` marks a correction sample.
    pub iterations: u64,
    /// Of `iterations`, how many fast-forward skipped.
    pub ff_iterations: u64,
    /// Simulation time at the bucket start.
    pub start_ns: u64,
    /// Wall-clock (simulated) width of the bucket.
    pub wall_ns: u64,
    /// GPU compute ns in the bucket (signed; see type docs).
    pub compute_ns: i64,
    /// Data-stall ns in the bucket.
    pub data_wait_ns: i64,
    /// Communication-stall ns in the bucket.
    pub comm_wait_ns: i64,
    /// Recovery ns (checkpoint replay, rendezvous, re-formation).
    pub recovery_ns: i64,
    /// Straggler-induced ns.
    pub straggler_ns: i64,
    /// Flow-solver full recomputes during the bucket.
    pub recomputes: u64,
    /// Event-queue depth high-water during the bucket.
    pub queue_depth_hw: u64,
}

impl SeriesSample {
    /// Folds `other` (a later sample) into `self`, keeping `self`'s
    /// start coordinates. All sums are saturating-free: category ns are
    /// i64 deltas of u64 accumulators well below `i64::MAX`.
    fn absorb(&mut self, other: &SeriesSample) {
        self.iterations += other.iterations;
        self.ff_iterations += other.ff_iterations;
        self.wall_ns += other.wall_ns;
        self.compute_ns += other.compute_ns;
        self.data_wait_ns += other.data_wait_ns;
        self.comm_wait_ns += other.comm_wait_ns;
        self.recovery_ns += other.recovery_ns;
        self.straggler_ns += other.straggler_ns;
        self.recomputes += other.recomputes;
        self.queue_depth_hw = self.queue_depth_hw.max(other.queue_depth_hw);
    }

    /// Mean simulated wall time per covered iteration.
    #[must_use]
    pub fn mean_iter_ns(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.iterations as f64
        }
    }
}

/// A fault window overlaid on the series (never downsampled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Human label, e.g. `"preemption node1"`.
    pub label: String,
    /// Machine kind, e.g. `"preemption"` / `"straggler"`.
    pub kind: String,
    /// Window start (simulation ns).
    pub start_ns: u64,
    /// Window end; open windows are closed at series finish.
    pub end_ns: u64,
}

/// Streaming recorder: bounded memory, exact sums.
///
/// `capacity` buckets are preallocated up front; recording never
/// allocates beyond the annotation list (one entry per fault event).
#[derive(Debug)]
pub struct SeriesRecorder {
    samples: Vec<SeriesSample>,
    capacity: usize,
    /// Target iterations per stored bucket; doubles on every merge.
    width: u64,
    pending: Option<SeriesSample>,
    annotations: Vec<Annotation>,
    /// `(caller id, index into annotations)` for still-open windows.
    open: Vec<(u64, usize)>,
}

impl SeriesRecorder {
    /// A recorder bounded at `capacity` buckets (clamped to an even
    /// value of at least [`MIN_CAPACITY`]).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> SeriesRecorder {
        let capacity = capacity.max(MIN_CAPACITY) & !1;
        SeriesRecorder {
            samples: Vec::with_capacity(capacity),
            capacity,
            width: 1,
            pending: None,
            annotations: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder with the default capacity.
    #[must_use]
    pub fn new() -> SeriesRecorder {
        SeriesRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// Records one sample. Corrections (`iterations == 0`) are folded
    /// into the most recent bucket; fast-forward regions
    /// (`ff_iterations > 0`) become their own bucket; everything else
    /// accumulates into a pending bucket of the current width.
    pub fn record(&mut self, s: SeriesSample) {
        if s.iterations == 0 && s.ff_iterations == 0 {
            // Correction: attach to whatever bucket is most recent so
            // no zero-width bucket ever occupies capacity.
            if let Some(p) = self.pending.as_mut() {
                p.absorb(&s);
            } else if let Some(last) = self.samples.last_mut() {
                last.absorb(&s);
            } else {
                self.pending = Some(s);
            }
            return;
        }
        if s.ff_iterations > 0 {
            self.flush_pending();
            self.push_bucket(s);
            return;
        }
        match self.pending.as_mut() {
            None => self.pending = Some(s),
            Some(p) => p.absorb(&s),
        }
        if self.pending.map_or(0, |p| p.iterations) >= self.width {
            self.flush_pending();
        }
    }

    /// Opens a fault-window annotation under a caller-chosen id.
    pub fn annotate_open(&mut self, id: u64, label: &str, kind: &str, start_ns: u64) {
        self.open.push((id, self.annotations.len()));
        self.annotations.push(Annotation {
            label: label.to_string(),
            kind: kind.to_string(),
            start_ns,
            end_ns: u64::MAX,
        });
    }

    /// Closes the annotation opened under `id` (no-op if unknown).
    pub fn annotate_close(&mut self, id: u64, end_ns: u64) {
        if let Some(pos) = self.open.iter().position(|&(open_id, _)| open_id == id) {
            let (_, idx) = self.open.swap_remove(pos);
            if let Some(a) = self.annotations.get_mut(idx) {
                a.end_ns = end_ns;
            }
        }
    }

    /// Flushes the pending bucket and closes open annotations at
    /// `end_ns`, yielding the finished series.
    #[must_use]
    pub fn finish(mut self, end_ns: u64) -> IterSeries {
        self.flush_pending();
        let open = std::mem::take(&mut self.open);
        for (_, idx) in open {
            if let Some(a) = self.annotations.get_mut(idx) {
                a.end_ns = end_ns;
            }
        }
        IterSeries {
            samples: self.samples,
            annotations: self.annotations,
            end_ns,
        }
    }

    fn flush_pending(&mut self) {
        if let Some(p) = self.pending.take() {
            self.push_bucket(p);
        }
    }

    fn push_bucket(&mut self, s: SeriesSample) {
        self.samples.push(s);
        if self.samples.len() >= self.capacity {
            // Merge adjacent pairs in place: resolution halves, every
            // integer sum is untouched.
            let n = self.samples.len() / 2;
            for i in 0..n {
                let hi = self.samples[2 * i + 1];
                self.samples[2 * i].absorb(&hi);
                self.samples[i] = self.samples[2 * i];
            }
            // An odd trailing bucket (possible only transiently) slides down.
            if self.samples.len() % 2 == 1 {
                self.samples[n] = self.samples[self.samples.len() - 1];
                self.samples.truncate(n + 1);
            } else {
                self.samples.truncate(n);
            }
            self.width *= 2;
        }
    }
}

impl Default for SeriesRecorder {
    fn default() -> Self {
        SeriesRecorder::new()
    }
}

/// Exact integer totals over a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SeriesTotals {
    /// Iterations covered (including fast-forwarded ones).
    pub iterations: u64,
    /// Fast-forwarded iterations (compressed regions).
    pub ff_iterations: u64,
    /// Total simulated wall ns.
    pub wall_ns: u64,
    /// Net compute ns.
    pub compute_ns: i64,
    /// Net data-stall ns.
    pub data_wait_ns: i64,
    /// Net communication-stall ns.
    pub comm_wait_ns: i64,
    /// Net recovery ns.
    pub recovery_ns: i64,
    /// Net straggler ns.
    pub straggler_ns: i64,
    /// Solver full recomputes.
    pub recomputes: u64,
}

/// A finished iteration series: bounded samples plus fault overlays.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IterSeries {
    /// Downsampled buckets in time order.
    pub samples: Vec<SeriesSample>,
    /// Fault windows (closed; open ones were sealed at finish).
    pub annotations: Vec<Annotation>,
    /// Simulation time when recording stopped.
    pub end_ns: u64,
}

impl IterSeries {
    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Exact integer totals (the reconciliation side of the oracle).
    #[must_use]
    pub fn totals(&self) -> SeriesTotals {
        let mut t = SeriesTotals::default();
        for s in &self.samples {
            t.iterations += s.iterations;
            t.ff_iterations += s.ff_iterations;
            t.wall_ns += s.wall_ns;
            t.compute_ns += s.compute_ns;
            t.data_wait_ns += s.data_wait_ns;
            t.comm_wait_ns += s.comm_wait_ns;
            t.recovery_ns += s.recovery_ns;
            t.straggler_ns += s.straggler_ns;
            t.recomputes += s.recomputes;
        }
        t
    }

    /// Weighted coefficient of variation of per-iteration wall time
    /// across buckets (weights = iterations per bucket). `0.0` for
    /// fewer than two covered buckets.
    #[must_use]
    pub fn iteration_cov(&self) -> f64 {
        let buckets: Vec<&SeriesSample> =
            self.samples.iter().filter(|s| s.iterations > 0).collect();
        if buckets.len() < 2 {
            return 0.0;
        }
        let total_w: f64 = buckets.iter().map(|s| s.iterations as f64).sum();
        let total_wall: f64 = buckets.iter().map(|s| s.wall_ns as f64).sum();
        if total_w <= 0.0 || total_wall <= 0.0 {
            return 0.0;
        }
        let mean = total_wall / total_w;
        let var = buckets
            .iter()
            .map(|s| {
                let d = s.mean_iter_ns() - mean;
                s.iterations as f64 * d * d
            })
            .sum::<f64>()
            / total_w;
        var.sqrt() / mean
    }

    /// Mean iteration time over buckets after the warm-up head
    /// ([`WARMUP_ITERATIONS`]); falls back to the overall mean when the
    /// whole series fits in the head.
    #[must_use]
    pub fn steady_mean_iter_ns(&self) -> f64 {
        let mut skipped = 0u64;
        let mut wall = 0.0f64;
        let mut iters = 0.0f64;
        for s in &self.samples {
            if s.iterations == 0 {
                continue;
            }
            if skipped < WARMUP_ITERATIONS {
                skipped += s.iterations;
                continue;
            }
            wall += s.wall_ns as f64;
            iters += s.iterations as f64;
        }
        if iters > 0.0 {
            wall / iters
        } else {
            let t = self.totals();
            if t.iterations == 0 {
                0.0
            } else {
                t.wall_ns as f64 / t.iterations as f64
            }
        }
    }

    /// Warm-up transient: mean iteration time of the first
    /// [`WARMUP_ITERATIONS`] iterations divided by the steady-state
    /// mean. `1.0` when there is no detectable head or steady tail.
    #[must_use]
    pub fn warmup_ratio(&self) -> f64 {
        let steady = self.steady_mean_iter_ns();
        if steady <= 0.0 {
            return 1.0;
        }
        let mut head_wall = 0.0f64;
        let mut head_iters = 0.0f64;
        for s in &self.samples {
            if s.iterations == 0 || head_iters >= WARMUP_ITERATIONS as f64 {
                continue;
            }
            head_wall += s.wall_ns as f64;
            head_iters += s.iterations as f64;
        }
        if head_iters <= 0.0 {
            return 1.0;
        }
        (head_wall / head_iters) / steady
    }

    /// Buckets past the warm-up head whose mean iteration time exceeds
    /// [`SPIKE_RATIO`] × the steady-state mean.
    #[must_use]
    pub fn spike_count(&self) -> u64 {
        let steady = self.steady_mean_iter_ns();
        if steady <= 0.0 {
            return 0;
        }
        let mut skipped = 0u64;
        let mut spikes = 0u64;
        for s in &self.samples {
            if s.iterations == 0 {
                continue;
            }
            if skipped < WARMUP_ITERATIONS {
                skipped += s.iterations;
                continue;
            }
            if s.mean_iter_ns() > SPIKE_RATIO * steady {
                spikes += 1;
            }
        }
        spikes
    }

    /// Serializes the `stash-series-v1` document. Insertion order is
    /// fixed, so identical series + meta produce byte-identical JSON.
    #[must_use]
    pub fn to_json(&self, meta: &SeriesMeta) -> Value {
        let t = self.totals();
        let mut totals = Map::new();
        totals.insert("iterations".to_string(), num_u(t.iterations));
        totals.insert("ff_iterations".to_string(), num_u(t.ff_iterations));
        totals.insert("wall_ns".to_string(), num_u(t.wall_ns));
        totals.insert("compute_ns".to_string(), num_i(t.compute_ns));
        totals.insert("data_wait_ns".to_string(), num_i(t.data_wait_ns));
        totals.insert("comm_wait_ns".to_string(), num_i(t.comm_wait_ns));
        totals.insert("recovery_ns".to_string(), num_i(t.recovery_ns));
        totals.insert("straggler_ns".to_string(), num_i(t.straggler_ns));
        totals.insert("recomputes".to_string(), num_u(t.recomputes));

        let mut stats = Map::new();
        stats.insert(
            "iteration_cov".to_string(),
            Value::Number(Number::F(self.iteration_cov())),
        );
        stats.insert(
            "warmup_ratio".to_string(),
            Value::Number(Number::F(self.warmup_ratio())),
        );
        stats.insert("spike_count".to_string(), num_u(self.spike_count()));

        let samples = self
            .samples
            .iter()
            .map(|s| {
                Value::Array(vec![
                    num_u(s.start_iter),
                    num_u(s.iterations),
                    num_u(s.ff_iterations),
                    num_u(s.start_ns),
                    num_u(s.wall_ns),
                    num_i(s.compute_ns),
                    num_i(s.data_wait_ns),
                    num_i(s.comm_wait_ns),
                    num_i(s.recovery_ns),
                    num_i(s.straggler_ns),
                    num_u(s.recomputes),
                    num_u(s.queue_depth_hw),
                ])
            })
            .collect();

        let annotations = self
            .annotations
            .iter()
            .map(|a| {
                let mut m = Map::new();
                m.insert("label".to_string(), Value::String(a.label.clone()));
                m.insert("kind".to_string(), Value::String(a.kind.clone()));
                m.insert("start_ns".to_string(), num_u(a.start_ns));
                m.insert("end_ns".to_string(), num_u(a.end_ns));
                Value::Object(m)
            })
            .collect();

        let mut root = Map::new();
        root.insert("schema".to_string(), Value::String(SCHEMA.to_string()));
        root.insert("cluster".to_string(), Value::String(meta.cluster.clone()));
        root.insert("model".to_string(), Value::String(meta.model.clone()));
        root.insert("world".to_string(), num_u(meta.world));
        root.insert("per_gpu_batch".to_string(), num_u(meta.per_gpu_batch));
        root.insert("iterations".to_string(), num_u(meta.iterations));
        root.insert(
            "simulated_iterations".to_string(),
            num_u(meta.simulated_iterations),
        );
        root.insert("end_ns".to_string(), num_u(self.end_ns));
        root.insert("totals".to_string(), Value::Object(totals));
        root.insert("stats".to_string(), Value::Object(stats));
        root.insert("samples".to_string(), Value::Array(samples));
        root.insert("annotations".to_string(), Value::Array(annotations));
        Value::Object(root)
    }

    /// CSV export: a header plus one row per bucket.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "start_iter,iterations,ff_iterations,start_ns,wall_ns,compute_ns,\
             data_wait_ns,comm_wait_ns,recovery_ns,straggler_ns,recomputes,queue_depth_hw\n",
        );
        for s in &self.samples {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{}\n",
                s.start_iter,
                s.iterations,
                s.ff_iterations,
                s.start_ns,
                s.wall_ns,
                s.compute_ns,
                s.data_wait_ns,
                s.comm_wait_ns,
                s.recovery_ns,
                s.straggler_ns,
                s.recomputes,
                s.queue_depth_hw,
            ));
        }
        out
    }

    /// Parses a `stash-series-v1` document back into `(meta, series)`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn from_json(doc: &Value) -> Result<(SeriesMeta, IterSeries), String> {
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let meta = SeriesMeta {
            cluster: str_field(doc, "cluster")?,
            model: str_field(doc, "model")?,
            world: u64_field(doc, "world")?,
            per_gpu_batch: u64_field(doc, "per_gpu_batch")?,
            iterations: u64_field(doc, "iterations")?,
            simulated_iterations: u64_field(doc, "simulated_iterations")?,
        };
        let end_ns = u64_field(doc, "end_ns")?;
        let rows = doc
            .get("samples")
            .and_then(Value::as_array)
            .ok_or("missing samples array")?;
        let mut samples = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let cells = row
                .as_array()
                .filter(|c| c.len() == 12)
                .ok_or_else(|| format!("sample {i}: expected 12 cells"))?;
            let u = |j: usize| -> Result<u64, String> {
                cells[j]
                    .as_u64()
                    .ok_or_else(|| format!("sample {i} cell {j}: expected u64"))
            };
            let sgn = |j: usize| -> Result<i64, String> {
                cells[j]
                    .as_i64()
                    .ok_or_else(|| format!("sample {i} cell {j}: expected i64"))
            };
            samples.push(SeriesSample {
                start_iter: u(0)?,
                iterations: u(1)?,
                ff_iterations: u(2)?,
                start_ns: u(3)?,
                wall_ns: u(4)?,
                compute_ns: sgn(5)?,
                data_wait_ns: sgn(6)?,
                comm_wait_ns: sgn(7)?,
                recovery_ns: sgn(8)?,
                straggler_ns: sgn(9)?,
                recomputes: u(10)?,
                queue_depth_hw: u(11)?,
            });
        }
        let manns = doc
            .get("annotations")
            .and_then(Value::as_array)
            .ok_or("missing annotations array")?;
        let mut annotations = Vec::with_capacity(manns.len());
        for (i, a) in manns.iter().enumerate() {
            annotations.push(Annotation {
                label: str_field(a, "label").map_err(|e| format!("annotation {i}: {e}"))?,
                kind: str_field(a, "kind").map_err(|e| format!("annotation {i}: {e}"))?,
                start_ns: u64_field(a, "start_ns").map_err(|e| format!("annotation {i}: {e}"))?,
                end_ns: u64_field(a, "end_ns").map_err(|e| format!("annotation {i}: {e}"))?,
            });
        }
        Ok((
            meta,
            IterSeries {
                samples,
                annotations,
                end_ns,
            },
        ))
    }
}

/// Subject metadata carried by a series document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeriesMeta {
    /// Cluster spec name, e.g. `"p3.8xlarge*2"`.
    pub cluster: String,
    /// Model name, e.g. `"resnet50"`.
    pub model: String,
    /// World size (total GPUs).
    pub world: u64,
    /// Per-GPU batch size.
    pub per_gpu_batch: u64,
    /// Full-epoch iterations the report extrapolates to.
    pub iterations: u64,
    /// Iterations actually simulated (series coverage).
    pub simulated_iterations: u64,
}

/// `true` when `doc` is a `stash-series-v1` document.
#[must_use]
pub fn is_series_doc(doc: &Value) -> bool {
    doc.get("schema").and_then(Value::as_str) == Some(SCHEMA)
}

/// Gates `current` against `baseline` on iteration-time dynamics:
/// CoV may grow to `baseline × `[`COV_RATIO`]` + `[`COV_FLOOR`], the
/// transient-spike count to `baseline × `[`SPIKE_COUNT_RATIO`]` +
/// `[`SPIKE_COUNT_FLOOR`]. Totals are deliberately not re-gated here —
/// `stash diff` on stall reports already owns them.
///
/// # Errors
///
/// Returns a message when either document is not `stash-series-v1`.
pub fn diff_docs(baseline: &Value, current: &Value) -> Result<TelemetryDiff, String> {
    let (bm, bs) = IterSeries::from_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let (cm, cs) = IterSeries::from_json(current).map_err(|e| format!("current: {e}"))?;
    let mut out = TelemetryDiff::default();
    if bm.cluster != cm.cluster || bm.model != cm.model {
        out.notes.push(format!(
            "subject changed: {} {} -> {} {}",
            bm.cluster, bm.model, cm.cluster, cm.model
        ));
    }

    let (b_cov, c_cov) = (bs.iteration_cov(), cs.iteration_cov());
    let cov_limit = b_cov * COV_RATIO + COV_FLOOR;
    if c_cov > cov_limit {
        out.regressions.push(format!(
            "iteration-time CoV regressed: {b_cov:.4} -> {c_cov:.4} (limit {cov_limit:.4})"
        ));
    } else {
        out.notes
            .push(format!("iteration-time CoV: {b_cov:.4} -> {c_cov:.4} (ok)"));
    }

    let (b_sp, c_sp) = (bs.spike_count(), cs.spike_count());
    let spike_limit = (b_sp as f64 * SPIKE_COUNT_RATIO) as u64 + SPIKE_COUNT_FLOOR;
    if c_sp > spike_limit {
        out.regressions.push(format!(
            "transient spikes regressed: {b_sp} -> {c_sp} (limit {spike_limit})"
        ));
    } else {
        out.notes
            .push(format!("transient spikes: {b_sp} -> {c_sp} (ok)"));
    }
    Ok(out)
}

fn num_u(v: u64) -> Value {
    Value::Number(Number::U(v))
}

fn num_i(v: i64) -> Value {
    Value::Number(Number::I(v))
}

fn str_field(doc: &Value, name: &str) -> Result<String, String> {
    doc.get(name)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing field {name}"))
}

fn u64_field(doc: &Value, name: &str) -> Result<u64, String> {
    doc.get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing field {name}"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn iter_sample(i: u64, start_ns: u64, wall: u64) -> SeriesSample {
        SeriesSample {
            start_iter: i,
            iterations: 1,
            start_ns,
            wall_ns: wall,
            compute_ns: wall as i64 / 2,
            data_wait_ns: wall as i64 / 4,
            comm_wait_ns: wall as i64 - wall as i64 / 2 - wall as i64 / 4,
            recomputes: 3,
            queue_depth_hw: 5 + i % 7,
            ..SeriesSample::default()
        }
    }

    fn meta() -> SeriesMeta {
        SeriesMeta {
            cluster: "p3.8xlarge".to_string(),
            model: "resnet18".to_string(),
            world: 4,
            per_gpu_batch: 32,
            iterations: 100,
            simulated_iterations: 100,
        }
    }

    #[test]
    fn capacity_is_bounded_and_sums_exact() {
        let mut r = SeriesRecorder::with_capacity(8);
        let n = 1000u64;
        for i in 0..n {
            r.record(iter_sample(i, i * 100, 100));
        }
        let s = r.finish(n * 100);
        assert!(s.samples.len() <= 8, "len={}", s.samples.len());
        let t = s.totals();
        assert_eq!(t.iterations, n);
        assert_eq!(t.wall_ns, n * 100);
        assert_eq!(
            t.compute_ns + t.data_wait_ns + t.comm_wait_ns,
            (n * 100) as i64
        );
        assert_eq!(t.recomputes, 3 * n);
        // Timestamps stay monotone through merging.
        for w in s.samples.windows(2) {
            assert!(w[0].start_ns < w[1].start_ns);
        }
    }

    #[test]
    fn corrections_fold_without_new_buckets() {
        let mut r = SeriesRecorder::with_capacity(8);
        r.record(iter_sample(0, 0, 100));
        // Replay rebilling: move 30 ns of compute into recovery.
        r.record(SeriesSample {
            start_iter: 1,
            compute_ns: -30,
            recovery_ns: 30,
            ..SeriesSample::default()
        });
        let s = r.finish(100);
        assert_eq!(s.samples.len(), 1);
        let t = s.totals();
        assert_eq!(t.compute_ns, 20);
        assert_eq!(t.recovery_ns, 30);
        assert_eq!(t.wall_ns, 100);
    }

    #[test]
    fn ff_regions_stay_marked() {
        let mut r = SeriesRecorder::with_capacity(8);
        for i in 0..3 {
            r.record(iter_sample(i, i * 100, 100));
        }
        r.record(SeriesSample {
            start_iter: 3,
            iterations: 500,
            ff_iterations: 500,
            start_ns: 300,
            wall_ns: 50_000,
            compute_ns: 25_000,
            data_wait_ns: 12_500,
            comm_wait_ns: 12_500,
            ..SeriesSample::default()
        });
        let s = r.finish(50_300);
        let t = s.totals();
        assert_eq!(t.iterations, 503);
        assert_eq!(t.ff_iterations, 500);
        assert!(s.samples.iter().any(|x| x.ff_iterations == 500));
    }

    #[test]
    fn annotations_survive_and_open_windows_seal() {
        let mut r = SeriesRecorder::with_capacity(8);
        r.record(iter_sample(0, 0, 100));
        r.annotate_open(7, "straggler node0", "straggler", 40);
        r.annotate_close(7, 90);
        r.annotate_open(9, "preemption node1", "preemption", 95);
        let s = r.finish(100);
        assert_eq!(s.annotations.len(), 2);
        assert_eq!(s.annotations[0].end_ns, 90);
        assert_eq!(s.annotations[1].end_ns, 100);
    }

    #[test]
    fn json_round_trips_and_is_deterministic() {
        let mut r = SeriesRecorder::with_capacity(16);
        for i in 0..40 {
            r.record(iter_sample(i, i * 100, 100 + (i % 5) * 7));
        }
        r.annotate_open(1, "link slow", "link_degradation", 10);
        r.annotate_close(1, 900);
        let s = r.finish(40 * 110);
        let a = serde_json::to_string_pretty(&s.to_json(&meta())).unwrap();
        let b = serde_json::to_string_pretty(&s.to_json(&meta())).unwrap();
        assert_eq!(a, b);
        let doc: Value = serde_json::from_str(&a).unwrap();
        assert!(is_series_doc(&doc));
        let (m2, s2) = IterSeries::from_json(&doc).unwrap();
        assert_eq!(m2, meta());
        assert_eq!(s2, s);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut r = SeriesRecorder::with_capacity(8);
        r.record(iter_sample(0, 0, 100));
        let s = r.finish(100);
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("start_iter,iterations"));
        assert_eq!(lines.count(), 1);
    }

    #[test]
    fn stats_detect_warmup_and_spikes() {
        let mut r = SeriesRecorder::with_capacity(64);
        // Three slow warm-up iterations, then steady 100 ns, one spike.
        for i in 0..3 {
            r.record(iter_sample(i, i * 300, 300));
        }
        for i in 3..30 {
            let wall = if i == 20 { 400 } else { 100 };
            r.record(iter_sample(i, 900 + (i - 3) * 100, wall));
        }
        let s = r.finish(4000);
        assert!(s.warmup_ratio() > 2.0, "warmup {}", s.warmup_ratio());
        assert_eq!(s.spike_count(), 1);
        assert!(s.iteration_cov() > 0.0);
    }

    #[test]
    fn diff_gates_cov_and_spikes() {
        let mk = |spike_every: u64| {
            let mut r = SeriesRecorder::with_capacity(64);
            for i in 0..40 {
                let wall = if spike_every > 0 && i % spike_every == 5 {
                    1000
                } else {
                    100
                };
                r.record(iter_sample(i, i * 100, wall));
            }
            r.finish(5000).to_json(&meta())
        };
        let calm = mk(0);
        let spiky = mk(7);
        let d = diff_docs(&calm, &calm).unwrap();
        assert!(d.is_clean(), "{:?}", d.regressions);
        let d = diff_docs(&calm, &spiky).unwrap();
        assert!(!d.is_clean());
        assert!(diff_docs(&calm, &Value::Null).is_err());
    }
}
