//! What every workload shares: the closed loop, set-up timing, output checks,
//! the per-layer sample store and the reference oracle.

use crate::host;
use crate::spans::Recorder;
use crate::stats::{median, PairDigest};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::{Duration, Instant};
use touch_baselines::PlaneSweepJoin;
use touch_core::{CallbackSink, JoinError, JoinQuery};
use touch_geom::{Dataset, SpatialObject};
use touch_metrics::Counters;

/// Ops every end-to-end run makes at least, so p90 has ten samples above it.
pub const MIN_OPS: usize = 100;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Traced iterations every per-layer run makes at least.
pub const MIN_TRACED: usize = 5;

/// Counts checked outputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were an error or disagreed with their reference.
    pub failed: u64,
}

impl Checks {
    /// Records one output that must equal `want`; a mismatch is reported on
    /// stderr and counted as failed.
    pub fn expect_eq<T: PartialEq + Debug>(&mut self, what: &str, got: &T, want: &T) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            eprintln!("perfbench: {what}: got {got:?}, want {want:?}");
        }
    }

    /// Records one output that is known to be wrong.
    pub fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: {what}: {why}");
    }

    /// Records one checked output: its digest, or the error its op returned.
    pub fn expect_digest(
        &mut self,
        what: &str,
        got: &Result<PairDigest, JoinError>,
        want: &PairDigest,
    ) {
        match got {
            Ok(digest) => self.expect_eq(what, digest, want),
            Err(e) => self.fail(what, e),
        }
    }

    /// Failed ÷ attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What an end-to-end run measured. Every time is a wall time scaled to the
/// reference host by [`host::scale`], measured right after it.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each timed op, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Input objects each timed op processed per second.
    pub op_objects_per_s: Vec<f64>,
    /// Unscaled latency of each timed op, in milliseconds.
    pub wall_op_ms: Vec<f64>,
    /// The host scale measured after each timed op.
    pub host_scale: Vec<f64>,
    /// Output checks of the timed ops.
    pub checks: Checks,
}

impl EndToEnd {
    /// Records one timed op that processed `objects` input objects.
    pub fn record(&mut self, latency: Duration, objects: u64) {
        self.record_scaled(latency, objects, host::scale());
    }

    fn record_scaled(&mut self, latency: Duration, objects: u64, scale: f64) {
        let wall_ms = latency.as_secs_f64() * 1e3;
        let ms = wall_ms * scale;
        self.op_ms.push(ms);
        self.op_objects_per_s.push(ratio(objects as f64 * 1e3, ms));
        self.wall_op_ms.push(wall_ms);
        self.host_scale.push(scale);
    }

    /// Input objects per second of the median op. A median rather than
    /// total objects ÷ total time, so that a few ops stalled by the host do
    /// not move a run's throughput more than its median latency.
    pub fn objects_per_s(&self) -> f64 {
        median(&self.op_objects_per_s)
    }
}

/// Runs `setup` [`SETUP_REPS`] times, timing each (scaled to the reference
/// host), and keeps the last result.
pub fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let built = setup()?;
        let wall_s = start.elapsed().as_secs_f64();
        times.push(wall_s * host::scale());
        last = Some(built);
    }
    Ok((last.expect("SETUP_REPS is positive"), times))
}

/// Calls `step` until `seconds` have passed and it has run `min` times; the
/// next call starts only after the previous one returned (a closed loop with
/// one client).
pub fn closed_loop(seconds: f64, min: usize, mut step: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < min || start.elapsed().as_secs_f64() < seconds {
        step();
        done += 1;
    }
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Per-layer samples, one per traced iteration; each metric is reported as
/// the median of its samples.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Median of the samples of `name`; 0 when the workload never exercised
    /// that layer.
    pub fn value(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }
}

/// Ratio `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Field-wise `after − before`.
pub fn counters_delta(after: &Counters, before: &Counters) -> Counters {
    Counters {
        comparisons: after.comparisons - before.comparisons,
        node_tests: after.node_tests - before.node_tests,
        results: after.results - before.results,
        filtered: after.filtered - before.filtered,
        duplicates_suppressed: after.duplicates_suppressed - before.duplicates_suppressed,
        replicas: after.replicas - before.replicas,
        batch_lanes: after.batch_lanes - before.batch_lanes,
        batch_hits: after.batch_hits - before.batch_hits,
    }
}

/// One replay of the TOUCH phases through the layers' public functions, with
/// the counters split at the phase boundaries.
#[derive(Debug, Default)]
pub struct CoreReplay {
    /// Root span of the replayed op.
    pub root: usize,
    /// Span whose `core.join.node` children time the per-node joins.
    pub nodes_root: usize,
    /// Objects the hierarchy was built over.
    pub tree_len: usize,
    /// Objects assigned to it.
    pub probe_len: usize,
    /// Counters of the assignment phase.
    pub assign: Counters,
    /// Counters of the join phase (pairs included).
    pub join: Counters,
    /// Bytes the join phase returned as its scratch footprint.
    pub scratch_bytes: usize,
}

impl CoreReplay {
    /// Counters of the whole replayed op.
    pub fn counters(&self) -> Counters {
        let mut total = self.assign;
        total.merge(&self.join);
        total
    }

    /// Adds this replay's per-layer samples; `op_ns` is the latency of the
    /// untraced op it replayed.
    pub fn record(&self, rec: &Recorder, op_ns: f64, layers: &mut Layers) {
        let self_ns = |name| rec.self_ns_named(self.root, name) as f64;
        let tree_len = self.tree_len as f64;
        let probe_len = self.probe_len as f64;

        layers.push("core.query.prep_ms", self_ns("core.query.prep") / 1e6);
        let sort = self_ns("index.str_sort");
        layers.push("index.str_sort.ns_per_obj", ratio(sort, tree_len));
        layers.push("index.str_sort.share", ratio(sort, op_ns));
        // `serve_churn` packs inside `try_publish`, so it times packing with a
        // replay of its own outside the op and records that sample itself.
        let pack = self_ns("core.tree.pack");
        if pack > 0.0 {
            layers.push("core.tree.pack.ns_per_obj", ratio(pack, tree_len));
        }

        let assign = self_ns("core.assign");
        layers.push("core.assign.ns_per_b", ratio(assign, probe_len));
        layers
            .push("core.assign.node_tests_per_b", ratio(self.assign.node_tests as f64, probe_len));
        layers.push("core.assign.filtered_frac", ratio(self.assign.filtered as f64, probe_len));
        layers.push("core.assign.share", ratio(assign, op_ns));

        let join = self_ns("core.join") + self_ns("core.join.node");
        let comparisons = self.join.comparisons as f64;
        layers.push("core.join.share", ratio(join, op_ns));
        layers.push("core.join.ns_per_comparison", ratio(join, comparisons));
        let node_us: Vec<f64> = rec
            .descendants(self.nodes_root)
            .map(|id| rec.span(id))
            .filter(|s| s.name == "core.join.node")
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        layers.push("core.join.node_p50_us", median(&node_us));
        layers.push("core.join.node_max_us", node_us.iter().copied().fold(0.0, f64::max));
        layers.push("core.join.comparisons", comparisons);
        layers.push("core.join.node_tests", self.join.node_tests as f64);
        layers.push(
            "core.join.filter_hit_ratio",
            ratio(self.join.batch_hits as f64, self.join.batch_lanes as f64),
        );
        layers.push("core.join.pair_ratio", ratio(self.join.results as f64, comparisons));
        layers.push("core.join.scratch_mb", self.scratch_bytes as f64 / MIB);

        let root = rec.span(self.root);
        let attributed = (root.duration_ns() - rec.self_ns(self.root)) as f64;
        layers.push("unattributed_frac", ratio(op_ns - attributed, op_ns));
    }
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Wall time of `f`, in nanoseconds, as a per-layer sample.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let (elapsed, out) = timed(f);
    (elapsed.as_nanos() as f64, out)
}

/// The reference result of `a ⋈ b` under distance `eps`, from the
/// plane-sweep baseline: pairs as `(id in a, id in b)`.
pub fn oracle(a: &Dataset, b: &Dataset, eps: f64) -> Result<PairDigest, JoinError> {
    let mut digest = PairDigest::default();
    let mut sink = CallbackSink::new(|x, y| digest.add(x, y));
    let _report = JoinQuery::new(a, b)
        .within_distance(eps)
        .engine(PlaneSweepJoin::new())
        .try_run(&mut sink)?;
    Ok(digest)
}

/// The reference result of the distance self-join of `a`: each unordered
/// pair once, as `(min, max)`.
pub fn oracle_self(a: &Dataset, eps: f64) -> Result<PairDigest, JoinError> {
    let mut digest = PairDigest::default();
    let mut sink = CallbackSink::new(|x, y| digest.add_unordered(x, y));
    let _report = JoinQuery::self_join(a)
        .within_distance(eps)
        .engine(PlaneSweepJoin::new())
        .try_run(&mut sink)?;
    Ok(digest)
}

/// [`oracle`] (ε = 0) over objects with arbitrary ids: the sides are
/// re-numbered densely for the baseline and its pairs mapped back.
pub fn oracle_objects(a: &[SpatialObject], b: &[SpatialObject]) -> Result<PairDigest, JoinError> {
    let dense_a = Dataset::from_mbrs(a.iter().map(|o| o.mbr));
    let dense_b = Dataset::from_mbrs(b.iter().map(|o| o.mbr));
    let mut digest = PairDigest::default();
    let mut sink = CallbackSink::new(|x, y| digest.add(a[x as usize].id, b[y as usize].id));
    let _report =
        JoinQuery::new(&dense_a, &dense_b).engine(PlaneSweepJoin::new()).try_run(&mut sink)?;
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_geom::{Aabb, Point3};

    fn row(n: usize, offset: f64) -> Dataset {
        Dataset::from_mbrs((0..n).map(|i| {
            let min = Point3::new(i as f64 * 3.0 + offset, 0.0, 0.0);
            Aabb::new(min, min + Point3::splat(1.0))
        }))
    }

    #[test]
    fn a_wrong_reference_makes_the_failed_fraction_non_zero() {
        let (a, b) = (row(20, 0.0), row(20, 0.5));
        let right = oracle(&a, &b, 0.0).expect("valid input");
        assert_eq!(right.count, 20);

        let mut checks = Checks::default();
        checks.expect_digest("op", &Ok(right), &right);
        assert_eq!(checks.failed_frac(), 0.0);

        let wrong = PairDigest { count: right.count, sum: right.sum ^ 1 };
        checks.expect_digest("op", &Ok(right), &wrong);
        assert_eq!(checks.attempted, 2);
        assert_eq!(checks.failed_frac(), 0.5);

        checks.expect_digest("op", &Err(JoinError::InvalidInput { detail: "x".into() }), &right);
        assert_eq!(checks.failed, 2);
    }

    #[test]
    fn oracle_objects_maps_pairs_back_to_the_original_ids() {
        let a: Vec<SpatialObject> =
            row(5, 0.0).objects().iter().map(|o| SpatialObject::new(o.id + 100, o.mbr)).collect();
        let b: Vec<SpatialObject> =
            row(5, 0.5).objects().iter().map(|o| SpatialObject::new(o.id + 7, o.mbr)).collect();
        let got = oracle_objects(&a, &b).expect("valid input");
        let mut want = PairDigest::default();
        (0..5).for_each(|i| want.add(100 + i, 7 + i));
        assert_eq!(got, want);
    }

    #[test]
    fn oracle_self_reports_each_unordered_pair_once() {
        let a = row(10, 0.0);
        // Neighbours are 2 apart along x, so ε = 2 links each to the next.
        let got = oracle_self(&a, 2.0).expect("valid input");
        let mut want = PairDigest::default();
        (0..9).for_each(|i| want.add(i, i + 1));
        assert_eq!(got, want);
    }

    #[test]
    fn one_stalled_op_does_not_move_the_throughput() {
        let mut run = EndToEnd::default();
        for _ in 0..9 {
            run.record_scaled(Duration::from_millis(10), 1000, 1.0);
        }
        run.record_scaled(Duration::from_secs(10), 1000, 1.0);
        assert_eq!(run.objects_per_s(), 100_000.0);
    }

    #[test]
    fn times_are_scaled_to_the_reference_host() {
        let mut run = EndToEnd::default();
        // A host twice as slow as the reference: the probe took twice as long.
        run.record_scaled(Duration::from_millis(20), 1000, 0.5);
        assert_eq!(run.op_ms, [10.0]);
        assert_eq!(run.wall_op_ms, [20.0]);
        assert_eq!(run.objects_per_s(), 100_000.0);
    }

    #[test]
    fn closed_loop_runs_at_least_the_minimum() {
        let mut n = 0;
        closed_loop(0.0, 7, || n += 1);
        assert_eq!(n, 7);
    }
}
