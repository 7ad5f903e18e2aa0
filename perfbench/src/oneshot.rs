//! The one-shot workloads (`neuro_touch`, `uniform_sparse`): one op is one
//! `JoinQuery::try_run` of sequential `TouchJoin` with `TouchConfig::default()`.

use crate::harness::{
    closed_loop, oracle, time_ns, timed, timed_setups, Checks, CoreReplay, EndToEnd, Layers,
    MIN_OPS, MIN_TRACED,
};
use crate::parallel::{speedups, ParallelInput};
use crate::spans::Recorder;
use crate::stats::PairDigest;
use std::time::Duration;
use touch_core::{
    CallbackSink, JoinError, JoinPlan, JoinQuery, LocalJoinScratch, TouchConfig, TouchJoin,
    TouchTree,
};
use touch_geom::Dataset;
use touch_index::str_sort;
use touch_metrics::{Counters, ExecTrace, RunReport};

/// One input of a one-shot join and its expected output.
#[derive(Debug)]
pub struct Sample {
    /// Side A (ε-extended by the query).
    pub a: Dataset,
    /// Side B.
    pub b: Dataset,
    /// Expected pairs, from the plane-sweep baseline.
    pub reference: PairDigest,
}

/// One-shot distance joins; op `i` joins sample `i mod samples`.
#[derive(Debug)]
pub struct OneShot {
    /// The inputs ops cycle through.
    pub samples: Vec<Sample>,
    /// Join distance.
    pub eps: f64,
    /// Worker threads the parallel-layer comparison may use.
    pub threads: usize,
}

/// Output of one op.
type OpOutput = Result<(PairDigest, RunReport), JoinError>;

impl OneShot {
    /// Builds the workload over `(a, b)` inputs, computing each reference
    /// with the plane-sweep baseline.
    pub fn new(
        inputs: impl IntoIterator<Item = (Dataset, Dataset)>,
        eps: f64,
        threads: usize,
    ) -> Result<Self, String> {
        let samples = inputs
            .into_iter()
            .map(|(a, b)| {
                let reference = oracle(&a, &b, eps).map_err(|e| format!("reference join: {e}"))?;
                Ok(Sample { a, b, reference })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(OneShot { samples, eps, threads })
    }

    fn config() -> TouchConfig {
        TouchConfig::default()
    }

    fn query<'a>(&self, sample: &'a Sample) -> JoinQuery<'a> {
        JoinQuery::new(&sample.a, &sample.b)
            .within_distance(self.eps)
            .engine(TouchJoin::new(Self::config()))
    }

    /// One query per sample, each after an untimed warm-up op.
    fn warmed_up(&self) -> Result<Vec<JoinQuery<'_>>, String> {
        self.samples
            .iter()
            .map(|sample| {
                let mut query = self.query(sample);
                Self::op(&mut query).1.map(drop).map_err(|e| format!("warm-up op: {e}"))?;
                Ok(query)
            })
            .collect()
    }

    /// One op: the timed `try_run`, feeding a digest sink.
    fn op(query: &mut JoinQuery<'_>) -> (Duration, OpOutput) {
        let mut digest = PairDigest::default();
        let mut sink = CallbackSink::new(|a, b| digest.add(a, b));
        let (latency, report) = timed(|| query.try_run(&mut sink));
        (latency, report.map(|r| (digest, r)))
    }

    fn check(
        checks: &mut Checks,
        what: &str,
        out: &OpOutput,
        want: &PairDigest,
    ) -> Option<Counters> {
        let digest = out.as_ref().map(|(d, _)| *d).map_err(Clone::clone);
        checks.expect_digest(what, &digest, want);
        out.as_ref().ok().map(|(_, r)| r.counters)
    }

    /// The end-to-end run: timed set-ups, then a closed loop of checked ops.
    pub fn end_to_end(&self, seconds: f64) -> Result<EndToEnd, String> {
        // Each set-up builds the query of one sample and runs its warm-up op.
        let mut built = 0;
        let ((), setup_s) = timed_setups(|| {
            let sample = &self.samples[built % self.samples.len()];
            built += 1;
            Self::op(&mut self.query(sample)).1.map(drop).map_err(|e| format!("warm-up op: {e}"))
        })?;
        let mut queries = self.warmed_up()?;
        let mut run = EndToEnd { setup_s, ..EndToEnd::default() };
        let mut next = 0;
        closed_loop(seconds, MIN_OPS, || {
            let sample = &self.samples[next];
            let (latency, out) = Self::op(&mut queries[next]);
            run.record(latency, (sample.a.len() + sample.b.len()) as u64);
            Self::check(&mut run.checks, "op", &out, &sample.reference);
            next = (next + 1) % self.samples.len();
        });
        Ok(run)
    }

    /// The per-layer run: each iteration runs the untraced op, replays it
    /// through the layers' public functions with spans, runs it once more
    /// with and once without the engine's `ExecTrace`, and compares one
    /// against two worker threads on the replay's tree.
    pub fn per_layer(
        &self,
        seconds: f64,
        rec: &mut Recorder,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let mut queries = self.warmed_up()?;
        let extended: Vec<Dataset> = self.samples.iter().map(|s| s.a.extended(self.eps)).collect();
        let mut next = 0;
        let mut iteration = || {
            let (sample, extended) = (&self.samples[next], &extended[next]);
            let (latency, out) = Self::op(&mut queries[next]);
            next = (next + 1) % self.samples.len();
            let Some(untraced) = Self::check(checks, "op", &out, &sample.reference) else {
                return;
            };
            let op_ns = latency.as_nanos() as f64;

            rec.next_op();
            match self.replay(rec, sample) {
                Ok((digest, replay, tree, plan)) => {
                    checks.expect_eq("replay pairs", &digest, &sample.reference);
                    checks.expect_eq("replay counters", &replay.counters(), &untraced);
                    replay.record(rec, op_ns, layers);
                    let (unsorted, probe) = if plan.build_on_a {
                        (extended.objects(), sample.b.objects())
                    } else {
                        (sample.b.objects(), extended.objects())
                    };
                    let input = ParallelInput {
                        unsorted,
                        tree: &tree,
                        probe,
                        params: &plan.params,
                        partitions: plan.partitions,
                        chunk_size: plan.chunk_size,
                        sort_threshold: plan.sort_threshold,
                        swap: !plan.build_on_a,
                        self_join: false,
                        threads: self.threads,
                        pairs: digest,
                    };
                    speedups(&input, &replay, checks, layers);
                }
                Err(e) => checks.fail("replay", e),
            }

            // Engine tracing overhead: fresh queries on both sides, so both
            // pay the same first-run allocations.
            let (plain_ns, plain) = time_ns(|| Self::op(&mut self.query(sample)).1);
            Self::check(checks, "fresh op", &plain, &sample.reference);
            let trace = ExecTrace::new();
            let (traced_ns, traced) = time_ns(|| Self::op(&mut self.query(sample).trace(&trace)).1);
            Self::check(checks, "ExecTrace op", &traced, &sample.reference);
            layers.push("metrics.trace_overhead_frac", traced_ns / plain_ns - 1.0);
        };
        closed_loop(seconds, MIN_TRACED, &mut iteration);
        Ok(())
    }

    /// Replays one op phase by phase, exactly as the sequential engine runs
    /// it: validation and ε-extension, planning, STR sort, packing,
    /// assignment and per-node local joins. Returns the pairs, the phase
    /// counters, and the tree and plan for the parallel comparison.
    fn replay(
        &self,
        rec: &mut Recorder,
        sample: &Sample,
    ) -> Result<(PairDigest, CoreReplay, TouchTree, JoinPlan), String> {
        let root = rec.enter("op");
        let mut extended = Dataset::new();
        let valid = rec.leaf("core.query.prep", || {
            sample.a.validate()?;
            sample.b.validate()?;
            sample.a.extend_into(self.eps, &mut extended);
            Ok::<_, touch_geom::InvalidGeometry>(())
        });
        if let Err(e) = valid {
            rec.exit(root);
            return Err(format!("invalid input: {e:?}"));
        }
        let plan = JoinPlan::from_touch_config(&Self::config(), &extended, &sample.b);
        let build_on_a = plan.build_on_a;
        let (tree_ds, probe_ds) =
            if build_on_a { (&extended, &sample.b) } else { (&sample.b, &extended) };

        let mut items = tree_ds.objects().to_vec();
        let cap = TouchTree::leaf_capacity(items.len(), plan.partitions);
        rec.leaf("index.str_sort", || str_sort(&mut items, |o| o.mbr.center(), cap));
        let mut tree = rec
            .leaf("core.tree.pack", || TouchTree::from_tiled(items, plan.partitions, plan.fanout));
        let mut assign = Counters::new();
        rec.leaf("core.assign", || tree.assign(probe_ds.objects(), &mut assign));

        let join_span = rec.enter("core.join");
        let mut join = Counters::new();
        let mut digest = PairDigest::default();
        let mut emit = |t, p| {
            if build_on_a {
                digest.add(t, p);
            } else {
                digest.add(p, t);
            }
            true
        };
        let mut scratch = LocalJoinScratch::new();
        let mut scratch_bytes = 0;
        for node in tree.nodes_with_assignments() {
            scratch_bytes = rec.leaf("core.join.node", || {
                tree.local_join_node(node, &plan.params, &mut scratch, &mut join, &mut emit)
            });
        }
        rec.exit(join_span);
        rec.exit(root);
        join.results += digest.count;

        let replay = CoreReplay {
            root,
            nodes_root: join_span,
            tree_len: tree_ds.len(),
            probe_len: probe_ds.len(),
            assign,
            join,
            scratch_bytes,
        };
        Ok((digest, replay, tree, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_datagen::{SyntheticDistribution, SyntheticSpec};

    fn small() -> OneShot {
        let mut spec = SyntheticSpec::new(3_000, SyntheticDistribution::Uniform);
        spec.space.size = 100.0;
        let inputs = [(spec.generate(1), spec.generate(2)), (spec.generate(3), spec.generate(4))];
        OneShot::new(inputs, 1.0, 2).expect("valid input")
    }

    #[test]
    fn every_op_matches_the_reference() {
        let run = small().end_to_end(0.0).expect("runs");
        assert_eq!(run.op_ms.len(), MIN_OPS);
        assert_eq!(run.checks.attempted, MIN_OPS as u64);
        assert_eq!(run.checks.failed_frac(), 0.0);
    }

    #[test]
    fn a_wrong_reference_fails_the_ops_it_checks() {
        let mut workload = small();
        workload.samples[1].reference.sum ^= 1;
        let run = workload.end_to_end(0.0).expect("runs");
        assert_eq!(run.checks.failed_frac(), 0.5);
    }

    #[test]
    fn the_replay_is_bit_identical_to_the_untraced_op() {
        let workload = small();
        let mut rec = Recorder::default();
        let mut layers = Layers::default();
        let mut checks = Checks::default();
        workload.per_layer(0.0, &mut rec, &mut layers, &mut checks).expect("runs");
        assert!(checks.attempted >= MIN_TRACED as u64 * 5);
        assert_eq!(checks.failed, 0);
        assert!(layers.value("core.join.comparisons") > 0.0);
        assert!(layers.value("core.assign.ns_per_b") > 0.0);
        assert!(layers.value("parallel.join.speedup") > 0.0);
    }
}
