//! The `tick_selfjoin` workload: one op is one `TickEngine::try_tick` — step
//! the world, rebuild the hierarchy, assign and self-join on two threads.

use crate::harness::{
    closed_loop, counters_delta, oracle_self, timed, timed_setups, Checks, CoreReplay, EndToEnd,
    Layers, MIN_OPS, MIN_TRACED,
};
use crate::parallel::{speedups, ParallelInput};
use crate::spans::Recorder;
use crate::stats::PairDigest;
use std::hint::black_box;
use std::time::Duration;
use touch_core::{
    DatasetStats, ExecControl, JoinError, JoinPlan, LocalJoinScratch, ScratchPool, TouchTree,
};
use touch_geom::{Dataset, SpatialObject};
use touch_metrics::{Counters, ExecTrace};
use touch_parallel::phases::{par_assign, par_join_into};
use touch_parallel::sort::par_str_sort;
use touch_sim::{TickConfig, TickEngine, TickRecord, World};

/// Every this many timed ticks, the tick's pairs are checked against the
/// reference join; the others are checked for a consistent pair count.
const REFERENCE_EVERY: usize = 10;

/// Steps the generated world takes before set-up. The clustered spawn
/// disperses over the first ticks (pairs per tick fall from ≈30k to ≈2k
/// within 100 ticks, then change slowly), so without this a run's op mix, and
/// its latency, would depend on how many ticks the run managed.
const WARM_IN_TICKS: usize = 100;

/// A simulated world and the tick configuration it runs under.
#[derive(Debug)]
pub struct Tick {
    /// The world every set-up starts from.
    pub world: World,
    /// Tick configuration (ε, threads, pairs collected).
    pub config: TickConfig,
    /// Threads the parallel layer is compared at, against one.
    pub compare_threads: usize,
}

/// Output of one tick: its pairs and record, or the error it returned.
type TickOutput = Result<(PairDigest, TickRecord), JoinError>;

impl Tick {
    /// `entities` entities from `seed`, stepped [`WARM_IN_TICKS`] times,
    /// joined within `eps` on `threads` threads.
    pub fn new(
        entities: usize,
        seed: u64,
        eps: f64,
        threads: usize,
        compare_threads: usize,
    ) -> Self {
        let config = TickConfig::default().with_epsilon(eps).with_threads(threads);
        let mut world = World::random(entities, seed);
        (0..WARM_IN_TICKS).for_each(|_| world.step(config.dt));
        Tick { world, config, compare_threads }
    }

    /// Entities one tick processes.
    pub fn objects_per_op(&self) -> u64 {
        self.world.len() as u64
    }

    fn engine(&self) -> Result<TickEngine, String> {
        let mut engine = TickEngine::new(self.world.clone(), self.config);
        Self::op(&mut engine, ExecControl::infallible())
            .1
            .map_err(|e| format!("warm-up tick: {e}"))?;
        Ok(engine)
    }

    /// One op: the timed `try_tick`; the pair digest is taken afterwards.
    fn op(engine: &mut TickEngine, ctl: ExecControl<'_>) -> (Duration, TickOutput) {
        let (latency, record) = timed(|| engine.try_tick(ctl));
        let out = record.map(|record| {
            let mut digest = PairDigest::default();
            engine.pairs().iter().for_each(|&(a, b)| digest.add_unordered(a, b));
            (digest, record)
        });
        (latency, out)
    }

    /// Checks a tick against the reference join of the world it ran on.
    fn check_reference(&self, engine: &TickEngine, out: &TickOutput, checks: &mut Checks) {
        let mut dataset = Dataset::new();
        engine.world().fill_dataset(&mut dataset);
        match oracle_self(&dataset, self.config.epsilon) {
            Ok(want) => {
                checks.expect_digest("tick", &out.clone().map(|(d, _)| d), &want);
            }
            Err(e) => checks.fail("tick reference", e),
        }
    }

    /// The end-to-end run: timed set-ups, then a closed loop of ticks.
    pub fn end_to_end(&self, seconds: f64) -> Result<EndToEnd, String> {
        let (mut engine, setup_s) = timed_setups(|| self.engine())?;
        let mut run = EndToEnd { setup_s, ..EndToEnd::default() };
        closed_loop(seconds, MIN_OPS, || {
            let (latency, out) = Self::op(&mut engine, ExecControl::infallible());
            run.record(latency, self.objects_per_op());
            if run.op_ms.len() % REFERENCE_EVERY == 1 {
                self.check_reference(&engine, &out, &mut run.checks);
            } else {
                match &out {
                    Ok((digest, record)) => {
                        run.checks.expect_eq("tick pair count", &digest.count, &record.pairs);
                    }
                    Err(e) => run.checks.fail("tick", e),
                }
            }
        });
        Ok(run)
    }

    /// The per-layer run: each iteration clones the world, runs the
    /// untraced tick, replays it through the layers' public functions with
    /// spans, times the per-node joins on one thread, compares one against
    /// two threads, and runs one tick under the engine's `ExecTrace`.
    pub fn per_layer(
        &self,
        seconds: f64,
        rec: &mut Recorder,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let mut engine = self.engine()?;
        let mut pool = ScratchPool::new();
        let mut replans = 0u32;
        let mut iteration = || {
            let world = engine.world().clone();
            let before = *engine.counters();
            let (latency, out) = Self::op(&mut engine, ExecControl::infallible());
            self.check_reference(&engine, &out, checks);
            let Ok((digest, record)) = out else { return };
            let untraced = counters_delta(engine.counters(), &before);
            let op_ns = latency.as_nanos() as f64;
            replans += u32::from(record.replanned);

            rec.next_op();
            let plan = *engine.plan();
            let mut replay = self.replay(rec, world, &plan, &mut pool);
            checks.expect_eq("replay pairs", &replay.pairs, &digest);
            checks.expect_eq("replay counters", &replay.core.counters(), &untraced);
            let self_ns = |name| rec.self_ns_named(replay.core.root, name) as f64 / 1e6;
            layers.push("sim.step_ms", self_ns("sim.step"));
            layers.push("sim.stats_ms", self_ns("sim.stats"));

            replay.core.nodes_root = rec.enter("core.join.one_thread");
            let mut one_thread = PairDigest::default();
            let mut counters = Counters::new();
            let mut scratch = LocalJoinScratch::new();
            for node in replay.tree.nodes_with_assignments() {
                rec.leaf("core.join.node", || {
                    replay.tree.local_join_node(
                        node,
                        &plan.params,
                        &mut scratch,
                        &mut counters,
                        &mut |a, b| {
                            if a < b {
                                one_thread.add(a, b);
                            }
                            true
                        },
                    )
                });
            }
            rec.exit(replay.core.nodes_root);
            checks.expect_eq("one-thread node joins", &one_thread, &digest);
            replay.core.record(rec, op_ns, layers);

            let input = ParallelInput {
                unsorted: &replay.unsorted,
                tree: &replay.tree,
                probe: replay.probe.objects(),
                params: &plan.params,
                partitions: plan.partitions,
                chunk_size: plan.chunk_size,
                sort_threshold: plan.sort_threshold,
                swap: false,
                self_join: true,
                threads: self.compare_threads,
                pairs: digest,
            };
            speedups(&input, &replay.core, checks, layers);

            let trace = ExecTrace::new();
            let (traced, out) = Self::op(&mut engine, ExecControl::with_trace(&trace));
            self.check_reference(&engine, &out, checks);
            layers.push("metrics.trace_overhead_frac", traced.as_nanos() as f64 / op_ns - 1.0);
        };
        closed_loop(seconds, MIN_TRACED, &mut iteration);
        layers.push("sim.replans", f64::from(replans));
        Ok(())
    }

    /// Replays one tick from a copy of the world it started from, as the
    /// engine runs it: step and dataset refill, statistics, parallel STR
    /// sort, packing, parallel assignment and the self-join phase.
    fn replay(
        &self,
        rec: &mut Recorder,
        mut world: World,
        plan: &JoinPlan,
        pool: &mut ScratchPool,
    ) -> TickReplay {
        let eps = self.config.epsilon;
        let threads = plan.threads();
        let root = rec.enter("op");
        let mut probe = Dataset::new();
        let mut extended = Dataset::new();
        rec.leaf("sim.step", || {
            world.step(self.config.dt);
            world.fill_dataset(&mut probe);
            probe.extend_into(eps, &mut extended);
        });
        rec.leaf("sim.stats", || black_box(DatasetStats::from_objects(extended.objects())));

        let unsorted = extended.objects().to_vec();
        let mut items = unsorted.clone();
        let cap = TouchTree::leaf_capacity(items.len(), plan.partitions);
        rec.leaf("index.str_sort", || par_str_sort(&mut items, cap, threads, plan.sort_threshold));
        let mut tree = rec
            .leaf("core.tree.pack", || TouchTree::from_tiled(items, plan.partitions, plan.fanout));
        let mut assign = Counters::new();
        rec.leaf("core.assign", || {
            par_assign(&mut tree, probe.objects(), plan.chunk_size, threads, &mut assign)
        });

        let join_span = rec.enter("core.join");
        let mut join = Counters::new();
        let mut pairs = PairDigest::default();
        let scratch_bytes = if threads <= 1 {
            let mut scratch_bytes = 0;
            let scratch = pool.primary();
            for node in tree.nodes_with_assignments() {
                scratch_bytes = rec.leaf("core.join.node", || {
                    tree.local_join_node(node, &plan.params, scratch, &mut join, &mut |a, b| {
                        if a < b {
                            pairs.add(a, b);
                        }
                        true
                    })
                });
            }
            join.results += pairs.count;
            scratch_bytes
        } else {
            let mut sink = touch_core::CallbackSink::new(|a, b| pairs.add_unordered(a, b));
            par_join_into(&tree, &plan.params, threads, false, true, &mut sink, pool, &mut join)
        };
        rec.exit(join_span);
        rec.exit(root);

        TickReplay {
            core: CoreReplay {
                root,
                nodes_root: join_span,
                tree_len: extended.len(),
                probe_len: probe.len(),
                assign,
                join,
                scratch_bytes,
            },
            pairs,
            tree,
            unsorted,
            probe,
        }
    }
}

/// What one replayed tick produced.
#[derive(Debug)]
struct TickReplay {
    core: CoreReplay,
    pairs: PairDigest,
    tree: TouchTree,
    unsorted: Vec<SpatialObject>,
    probe: Dataset,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_match_the_reference_and_the_replay() {
        let workload = Tick::new(2_000, 7, 3.0, 2, 2);
        let run = workload.end_to_end(0.0).expect("runs");
        assert_eq!(run.op_ms.len(), MIN_OPS);
        assert_eq!(run.checks.failed, 0);

        let mut rec = Recorder::default();
        let mut layers = Layers::default();
        let mut checks = Checks::default();
        workload.per_layer(0.0, &mut rec, &mut layers, &mut checks).expect("runs");
        assert_eq!(checks.failed, 0);
        assert!(layers.value("sim.step_ms") > 0.0);
        assert!(layers.value("core.join.node_max_us") > 0.0);
    }
}
