//! The `serve_churn` workload: one op is one write-and-read cycle on a
//! `JoinServer` — move objects of A (`remove` + `insert`), `try_publish` the
//! incremental fold, then `SnapshotReader::try_query` the next window of B,
//! writer and reader on one thread.

use crate::harness::{
    closed_loop, oracle_objects, time_ns, timed, timed_setups, Checks, CoreReplay, EndToEnd,
    Layers, MIN_OPS, MIN_TRACED,
};
use crate::parallel::{speedups, ParallelInput};
use crate::spans::Recorder;
use crate::stats::{median, PairDigest};
use std::hint::black_box;
use std::time::Duration;
use touch_core::{
    AssignmentBuffer, CallbackSink, ExecControl, JoinError, JoinPlanner, LocalJoinScratch,
    TouchTree,
};
use touch_datagen::SeededRng;
use touch_geom::{Aabb, Dataset, ObjectId, Point3, SpatialObject};
use touch_metrics::{Counters, ExecTrace, RunReport};
use touch_serve::{JoinServer, ServeConfig, SnapshotReader};

/// Every this many timed cycles, the query's pairs are checked against the
/// reference join; the others are checked for a consistent pair count.
const REFERENCE_EVERY: usize = 10;
/// How far one move shifts an object along each axis, at most.
const MAX_SHIFT: f64 = 5.0;
/// Full-rebuild publishes timed at the end of a per-layer run.
const REBUILDS: usize = 3;

/// The served A side, the B stream its windows come from, and the churn.
#[derive(Debug)]
pub struct Churn {
    /// The ε-extended A side the server starts from.
    pub a: Dataset,
    /// The B side, queried one window at a time.
    pub b: Dataset,
    /// Objects of A moved per cycle.
    pub moves: usize,
    /// Objects of B queried per cycle.
    pub window: usize,
    /// Threads the parallel-layer comparison may use.
    pub threads: usize,
    /// Seed of the moves.
    pub seed: u64,
}

/// A server, its reader, and the writer's view of the live A side.
struct State<'a> {
    churn: &'a Churn,
    server: JoinServer,
    reader: SnapshotReader,
    /// Live objects of A, each at a fixed slot; a move replaces the slot.
    live: Vec<SpatialObject>,
    rng: SeededRng,
    cycle: usize,
}

/// The moves of one cycle: a slot of `live` and the box it moves to.
type Moves = Vec<(usize, Aabb)>;

/// Output of one query: its pairs and report, or the error it returned.
type QueryOutput = Result<(PairDigest, RunReport), JoinError>;

impl Churn {
    /// Objects one cycle processes: the window plus the moved objects.
    pub fn objects_per_op(&self) -> u64 {
        (self.window + self.moves) as u64
    }

    fn state(&self) -> State<'_> {
        let server = JoinServer::new(&self.a, ServeConfig::default());
        let reader = server.reader();
        State {
            churn: self,
            server,
            reader,
            live: self.a.objects().to_vec(),
            rng: SeededRng::new(self.seed),
            cycle: 0,
        }
    }

    /// A server and reader after one untimed warm-up cycle.
    fn warmed_up(&self) -> Result<State<'_>, String> {
        let mut state = self.state();
        state.cycle().1.map(drop).map_err(|e| format!("warm-up cycle: {e}"))?;
        Ok(state)
    }

    /// The end-to-end run: timed set-ups, then a closed loop of cycles.
    pub fn end_to_end(&self, seconds: f64) -> Result<EndToEnd, String> {
        let (mut state, setup_s) = timed_setups(|| self.warmed_up())?;
        let mut run = EndToEnd { setup_s, ..EndToEnd::default() };
        closed_loop(seconds, MIN_OPS, || {
            let (latency, out) = state.cycle();
            run.record(latency, self.objects_per_op());
            if run.op_ms.len() % REFERENCE_EVERY == 1 {
                state.check_reference(&out, &mut run.checks);
            } else {
                match &out {
                    Ok((digest, report)) => {
                        run.checks.expect_eq(
                            "query pair count",
                            &digest.count,
                            &report.result_pairs(),
                        );
                    }
                    Err(e) => run.checks.fail("cycle", e),
                }
            }
        });
        Ok(run)
    }

    /// The per-layer run: each iteration moves and publishes inside spans,
    /// replays the query through the layers' public functions, runs the
    /// untraced query and one under the engine's `ExecTrace` on the same
    /// generation, replays the fold's packing, and compares one against two
    /// threads. Full-rebuild publishes are timed at the end.
    pub fn per_layer(
        &self,
        seconds: f64,
        rec: &mut Recorder,
        layers: &mut Layers,
        checks: &mut Checks,
    ) -> Result<(), String> {
        let mut state = self.warmed_up()?;
        let mut buffer = AssignmentBuffer::new();
        let mut scratch = LocalJoinScratch::new();
        closed_loop(seconds, MIN_TRACED, || {
            state.traced_cycle(rec, &mut buffer, &mut scratch, layers, checks);
        });
        for _ in 0..REBUILDS {
            let limit = JoinPlanner::default().delta_rebuild_limit(state.live.len());
            let moves = state.plan_moves(limit / 2 + 1);
            let ids = match state.mutate(&moves) {
                Ok(ids) => ids,
                Err(e) => {
                    checks.fail("rebuild moves", e);
                    continue;
                }
            };
            let (ns, published) = time_ns(|| state.server.try_publish(ExecControl::infallible()));
            if let Err(e) = published {
                checks.fail("rebuild publish", e);
                continue;
            }
            state.commit(&moves, &ids);
            layers.push("serve.publish_rebuild_ms", ns / 1e6);
            let batch = window_of(self, state.cycle);
            state.cycle += 1;
            let out = query(&mut state.reader, batch, ExecControl::infallible()).1;
            state.check_reference(&out, checks);
        }
        Ok(())
    }
}

impl State<'_> {
    /// Picks `n` distinct slots and a shifted box for each.
    fn plan_moves(&mut self, n: usize) -> Moves {
        let mut taken = vec![false; self.live.len()];
        let mut moves = Vec::with_capacity(n);
        while moves.len() < n.min(self.live.len()) {
            let slot = self.rng.index(self.live.len());
            if std::mem::replace(&mut taken[slot], true) {
                continue;
            }
            let mut shift = || self.rng.uniform(-MAX_SHIFT, MAX_SHIFT);
            let d = Point3::new(shift(), shift(), shift());
            let mbr = self.live[slot].mbr;
            moves.push((slot, Aabb::new(mbr.min + d, mbr.max + d)));
        }
        moves
    }

    /// Buffers the moves on the server: the old object out, the moved one in.
    fn mutate(&self, moves: &Moves) -> Result<Vec<ObjectId>, String> {
        moves
            .iter()
            .map(|&(slot, mbr)| {
                let old = self.live[slot].id;
                if self.server.remove(old) {
                    Ok(self.server.insert(mbr))
                } else {
                    Err(format!("remove({old}) found no such object"))
                }
            })
            .collect()
    }

    /// Records the moves in the writer's view once they are published.
    fn commit(&mut self, moves: &Moves, ids: &[ObjectId]) {
        for (&(slot, mbr), &id) in moves.iter().zip(ids) {
            self.live[slot] = SpatialObject::new(id, mbr);
        }
    }

    /// One timed cycle: moves, publish, query.
    fn cycle(&mut self) -> (Duration, QueryOutput) {
        let moves = self.plan_moves(self.churn.moves);
        let batch = window_of(self.churn, self.cycle);
        let (latency, out) = timed(|| {
            let ids = self.mutate(&moves).map_err(|detail| JoinError::InvalidInput { detail })?;
            self.server.try_publish(ExecControl::infallible())?;
            let out = query(&mut self.reader, batch, ExecControl::infallible()).1;
            Ok::<_, JoinError>((ids, out))
        });
        self.cycle += 1;
        match out {
            Ok((ids, out)) => {
                self.commit(&moves, &ids);
                (latency, out)
            }
            Err(e) => (latency, Err(e)),
        }
    }

    /// Checks the last query against the reference join of the live A side
    /// with the window it queried.
    fn check_reference(&self, out: &QueryOutput, checks: &mut Checks) {
        let batch = window_of(self.churn, self.cycle - 1);
        match oracle_objects(&self.live, batch) {
            Ok(want) => {
                checks.expect_digest("query", &out.clone().map(|(d, _)| d), &want);
            }
            Err(e) => checks.fail("query reference", e),
        }
    }

    fn traced_cycle(
        &mut self,
        rec: &mut Recorder,
        buffer: &mut AssignmentBuffer,
        scratch: &mut LocalJoinScratch,
        layers: &mut Layers,
        checks: &mut Checks,
    ) {
        let moves = self.plan_moves(self.churn.moves);
        let batch = window_of(self.churn, self.cycle);
        self.cycle += 1;
        let config = *self.server.config();
        rec.next_op();
        let root = rec.enter("op");
        let mutate_span = rec.enter("serve.mutate");
        let ids = self.mutate(&moves);
        rec.exit(mutate_span);
        let publish_span = rec.enter("serve.publish_fold");
        let published = self.server.try_publish(ExecControl::infallible());
        rec.exit(publish_span);
        let ids = match (ids, published) {
            (Ok(ids), Ok(_)) => ids,
            (Err(e), _) => {
                rec.exit(root);
                return checks.fail("moves", e);
            }
            (_, Err(e)) => {
                rec.exit(root);
                return checks.fail("publish", e);
            }
        };
        self.commit(&moves, &ids);

        // The query, replayed as `SnapshotReader::try_query` runs it.
        let snapshot = rec.leaf("serve.snapshot", || self.server.snapshot());
        let tree = snapshot.tree();
        let cfg = &config.touch;
        let params = cfg.local_join_params(
            snapshot.a_cell_floor().max(cfg.min_local_cell_size_of_objects(batch)),
        );
        let mut assign = Counters::new();
        rec.leaf("core.assign", || {
            buffer.clear();
            buffer.assign(tree, batch, &mut assign);
        });
        let join_span = rec.enter("core.join");
        let mut join = Counters::new();
        let mut pairs = PairDigest::default();
        let mut scratch_bytes = 0;
        let mut work = Vec::new();
        buffer.work_into(tree, &mut work);
        for node in work {
            scratch_bytes = rec.leaf("core.join.node", || {
                tree.local_join_node_ext(
                    node,
                    buffer.node_objects(node),
                    &params,
                    scratch,
                    &mut join,
                    &mut |a, b| {
                        pairs.add(a, b);
                        true
                    },
                )
            });
        }
        join.results += pairs.count;
        rec.exit(join_span);
        rec.exit(root);

        // The untraced query on the same generation and window.
        let (query_latency, out) = query(&mut self.reader, batch, ExecControl::infallible());
        let (digest, report) = match &out {
            Ok(output) => output,
            Err(e) => return checks.fail("query", e),
        };
        self.check_reference(&out, checks);
        let replay = CoreReplay {
            root,
            nodes_root: join_span,
            tree_len: tree.a_len(),
            probe_len: batch.len(),
            assign,
            join,
            scratch_bytes,
        };
        checks.expect_eq("replay pairs", &pairs, digest);
        checks.expect_eq("replay counters", &replay.counters(), &report.counters);
        let write_ns = rec.span(mutate_span).duration_ns() + rec.span(publish_span).duration_ns();
        let op_ns = write_ns as f64 + query_latency.as_nanos() as f64;
        replay.record(rec, op_ns, layers);
        layers.push("serve.publish_fold_ms", rec.span(publish_span).duration_ns() as f64 / 1e6);
        layers.push("serve.query_ms", query_latency.as_secs_f64() * 1e3);

        let trace = ExecTrace::new();
        let (traced_latency, traced) =
            query(&mut self.reader, batch, ExecControl::with_trace(&trace));
        checks.expect_digest("ExecTrace query", &traced.map(|(d, _)| d), digest);
        layers.push(
            "metrics.trace_overhead_frac",
            traced_latency.as_secs_f64() / query_latency.as_secs_f64() - 1.0,
        );

        let snapshot_ns: Vec<f64> = (0..5)
            .map(|_| {
                let (ns, _) = time_ns(|| {
                    for _ in 0..1_000 {
                        black_box(self.server.snapshot());
                    }
                });
                ns / 1_000.0
            })
            .collect();
        layers.push("serve.snapshot_ns", median(&snapshot_ns));

        // The fold's packing, replayed over the tiled order it produced.
        let fold = rec.enter("serve.fold_replay");
        let repacked = rec.leaf("core.tree.pack", || {
            TouchTree::from_tiled(tree.a_objects().to_vec(), cfg.partitions, cfg.fanout)
        });
        rec.exit(fold);
        checks.expect_eq(
            "repacked tree",
            &(repacked.a_objects() == tree.a_objects(), repacked.node_count()),
            &(true, tree.node_count()),
        );
        layers.push(
            "core.tree.pack.ns_per_obj",
            rec.self_ns_named(fold, "core.tree.pack") as f64 / tree.a_len() as f64,
        );

        let input = ParallelInput {
            unsorted: &self.live,
            tree,
            probe: batch,
            params: &params,
            partitions: cfg.partitions,
            chunk_size: JoinPlanner::DEFAULT_CHUNK_SIZE,
            sort_threshold: JoinPlanner::DEFAULT_SORT_THRESHOLD,
            swap: false,
            self_join: false,
            threads: self.churn.threads,
            pairs: *digest,
        };
        speedups(&input, &replay, checks, layers);
    }
}

/// The B window cycle `cycle` queries: consecutive windows, wrapping around.
fn window_of(churn: &Churn, cycle: usize) -> &[SpatialObject] {
    let windows = (churn.b.len() / churn.window).max(1);
    let start = (cycle % windows) * churn.window;
    let end = (start + churn.window).min(churn.b.len());
    &churn.b.objects()[start..end]
}

/// One query of `batch` into a digest sink, timed around `try_query`.
fn query(
    reader: &mut SnapshotReader,
    batch: &[SpatialObject],
    ctl: ExecControl<'_>,
) -> (Duration, QueryOutput) {
    let mut digest = PairDigest::default();
    let mut sink = CallbackSink::new(|a, b| digest.add(a, b));
    let (latency, report) = timed(|| reader.try_query(batch, &mut sink, ctl));
    (latency, report.map(|r| (digest, r)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use touch_datagen::{SyntheticDistribution, SyntheticSpec};

    fn small() -> Churn {
        let mut spec = SyntheticSpec::new(4_000, SyntheticDistribution::Uniform);
        spec.space.size = 100.0;
        Churn {
            a: spec.generate(1).extended(1.0),
            b: spec.generate(2),
            moves: 32,
            window: 256,
            threads: 2,
            seed: 3,
        }
    }

    #[test]
    fn cycles_match_the_reference_and_the_replay() {
        let workload = small();
        let run = workload.end_to_end(0.0).expect("runs");
        assert_eq!(run.op_ms.len(), MIN_OPS);
        assert_eq!(run.checks.failed, 0);

        let mut rec = Recorder::default();
        let mut layers = Layers::default();
        let mut checks = Checks::default();
        workload.per_layer(0.0, &mut rec, &mut layers, &mut checks).expect("runs");
        assert_eq!(checks.failed, 0);
        assert!(layers.value("serve.publish_fold_ms") > 0.0);
        assert!(layers.value("serve.publish_rebuild_ms") > 0.0);
        assert!(layers.value("core.tree.pack.ns_per_obj") > 0.0);
    }
}
