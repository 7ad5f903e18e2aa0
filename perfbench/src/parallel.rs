//! The `parallel` layer: `touch-parallel`'s sort, assignment and join phases
//! on one thread against several, on the same tree and batch.

use crate::harness::{time_ns, Checks, CoreReplay, Layers};
use crate::stats::PairDigest;
use touch_core::{CallbackSink, LocalJoinParams, ScratchPool, TouchTree};
use touch_geom::SpatialObject;
use touch_metrics::Counters;
use touch_parallel::phases::{par_assign, par_join_into};
use touch_parallel::sort::par_str_sort;

/// The tree and batch one replay ran on, and how its join was configured.
#[derive(Debug)]
pub struct ParallelInput<'a> {
    /// The tree side in its input order (before STR sorting).
    pub unsorted: &'a [SpatialObject],
    /// The replay's tree (its assignment is not used).
    pub tree: &'a TouchTree,
    /// The batch assigned to the tree.
    pub probe: &'a [SpatialObject],
    /// Local-join parameters of the replayed op.
    pub params: &'a LocalJoinParams,
    /// STR leaf count.
    pub partitions: usize,
    /// Assignment chunk size.
    pub chunk_size: usize,
    /// Inputs up to this size are sorted without forking.
    pub sort_threshold: usize,
    /// `true` when the tree holds dataset B (pairs are flipped).
    pub swap: bool,
    /// `true` for a self-join (pairs filtered to `a < b` in the kernel).
    pub self_join: bool,
    /// Threads to compare against one.
    pub threads: usize,
    /// Pairs of the replayed op, as the join reports them.
    pub pairs: PairDigest,
}

/// Adds the `parallel.*.speedup` samples (one-thread time ÷ `threads`-thread
/// time) and checks that every run reproduces the replay's order, counters
/// and pairs.
pub fn speedups(
    input: &ParallelInput<'_>,
    replay: &CoreReplay,
    checks: &mut Checks,
    layers: &mut Layers,
) {
    let cap = TouchTree::leaf_capacity(input.unsorted.len(), input.partitions);
    let mut orders = Vec::new();
    let mut sort_ns = Vec::new();
    for threads in [1, input.threads] {
        let mut items = input.unsorted.to_vec();
        let (ns, _) = time_ns(|| par_str_sort(&mut items, cap, threads, input.sort_threshold));
        sort_ns.push(ns);
        orders.push(items.iter().map(|o| o.id).collect::<Vec<_>>());
    }
    checks.expect_eq("parallel sort order", &orders[1], &orders[0]);
    layers.push("parallel.str_sort.speedup", sort_ns[0] / sort_ns[1]);

    let mut assign_ns = Vec::new();
    let mut join_ns = Vec::new();
    for threads in [1, input.threads] {
        let mut tree = input.tree.clone();
        tree.clear_assignment();
        let mut assign = Counters::new();
        let (ns, _) =
            time_ns(|| par_assign(&mut tree, input.probe, input.chunk_size, threads, &mut assign));
        assign_ns.push(ns);
        checks.expect_eq("parallel assign counters", &assign, &replay.assign);

        let mut digest = PairDigest::default();
        let mut sink = CallbackSink::new(|a, b| {
            if input.self_join {
                digest.add_unordered(a, b);
            } else {
                digest.add(a, b);
            }
        });
        let mut join = Counters::new();
        let (ns, _) = time_ns(|| {
            par_join_into(
                &tree,
                input.params,
                threads,
                input.swap,
                input.self_join,
                &mut sink,
                &mut ScratchPool::new(),
                &mut join,
            )
        });
        join_ns.push(ns);
        checks.expect_eq("parallel join pairs", &digest, &input.pairs);
        checks.expect_eq("parallel join counters", &join, &replay.join);
    }
    layers.push("parallel.assign.speedup", assign_ns[0] / assign_ns[1]);
    layers.push("parallel.join.speedup", join_ns[0] / join_ns[1]);
}
