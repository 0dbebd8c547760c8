(** The straw-man race detector of §4 ("existing static race detection …
    run a depth-first search starting from one access … and compute the
    locksets for both accesses").

    This is the D4-style baseline O2 is measured against in the ablation
    benchmarks: it stores explicit intra-origin HB edges and answers every
    happens-before query with an uncached DFS over the full node-level
    graph, recomputes lockset intersections as list operations with no
    canonical ids, and performs no lock-region merging (the SHB is built
    with [~lock_region:false]). Its reports agree with {!Detect} — the
    optimizations are sound — which the test suite asserts. *)

open O2_shb

(** [run g] detects races by pairwise DFS. For a faithful baseline build
    [g] without lock-region merging:
    [Graph.build ~lock_region:false (Solver.analyze ~policy p)], or take
    [graph] from [O2.run] under a config with [lock_region = false]. *)
val run : Graph.t -> Detect.report
