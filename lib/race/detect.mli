(** O2's race-detection engine (§4, §4.1).

    Candidate generation follows the hybrid lockset + happens-before scheme:
    two accesses to the same abstract location race iff they come from
    different origins (or one self-parallel origin), at least one is a
    write, their locksets are disjoint, and neither happens-before the
    other. The three §4.1 optimizations are all in play: intra-origin HB is
    an integer comparison and inter-origin HB a lookup into the
    origin-level closure's preorder pieces ({!O2_shb.Graph.hb},
    {!O2_shb.Graph.hb_pieces}); locksets are canonical ids
    with a cached disjointness check ({!O2_shb.Lockset}); and lock-region
    merging happens at SHB construction.

    On top of that, each target group is partitioned into
    (origin, lockset, is-write, HB-interval) equivalence classes
    ({!O2_shb.Graph.hb_t_idx}, {!O2_shb.Graph.hb_q_idx}): one check per
    class pair decides every member pair, and witnesses are recovered per
    surviving class pair, so the reported races are identical to the
    pairwise loop while [n_pairs_checked] drops from O(n²) to
    O(classes²).

    The pass keeps its structures in flat int buffers that live once per
    run, and deduplicates each witness as it is emitted: per (unordered
    statement-site pair, field) it keeps the witness with the least
    [(r_a.n_id, r_b.n_id)], then sorts only the kept ones — the list a
    sort of every witness followed by a first-per-key filter gives. *)

open O2_pta
open O2_shb

type race = {
  r_target : Access.target;
  r_a : Graph.node;
  r_b : Graph.node;  (** [r_a.n_id <= r_b.n_id] *)
}

type report = {
  races : race list;
      (** one witness per (unordered statement-site pair, field), the one
          with the least [(r_a.n_id, r_b.n_id)]; strictly increasing in
          that pair *)
  n_pairs_checked : int;  (** class pairs examined *)
  n_hb_pruned : int;  (** class pairs pruned by happens-before *)
  n_lock_pruned : int;  (** class pairs pruned by common locks *)
  n_class_pruned : int;
      (** node pairs answered for free by class sharing; the pairwise
          loop's pair count is [n_pairs_checked + n_class_pruned] *)
}

(** [n_races r] counts distinct races after source-site deduplication: one
    race per unordered pair of statement sites per field — the unit the
    paper's Tables 8–10 report. [races] is deduplicated by that key
    already, so this is its length. *)
val n_races : report -> int

(** [run ?metrics g] detects races on a built SHB graph in one serial
    pass. With a sink, detection runs inside a ["race.detect"] span and
    records [race.pairs_checked], [race.hb_pruned], [race.lock_pruned],
    [race.class_pruned], [race.candidates] (witnesses kept), [race.races]
    (after source-site dedup; equal to [race.candidates] since witnesses
    are deduplicated as they are found), [shb.hb_queries] and the
    lockset-cache hit/miss snapshot.

    [jobs] has no effect: detection is serial. The label is accepted so
    callers that still pass it keep compiling. *)
val run : ?metrics:O2_util.Metrics.t -> ?jobs:int -> Graph.t -> report
