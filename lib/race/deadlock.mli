(** Static deadlock detection over the SHB graph — one of the §3 analyses
    origins enable beyond race detection.

    Builds the lock-order graph: an edge [l₁ → l₂] whenever some origin
    acquires abstract lock [l₂] while holding [l₁]. A cycle among locks
    whose edges come from at least two different origins that may run in
    parallel (no happens-before between their acquisitions, no common
    guard) is a potential deadlock — the classic AB/BA pattern. The same
    OPA precision that drives race detection drives this analysis: a
    context-insensitive points-to merges per-instance locks and fabricates
    cycles that origins rule out. *)

open O2_shb

type cycle = {
  dl_locks : int list;  (** the abstract lock objects in acquisition order *)
  dl_origins : int list;  (** spawn ids contributing edges to the cycle *)
  dl_sites : int list;  (** acquisition statement ids, one per edge *)
}

type report = { cycles : cycle list }

val n_deadlocks : report -> int

(** [run g] analyzes a built SHB graph, e.g. the [graph] of an [O2.run]
    result. *)
val run : Graph.t -> report

val pp_cycle : Format.formatter -> cycle -> unit
