(** Differential race reporting between two program versions — the
    workflow of the paper's D4 lineage (concurrency debugging as code
    changes) on top of the batch engine.

    Races are keyed by stable descriptors (class.field plus both access
    kinds and source lines) rather than statement ids, so reports from two
    compilations of edited source align. *)

type race_key = {
  k_field : string;  (** "Class.field" or "Class::static" *)
  k_kind_a : string;  (** "read" | "write" *)
  k_kind_b : string;
  k_line_a : int;
  k_line_b : int;
}

type delta = {
  introduced : race_key list;  (** in the new version only *)
  fixed : race_key list;  (** in the old version only *)
  unchanged : race_key list;  (** exact key matches *)
  moved : (race_key * race_key) list;
      (** same field and access kinds, shifted source lines — edited code,
          not a new defect *)
}

(** [key_of a race] is the stable descriptor of a detected race. *)
val key_of : O2_pta.Solver.result -> Detect.race -> race_key

(** [keys a report] is the sorted, deduplicated race keys of one version's
    solve and detection report (the [solver] and [report] of an [O2.run]
    result). Each version is analyzed on its own, so callers (the CLI) can
    put each side behind its own fault boundary: a parse or analysis
    failure on one version then degrades to a structured per-side error
    instead of aborting the comparison wholesale. *)
val keys : O2_pta.Solver.result -> Detect.report -> race_key list

(** [align old_keys new_keys] aligns two key sets (exact matches, then
    same-shape line moves). *)
val align : race_key list -> race_key list -> delta

val pp_key : Format.formatter -> race_key -> unit
val pp : Format.formatter -> delta -> unit
