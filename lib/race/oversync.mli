(** Over-synchronization analysis — the second §3 "beyond races" client.

    A [sync] region whose guarded accesses all touch origin-local locations
    (per OSA) excludes nobody: the lock is removable, a performance bug the
    paper's commercial deployment also reports. The analysis is only as good
    as the sharing classification — under 0-ctx, falsely-shared locals make
    almost every lock look necessary, another face of the precision
    argument. *)

type finding = {
  ov_site : int;  (** the sync statement id *)
  ov_pos : O2_ir.Types.pos;
  ov_origin : int;  (** spawn id executing the region *)
  ov_accesses : int;  (** guarded accesses, all origin-local *)
}

type report = { findings : finding list }

val n_findings : report -> int

(** [run a osa] scans every lock region of every origin of the solve
    [a], e.g. with the [solver] and [osa] of an [O2.run] result. A guarded
    location needs the lock when [osa] calls it shared: a writer and two
    accessors, a self-parallel origin counting as two
    ({!O2_osa.Osa.is_shared}). A region's accesses include those of the
    regions nested in it; a region containing a call is kept. Regions with
    no accesses at all are not reported (empty regions are usually fences
    in disguise). Findings come in walk order, an outer region before the
    regions nested in it, once per sync site. *)
val run : O2_pta.Solver.result -> O2_osa.Osa.t -> report

val pp_finding : Format.formatter -> finding -> unit
