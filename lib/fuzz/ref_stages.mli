(** Reference engines for the post-PTA stages, and the comparator that
    certifies the production stages against them.

    Each reference is the seed's formulation of its stage, kept here, in
    the differential tester, so the shipped libraries carry one engine per
    stage:

    - {!shb} walks the AST per origin with structural points-to queries
      instead of scanning the flat opcode streams;
    - {!detect} groups accesses and classes nodes on structural keys
      through the polymorphic hash, with nested bool relation matrices and
      no closure-query memo;
    - {!osa} runs Algorithm 1 over {!O2_pta.Walk.iter_origin} with
      structural targets.

    {!check} compares stage by stage on one solve. *)

open O2_pta
open O2_shb
open O2_race

(** [field_of_target t] is the field name races are deduplicated and
    compared by: [f] for an instance field, [C::f] for a static. *)
val field_of_target : Access.target -> string

(** The SHB trace: every node, id-ascending, plus the spawn and join edge
    lists in {!Graph.spawn_edges}/{!Graph.join_edges} form and order. *)
type trace = {
  nodes : Graph.node list;
  spawn_edges : (int * int * int) list;
  join_edges : (int * int * int) list;
}

(** [shb a] is the reference SHB trace; the parameters mean what they mean
    for {!Graph.build}. *)
val shb : ?serial_events:bool -> ?lock_region:bool -> Solver.result -> trace

(** [detect g] is the reference race detection over [g]. It leaves the
    graph's HB-query counter alone. *)
val detect : Graph.t -> Detect.report

(** The reference OSA's gated counts and its shared locations. *)
type osa = {
  stmts_scanned : int;  (** [osa.stmts_scanned] *)
  accesses : int;  (** [osa.accesses] *)
  locations : int;  (** [osa.locations] *)
  shared_accesses : int;  (** {!O2_osa.Osa.n_shared_accesses} *)
  shared : O2_osa.Osa.sharing list;  (** {!O2_osa.Osa.shared_locations} *)
}

val osa : Solver.result -> osa

(** [check a g report] compares the production stages on one solve [a]
    with their references: [g] is the SHB graph built from [a] under the
    same [serial_events]/[lock_region] and [report] its detection report.
    The trace is compared node for node (id, origin, sid, pos, kind,
    lockset) plus both edge lists; [report] must be [=] to {!detect}'s; the
    OSA counts and shared locations of [Osa.run a] must equal {!osa}'s.
    It returns one [(stage, detail)] per disagreement, stage being
    ["shb"], ["race"] or ["osa"]; [[]] means every stage agrees. *)
val check :
  ?serial_events:bool ->
  ?lock_region:bool ->
  Solver.result ->
  Graph.t ->
  Detect.report ->
  (string * string) list
