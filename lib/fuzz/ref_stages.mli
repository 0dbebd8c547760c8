(** Reference engines for the post-PTA stages, and the comparator that
    certifies the production stages against them.

    Each reference is the seed's formulation of its stage, kept here, in
    the differential tester, so the shipped libraries carry one engine per
    stage:

    - {!shb} walks the AST per origin with structural points-to queries
      instead of scanning the flat opcode streams;
    - {!detect} groups accesses and classes nodes on structural keys
      through the polymorphic hash, and finds origin blocks from the full
      m×m table of nested bool relation matrices; it answers every
      happens-before query with its own BFS over the reference trace's
      edges, never with {!Graph}'s closure;
    - {!osa} runs Algorithm 1 over its own AST walk ({!iter_origin},
      {!of_stmt}) with structural targets, flagging a location's
      self-parallel accessors from {!O2_pta.Solver.self_parallel}.

    None of them reads the production origin walker
    ({!O2_pta.Walk.iter_origins}), so each checks it independently.
    {!check} compares stage by stage on one solve. *)

open O2_ir
open O2_pta
open O2_shb
open O2_race

(** [iter_origin a sp f] calls [f m ctx s] for every statement [s] of every
    method instance ⟨m, ctx⟩ reachable within origin [sp], in program
    order: the seed's AST walk, following {!Solver.callees} at every call,
    [new] and static call, stopping at [start]/[post], each instance once. *)
val iter_origin :
  Solver.result ->
  Solver.spawn ->
  (Program.meth -> Context.t -> Ast.stmt -> unit) ->
  unit

(** [of_stmt a m ctx s] is the access statement [s] of instance ⟨m, ctx⟩
    performs: its targets (for a field or array access, one per object the
    base may point to, in descending object id) and whether it writes.
    [None] for non-access statements. *)
val of_stmt :
  Solver.result ->
  Program.meth ->
  Context.t ->
  Ast.stmt ->
  (Access.target list * bool) option

(** [field_of_target t] is the field name races are deduplicated and
    compared by: [f] for an instance field, [C::f] for a static. *)
val field_of_target : Access.target -> string

(** The SHB trace: every node, id-ascending, plus the spawn and join edge
    lists in {!Graph.spawn_edges}/{!Graph.join_edges} form and order, and
    the §4.3 semaphore edges in {!Graph.sem_edges} form, derived from the
    trace's own signal and wait nodes. *)
type trace = {
  nodes : Graph.node list;
  spawn_edges : (int * int * int) list;
  join_edges : (int * int * int) list;
  sem_edges : (int * int * int * int) list;
}

(** [shb a] is the reference SHB trace; the parameters mean what they mean
    for {!Graph.build}. *)
val shb : ?serial_events:bool -> ?lock_region:bool -> Solver.result -> trace

(** [detect g t] is the reference race detection over the access nodes of
    [g], with happens-before derived from the trace [t] alone: thresholds,
    entry positions and node intervals come from [t]'s edges, and
    reachability is a BFS per (origin, interval), memoized and run only
    for origins that meet in a target group. It reads none of [g]'s HB
    state and leaves its HB-query counter alone. With [budget], it checks
    the budget before each target group and, inside a group, once per row
    of the origin relation table and once per candidate origin block.

    @raise O2_util.Budget.Exhausted when [budget] runs out. *)
val detect : ?budget:O2_util.Budget.t -> Graph.t -> trace -> Detect.report

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
    lockset) plus the spawn and join edge lists and the set of semaphore
    edges; [report] must be [=] to {!detect}'s on the reference trace; the
    OSA counts and shared locations of [Osa.run a] must equal {!osa}'s.
    It returns one [(stage, detail)] per disagreement, stage being
    ["shb"], ["race"] or ["osa"]; [[]] means every stage agrees. [budget]
    is passed on to {!detect}.

    @raise O2_util.Budget.Exhausted when [budget] runs out. *)
val check :
  ?serial_events:bool ->
  ?lock_region:bool ->
  ?budget:O2_util.Budget.t ->
  Solver.result ->
  Graph.t ->
  Detect.report ->
  (string * string) list
