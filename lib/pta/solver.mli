(** The on-the-fly-call-graph pointer-analysis solver (Table 2).

    One solver covers all four policies ({!Context.policy}); the origin
    policy implements the paper's OPA rules:

    - ❶–❻ intra-origin constraints: allocations, copies, field and array
      loads/stores under the current context;
    - ❼ non-origin virtual calls keep the {e caller's} context regardless of
      the receiver's origin;
    - ❽ origin allocations (a [new] of a thread/handler class) switch to a
      fresh origin: the object, its [init] call and the constructor
      arguments' formals live in the new origin (Figure 3's context switch),
      with the [k=1] wrapper-call-site extension and loop doubling;
    - ❾ origin entry points ([start]/[post]) run the entry method in the
      origin attached to the receiver object at its allocation.

    {2 The solve loop}

    One serial difference-propagation worklist, run in rounds until
    quiescent. A round first turns each newly reached method instance into
    constraints, scanning its flat opcode stream in task order (the
    ["pta.apply"] timer). Copy cycles are then collapsed
    ({!Pag.collapse_sccs}) when the graph has grown enough, points-to
    deltas propagate to fixpoint ({!Pag.propagate}), and watcher deliveries
    flush ({!Pag.flush_fires}); the bodies those deliveries reach seed the
    next round. Every result, internal ids included, is deterministic.

    Besides points-to sets, the solver records everything the downstream
    analyses need: the context-sensitive call graph, the {e spawns} (static
    thread-start / event-post instances — the race engine's origins, under
    every policy) and the join sites. *)

open O2_ir

(** A static origin instance: [main], a [start] of a thread object or a
    [post] to a handler object. *)
type spawn = {
  sp_id : int;  (** dense index; 0 is [main] *)
  sp_site : int;  (** the start/post sid; -1 for main *)
  sp_entry : Program.meth;  (** entry method (run/handle/… or main) *)
  sp_ectx : Context.t;  (** context the entry body is analyzed under *)
  sp_obj : int;  (** receiver object id; -1 for main *)
  sp_kind : [ `Main | `Thread | `Event ];
  sp_in_loop : bool;
      (** the spawn site is in a loop: the origin may run in parallel with
          itself *)
  sp_attr_nodes : int list;
      (** PAG nodes of the origin attributes: the receiver plus the actuals
          of the entry call (Table 2 ❾) and of the origin allocation (❽) *)
}

type join = {
  jn_site : int;
  jn_meth : Program.meth;
  jn_ctx : Context.t;
  jn_var : Types.vname;
}

(** The solver's internal fact tables (reachability, call edges, the origin
    registry). Query them through the functions below. *)
type tables

(** The instance call graph: the solved context-sensitive call graph
    re-keyed on dense ints, built once per solve. Each reachable
    (method, context) instance carries an instance id ([iid]); the arrays
    give the flat method id, the solved points-to set of every variable
    slot, and (via [ic_callees], keyed [iid * ic_nsids + sid]) the callee
    instances of every call site, in {!callees} order. The flat SHB/OSA
    walkers traverse this with array probes and one int-keyed lookup per
    call site — no structural context hashing past the solve. *)
type icg = {
  ic_n : int;  (** instance count *)
  ic_mid : int array;  (** iid -> flat method id *)
  ic_pts : O2_util.Bitset.t array array;
      (** iid -> slot -> solved points-to (shared read-only empty set for
          slots the solve never interned) *)
  ic_callees : (int, int array) Hashtbl.t;
      (** [iid * ic_nsids + call sid] -> callee iids *)
  ic_entry : int array;  (** spawn id -> entry instance *)
  ic_nsids : int;  (** exclusive sid bound used by the packing *)
}

(** What a solve produces. The commonly consumed facts are plain fields;
    table-backed queries ({!pts_var}, {!callees}, {!origins}, …) take the
    whole record. *)
type result = {
  program : Program.t;
  flat : Flat.t;  (** the dense lowering the solve scanned *)
  policy : Context.policy;
  pag : Pag.t;  (** the solved pointer-assignment graph *)
  spawns : spawn array;  (** all origin instances, [main] first *)
  joins : join list;  (** join sites; targets resolve via {!pts_var} *)
  stats : O2_util.Metrics.t;
      (** the metrics sink the run recorded into — the one passed to
          {!analyze}, or a private one created when none was *)
  tables : tables;
  icg : icg;  (** the dense instance call graph (["pta.icg"] span) *)
}

(** [analyze ?policy ?jobs ?metrics ?budget p] runs the whole-program
    analysis from [main]. Default policy is [Korigin 1] (the paper's O2
    configuration).

    [jobs] has no effect: the solve is serial. The label is accepted
    (and validated) so callers that pass one keep compiling.

    When [metrics] is given it is used as the observability sink: the solve
    is wrapped in a ["pta.solve"] span and the Table 6 counters
    ([pta.pointers], [pta.objects], [pta.edges], [pta.worklist_iters],
    [pta.pts_facts], [pta.origins], …) plus the solve-loop counters
    ([pta.rounds], [pta.tasks], [pta.fires], [pta.scc_collapsed]) are
    recorded into it.

    When [budget] is given, the propagation loop checks it on every pop and
    lets {!O2_util.Budget.Exhausted} escape when the wall-clock deadline
    or the worklist-step ceiling is passed — callers (the batch driver)
    turn that into a structured timeout entry. The step count it sees is
    exact: a solve needing [N] pops ([pta.worklist_iters]) completes under
    a ceiling of [N] and is exhausted under [N - 1].

    @raise Invalid_argument on a k-limited policy with [k < 1]
    (see {!Context.validate_policy}) or [jobs < 1].
    @raise O2_util.Budget.Exhausted when [budget] runs out mid-solve. *)
val analyze :
  ?policy:Context.policy ->
  ?jobs:int ->
  ?metrics:O2_util.Metrics.t ->
  ?budget:O2_util.Budget.t ->
  Program.t ->
  result

(** [pts_var r m ctx v] is the points-to set of local [v] of method [m]
    under context [ctx] (empty if never seen). *)
val pts_var :
  result -> Program.meth -> Context.t -> Types.vname -> O2_util.Bitset.t

(** [callees r ~site ~ctx] resolves a call site analyzed under [ctx] to its
    callee instances; includes virtual, static and [init] calls, not
    spawns. *)
val callees :
  result -> site:int -> ctx:Context.t -> (Program.meth * Context.t) list

(** [origins r] is the origin registry (origin policy only; other policies
    see just the main origin). Indexed by origin id. *)
val origins : result -> Context.origin array

(** [origin_attrs r og] is the points-to closure of origin [og]'s attribute
    pointers — "the data pointers" of §3.1, for reports and OSA output. *)
val origin_attrs : result -> int -> int list

(** [origin_of_spawn r sp] is the canonical origin identity of a spawn.
    Under the origin policy two [post] sites delivering to the same handler
    object are the {e same} origin (rule ❾ attaches the origin at the
    allocation), so OSA must not count them as two accessors; under other
    policies each spawn is its own origin. *)
val origin_of_spawn : result -> spawn -> int

(** [reached r] lists analyzed method instances. *)
val reached : result -> (Program.meth * Context.t) list

(** [is_reached r m] is true iff [m] is analyzed under some context. *)
val is_reached : result -> Program.meth -> bool

(** [n_origins r] is the paper's #O: origins excluding main (origin policy),
    or the number of non-main spawns otherwise. *)
val n_origins : result -> int

(** [fingerprint r] is the canonical identifier-free dump of all solved
    facts: every non-empty points-to set, every spawn, every call edge and
    every join site, rendered structurally (interned object/origin ids are
    expanded) and sorted — equal strings iff the two analyses agree on
    every fact. *)
val fingerprint : result -> string

(** [fingerprint_parts] renders {!fingerprint}'s format from raw parts, so
    any solver — including a reference implementation with its own tables —
    can emit comparable fingerprints; [origin_of] expands an interned
    origin id into its structural record. *)
val fingerprint_parts :
  origin_of:(int -> Context.origin) ->
  iter_nodes:((Pag.node -> O2_util.Bitset.t -> unit) -> unit) ->
  obj_of:(int -> Pag.obj) ->
  spawns:
    (int * string * Program.meth * Context.t * Pag.obj option * bool) list ->
  call_edges:(int * Context.t * Program.meth * Context.t) list ->
  joins:(int * Types.cname * Types.mname * Context.t * Types.vname) list ->
  string
