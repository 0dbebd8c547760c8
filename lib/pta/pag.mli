(** The pointer assignment graph and its difference-propagation worklist.

    Nodes are pointers (variables, returns, object fields, static fields)
    named by dense ids in creation order: the graph stores each node's
    value but never hashes one, so the caller creates every node exactly
    once ({!O2_pta.Solver} keeps one id per instance slot and memoizes
    field and static nodes). Points-to sets are bitsets of interned
    abstract-object ids.
    Complex constraints (loads, stores, virtual calls, origin entries) are
    {e watchers}: callbacks invoked once per new object reaching a base
    node, which is how the call graph is built on the fly (§3.2, "the PAG
    constructed by OPA is built together with the call graph").

    {2 Difference propagation}

    Every node carries two bitsets: the confirmed points-to set [pts n]
    and a pending {e delta} of candidate objects not yet propagated.
    Constraint insertion ({!add_obj}, {!add_copy}) only merges candidates
    into deltas — O(words), no rescan of [pts]; the worklist pop commits
    [delta \ pts] in one word-parallel step ({!O2_util.Bitset.take_fresh})
    and forwards exactly the fresh objects along copy edges. Watchers fire
    on deltas, never on full sets: fresh objects of watched nodes are
    accumulated and delivered by {!flush_fires} in deterministic order
    (nodes ascending, objects ascending, watchers in registration order).

    The graph is single-domain: one LIFO worklist, drained serially by
    {!propagate}. Copy cycles are not collapsed: objects travel around a
    cycle edge by edge, like every other copy path. *)

open O2_ir

(** An abstract heap object ⟨allocation site, heap context⟩ (Table 2 ❶). *)
type obj = { ob_site : int; ob_class : Types.cname; ob_hctx : Context.t }

type node =
  | NVar of Types.cname * Types.mname * Types.vname * Context.t
      (** a local/param under a context: ⟨x, 𝕆ᵢ⟩ *)
  | NRet of Types.cname * Types.mname * Context.t
      (** a method's return pointer *)
  | NField of int * Types.fname
      (** an object-field pointer ⟨o, 𝕆ₖ⟩.f; [int] is the object id; arrays
          use the ["*"] field *)
  | NStatic of Types.cname * Types.fname  (** a static field *)

type t

(** [create ()] builds an empty graph. *)
val create : unit -> t

(** {2 Objects and nodes} *)

(** [obj_id g o] interns an abstract object. *)
val obj_id : t -> obj -> int

(** [obj g id] recovers an interned object. *)
val obj : t -> int -> obj

(** [n_objs g] is the number of distinct abstract objects. *)
val n_objs : t -> int

(** [add_node g n] appends node [n] under the next id. It does not look
    for an existing copy of [n]: adding one node value twice makes two
    nodes. *)
val add_node : t -> node -> int

(** [node g id] recovers a node's value.
    @raise Invalid_argument on an id no {!add_node} returned. *)
val node : t -> int -> node

(** [n_nodes g] is the number of pointer nodes (the paper's #Pointer). *)
val n_nodes : t -> int

(** [n_edges g] is the number of distinct copy edges (the paper's
    #Edge); self-loops are never added. *)
val n_edges : t -> int

(** {2 The graph} *)

(** [pts g n] is the current points-to set of node [n] (do not mutate). *)
val pts : t -> int -> O2_util.Bitset.t

(** [delta g n] is the pending candidate set of [n] — objects scheduled
    but not yet committed by propagation (do not mutate). *)
val delta : t -> int -> O2_util.Bitset.t

(** [add_obj g n o] schedules object [o] for [pts n]. *)
val add_obj : t -> int -> int -> unit

(** [add_copy g ~src ~dst] adds a subset edge [pts src ⊆ pts dst];
    idempotent; schedules the current contents of [src] as candidates for
    [dst]. *)
val add_copy : t -> src:int -> dst:int -> unit

(** [add_watcher g n f] registers [f] to run on every object in [pts n]:
    immediately for the already-confirmed set, and via {!flush_fires} for
    every delta committed later. Watchers may add edges, objects and
    watchers. *)
val add_watcher : t -> int -> (int -> unit) -> unit

(** {2 Solving} *)

(** [propagate ?check g] drains all pending deltas to fixpoint — pure
    copy propagation; watcher deliveries accumulate for {!flush_fires}.
    [check] runs once per pop with the exact cumulative pop count
    ({!n_worklist_iters}) and may raise to abandon the solve — how
    {!O2_util.Budget} ceilings are enforced. *)
val propagate : ?check:(int -> unit) -> t -> unit

(** [flush_fires g] delivers accumulated deltas of watched nodes to their
    watchers, in deterministic order; returns [true] if anything fired.
    Callbacks typically add constraints, so callers alternate
    [propagate]/[flush_fires] until both report quiescence. *)
val flush_fires : t -> bool

(** [solve ?check g] is the convenience loop:
    [propagate]/[flush_fires] until quiescent. Reentrant: may be called
    again after adding more constraints. *)
val solve : ?check:(int -> unit) -> t -> unit

(** [iter_nodes f g] applies [f id node pts] to every node. *)
val iter_nodes : (int -> node -> O2_util.Bitset.t -> unit) -> t -> unit

(** {2 Instrumentation}

    Always-on plain-integer counters (the increments cost nothing
    measurable); the solver flushes them into its {!O2_util.Metrics} sink
    after the fixpoint. All counters are exact and deterministic. *)

(** [n_worklist_iters g] counts worklist items popped. *)
val n_worklist_iters : t -> int

(** [n_worklist_pushes g] counts node schedulings. *)
val n_worklist_pushes : t -> int

(** [worklist_peak g] is the exact peak worklist depth: the most nodes
    ever scheduled at once. (The former parallel solve reported the sum of
    its per-origin worklists' peaks, an upper bound.) *)
val worklist_peak : t -> int

(** [n_pts_adds g] counts committed points-to facts (the
    difference-propagation work actually performed). *)
val n_pts_adds : t -> int

(** [n_fires g] counts watcher deliveries by {!flush_fires}. *)
val n_fires : t -> int

(** [n_pts_facts g] is Σ|pts(n)| over all nodes — the paper's points-to
    set volume. O(nodes·words), computed on demand. *)
val n_pts_facts : t -> int
