(** The static happens-before (SHB) graph (§4, Table 4).

    One trace of nodes per origin (read/write accesses, lock acquire and
    release, spawn and join events), in static program order. Following
    §4.1's first optimization, no intra-origin HB edges are stored: node ids
    are globally monotone during construction, so intra-origin
    happens-before is an integer comparison. The only explicit edges are
    inter-origin: [entry(𝕆ᵢ,𝕆ⱼ) ⇒ origin_first(𝕆ⱼ)] at spawns and
    [origin_last(𝕆ⱼ) ⇒ join(𝕆ⱼ,𝕆ᵢ)] at joins (Table 4 ⑰/⑱). A join
    counts only when 𝕆ᵢ itself spawned 𝕆ⱼ earlier in its trace: joining a
    thread that has not started returns at once and orders nothing.

    Each access node carries a canonical lockset id ({!Lockset}); with
    [~lock_region:true] (the default, §4.1's third optimization) repeated
    accesses to the same target inside one lock region collapse into the
    representative first access — reset at spawn/join nodes inside the
    region, where the happens-before position changes. *)

open O2_ir
open O2_pta

type node_kind =
  | Read of int  (** flat-IR location id (tid); decode with {!target_of} *)
  | Write of int
  | Acq of int  (** lock object id *)
  | Rel of int
  | SpawnTo of int  (** spawn id of the started/posted origin *)
  | JoinOf of int  (** spawn id of the joined origin *)
  | SemSignal of int  (** semaphore post on abstract object id (§4.3) *)
  | SemWait of int  (** semaphore wait on abstract object id *)

type node = {
  n_id : int;  (** monotone integer id (§4.1) *)
  n_origin : int;  (** spawn id of the owning origin *)
  n_sid : int;  (** statement id *)
  n_pos : Types.pos;
  n_kind : node_kind;
  n_lockset : int;  (** canonical lockset id at this node *)
}

type t

(** [build a] constructs the SHB graph from a solved analysis by scanning
    the flat opcode streams of [a.flat].

    @param serial_events model the single dispatcher thread of §4.2: every
    event-handler origin implicitly holds {!Lockset.dispatcher_lock}
    (default [true]).
    @param lock_region enable lock-region access merging (default [true];
    the ablation benchmark disables it).
    @param metrics observability sink: construction runs inside an
    ["shb.build"] span, around ["shb.walk"], ["shb.edges"] (semaphore
    edges) and ["shb.labels"] (the HB closure), and records [shb.nodes],
    [shb.access_nodes], [shb.edges] (spawn + join + semaphore),
    [shb.locksets] and [shb.hb_closure_size].
    @param budget its deadline is polled once per origin of the walk
    ({!O2_util.Budget.Exhausted} when it has passed). *)
val build :
  ?serial_events:bool ->
  ?lock_region:bool ->
  ?metrics:O2_util.Metrics.t ->
  ?budget:O2_util.Budget.t ->
  Solver.result ->
  t

val solver : t -> Solver.result

(** [target_of g tid] decodes an access node's location id back to the
    structural target (reporting boundary only). *)
val target_of : t -> int -> Access.target

val locks : t -> Lockset.t

(** {1 Node columns}

    Nodes are int columns indexed by node id, dense from 0 in emission
    order. These reads allocate nothing; an id outside [0, n_nodes g)
    raises [Invalid_argument]. *)

val n_nodes : t -> int
val n_accesses : t -> int

(** [node_arg g id] is the argument of node [id]'s {!node_kind}. *)
val node_arg : t -> int -> int

(** A column {!gather} reads: [Is_write] is 1 for a write node, else 0. *)
type column = Origin | Sid | Is_write | Lockset

(** [gather g c ids lo n dst] writes column [c] of the nodes
    [ids.(lo) .. ids.(lo + n - 1)] to [dst.(0) .. dst.(n - 1)], in one
    call for the whole run. *)
val gather : t -> column -> int array -> int -> int -> int array -> unit

(** [iter_accesses g f] calls [f id tid sid] on each access node,
    id-ascending. *)
val iter_accesses : t -> (int -> int -> int -> unit) -> unit

(** [origin_nodes g o] is [(lo, hi)]: origin [o]'s trace is the node ids
    [lo .. hi - 1], since the walk emits one origin at a time. *)
val origin_nodes : t -> int -> int * int

(** [node g id] builds node [id]'s record, for reports, printing and the
    reference passes; the analysis reads the columns. *)
val node : t -> int -> node

(** [accesses g] lists all read/write access nodes, id-ascending, as
    fresh records ({!node}). *)
val accesses : t -> node array

(** [nodes g] lists every node, id-ascending, as fresh records. *)
val nodes : t -> node array

(** [n_origins g] is the number of origins: the solver's spawn count. *)
val n_origins : t -> int

(** [self_parallel g o] reads the solve's answer,
    {!O2_pta.Solver.self_parallel}: origin [o] may run concurrently with
    another instance of itself. *)
val self_parallel : t -> int -> bool

(** [spawn_edges g] lists [(parent, child, node id of the spawn in the
    parent's trace)]. *)
val spawn_edges : t -> (int * int * int) list

(** [join_edges g] lists [(child, parent, node id of the join in the
    parent's trace)]. *)
val join_edges : t -> (int * int * int) list

(** [sem_edges g] lists the semaphore happens-before edges of the §4.3
    extension, [(signal origin, signal node id, wait origin, wait node id)].
    An edge exists only when the abstract semaphore object has exactly one
    signal node program-wide — the statically-must handshake pattern. *)
val sem_edges : t -> (int * int * int * int) list

(** [hb g a b] decides statically-must happens-before between two nodes:
    intra-origin by integer comparison, inter-origin by {!hb_state} at
    [a]'s threshold interval ({!hb_t_idx}) and [b]'s entry count
    ({!hb_q_idx}). *)
val hb : t -> node -> node -> bool

(** [hb_t_idx g n] and [hb_q_idx g n] are node [n]'s HB interval: the index
    of [n] among its origin's outgoing timed-edge thresholds, and the count
    of its origin's incoming entry positions at or before [n]. Two nodes of
    the same origin with equal intervals have identical inter-origin HB
    behaviour — the key fact behind equivalence-class race checking. *)
val hb_t_idx : t -> int -> int

val hb_q_idx : t -> int -> int

(** [interval_bounds g] is [(tb, qb)]: exclusive upper bounds of
    {!hb_t_idx} and {!hb_q_idx} over all origins, used by the race engine to
    pack intervals into int class keys. *)
val interval_bounds : t -> int * int

(** [hb_state g ~src ~t_idx ~dst ~q_idx] is the interval-level form of
    {!hb}: for [src ≠ dst] it equals [hb g a b] for every node [a] of
    [src] in threshold interval [t_idx] and every node [b] of [dst] with
    [q_idx] incoming entry positions before it. It finds [dst]'s
    {!preorder} rank among the {!hb_pieces} and compares that piece's
    entry rank with [q_idx]. Pure — no per-call accounting: the race
    engine counts every query it asks and reports the total with
    {!note_hb_queries}. *)
val hb_state : t -> src:int -> t_idx:int -> dst:int -> q_idx:int -> bool

(** [preorder g o] is origin [o]'s rank in the DFS preorder of a spanning
    spawn tree: each origin's tree parent is its spawn edge with the
    smallest node id (a parent chain that closes a cycle is cut there),
    and children are numbered in spawn-node order. {!hb_pieces} are
    ranges of these ranks. *)
val preorder : t -> int -> int

(** [hb_pieces g ~src ~t_idx] is the closure row of [src]'s threshold
    interval [t_idx], packed as [[| lo0; hi0; r0; lo1; hi1; r1; … |]]:
    disjoint {!preorder} ranges by ascending [lo], together covering every
    origin a node of that interval may happen before ([src] itself
    included when reachable). Every origin [v] in [lo, hi] carries the
    entry rank [r] — [-1] when all of [v] follows (a range of whole spawn
    subtrees), otherwise the count of [v]'s incoming entry positions
    before the first node it reaches (then [lo = hi]). [hb_state] holds
    exactly for the covered [v ≠ src] with [r < q_idx]. Shared with the
    graph: must not be mutated. *)
val hb_pieces : t -> src:int -> t_idx:int -> int array

(** [hb_queries g] is the number of HB queries answered so far: {!hb} calls
    plus counts reported via {!note_hb_queries} (surfaced as
    [shb.hb_queries]). *)
val hb_queries : t -> int

(** [note_hb_queries g k] adds [k] interval-level queries ({!hb_state}
    calls) to the {!hb_queries} counter. *)
val note_hb_queries : t -> int -> unit

(** [hb_closure_entries g] counts the (origin, interval, origin) entries of
    the precomputed closure that are reachable — the origins covered by
    every row's {!hb_pieces}, the [shb.hb_closure_size] counter. *)
val hb_closure_entries : t -> int

(** [pp] dumps the per-origin traces (for debugging and the CLI). *)
val pp : Format.formatter -> t -> unit
