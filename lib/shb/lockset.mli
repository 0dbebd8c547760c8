(** Canonical lockset identifiers (§4.1, "Check Lockset").

    Each distinct combination of mutexes (a set of abstract lock objects,
    possibly empty) is assigned a canonical integer id; access nodes carry
    the id, so the disjointness check between two accesses is a cached
    lookup keyed by the id pair instead of a set intersection.

    Lock elements are interned abstract-object ids; the reserved element
    {!dispatcher_lock} models the single-threaded event dispatcher of §4.2
    (all event handlers of one dispatcher implicitly hold it, so
    handler–handler pairs never race while handler–thread pairs can). *)

type t

val create : unit -> t

(** The implicit global lock held by all serialized event handlers. *)
val dispatcher_lock : int

(** [empty env] is the canonical id of the empty lockset (always 0). *)
val empty : t -> int

(** [id env locks] interns the lockset holding exactly [locks]
    (duplicates ignored). *)
val id : t -> int list -> int

(** [acquire env ls l] is the canonical id of [ls ∪ {l}], memoized per
    pair. *)
val acquire : t -> int -> int -> int

(** [elements env ls] lists the locks of canonical set [ls], sorted. *)
val elements : t -> int -> int list

(** [disjoint env a b] is true iff the two canonical locksets share no
    lock — i.e. the accesses they guard are {e not} mutually excluded.
    Results are cached per id pair. *)
val disjoint : t -> int -> int -> bool

(** [n_distinct env] is the number of canonical locksets interned. *)
val n_distinct : t -> int

(** [cache_hits env] / [cache_misses env] expose the intersection cache
    behaviour for the ablation benchmark. *)
val cache_hits : t -> int

val cache_misses : t -> int
