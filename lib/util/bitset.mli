(** Growable bitsets over non-negative integers.

    Points-to sets in the pointer-analysis solver are sets of interned
    [⟨alloc-site, heap-context⟩] identifiers; this module provides the compact
    mutable representation used for them, supporting the difference
    propagation the worklist solver performs. A set stores only the window
    of words between its lowest and highest element (plus growth room), so
    a near-singleton over a large id costs a word or two, and operations
    scan the window rather than every word below it. *)

type t

(** [create ()] is a fresh empty bitset. *)
val create : unit -> t

(** [singleton i] is the bitset containing exactly [i]. *)
val singleton : int -> t

(** [copy s] is an independent copy of [s]. *)
val copy : t -> t

(** [add s i] adds [i]; returns [true] iff [i] was not already present. *)
val add : t -> int -> bool

(** [mem s i] tests membership; [i] may exceed the current capacity. *)
val mem : t -> int -> bool

(** [union_into ~into src] adds all of [src] into [into]; returns [true]
    iff [into] changed. *)
val union_into : into:t -> t -> bool

(** [diff_new ~from ~minus] is the list of elements in [from] but not in
    [minus] — the "delta" driving difference propagation. *)
val diff_new : from:t -> minus:t -> int list

(** [clear s] empties [s] in place, keeping its capacity. *)
val clear : t -> unit

(** [take_fresh_span ~scratch ~pts ~delta] is {!take_fresh} without the
    allocation: fresh elements are written into [scratch] and the word
    span [lo, hi) holding them is returned ([(0, 0)] when there were
    none). Scratch words outside the span are stale from earlier calls —
    consumers must stay within the span (see {!union_span_into},
    {!cardinal_span}). The worklist drain reuses one scratch set, so the
    hot pop allocates nothing, and all downstream work is bounded by the
    delta's live content. *)
val take_fresh_span : scratch:t -> pts:t -> delta:t -> int * int

(** [union_span_into ~into src ~lo ~hi] unions words [lo, hi) of [src]
    into [into]. *)
val union_span_into : into:t -> t -> lo:int -> hi:int -> unit

(** [cardinal_span s ~lo ~hi] counts elements in words [lo, hi). *)
val cardinal_span : t -> lo:int -> hi:int -> int

(** [take_fresh ~pts ~delta] commits a pending delta: the elements of
    [delta] not yet in [pts] are added to [pts] and returned as a fresh
    bitset; [delta] is cleared. [None] when every candidate was already
    known. This is the word-parallel pop of the difference-propagation
    worklist — candidates may be enqueued redundantly, deduplication
    happens here. *)
val take_fresh : pts:t -> delta:t -> t option

(** [cardinal s] is the number of elements. O(words). *)
val cardinal : t -> int

(** [is_empty s] is [true] iff [s] has no element. *)
val is_empty : t -> bool

(** [iter f s] applies [f] to each element in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f s acc] folds over elements in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [elements s] lists elements in increasing order. *)
val elements : t -> int list

(** [exists p s] is [true] iff some element satisfies [p]. *)
val exists : (int -> bool) -> t -> bool

(** [inter_nonempty a b] is [true] iff [a] and [b] share an element. *)
val inter_nonempty : t -> t -> bool

(** [equal a b] is extensional equality. *)
val equal : t -> t -> bool

(** [subset a b] is [true] iff every element of [a] is in [b]. *)
val subset : t -> t -> bool

val pp : Format.formatter -> t -> unit
