(** Generic interning (hash-consing) tables.

    Contexts, abstract heap objects and locksets are interned to dense
    integer identifiers so that equality is [(==)]-cheap and the analyses can
    use them as bitset indices and array offsets.

    The table is not synchronized: use it from one domain. *)

module Make (H : Hashtbl.HashedType) : sig
  type t

  (** [create ()] is a fresh table with no interned values. *)
  val create : unit -> t

  (** [intern t v] returns the unique dense id of [v], assigning the next
      fresh id on first sight. Ids start at 0. *)
  val intern : t -> H.t -> int

  (** [find_opt t v] is the id of [v] if already interned. *)
  val find_opt : t -> H.t -> int option

  (** [value t id] recovers the interned value. @raise Invalid_argument on an
      id never returned by [intern]. *)
  val value : t -> int -> H.t

  (** [count t] is the number of interned values, i.e. the next fresh id. *)
  val count : t -> int

  (** [iter f t] applies [f id value] for every interned value. *)
  val iter : (int -> H.t -> unit) -> t -> unit
end
