(** Int scratch buffers: a growable stack and in-place slice sorting.

    The analyses keep run-level buffers that they reuse across origins,
    rows and groups, longer than the slice in use (which rules out
    [Array.sort]); a push into a buffer with room and a sort allocate
    nothing. *)

(** A stack of ints [s.(0) .. s.(len - 1)]; the rest of [s] is spare
    room. Popping and clearing are writes to [len]. *)
type t = { mutable s : int array; mutable len : int }

val create : unit -> t

(** [push b x] appends [x], doubling the room when it is full. *)
val push : t -> int -> unit

(** [sort_slice a lo hi] sorts [a.(lo) .. a.(hi - 1)] ascending, in place,
    in O(n log n) time. *)
val sort_slice : int array -> int -> int -> unit
