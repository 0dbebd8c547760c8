(** Classical thread-escape analysis — the TLOA-style baseline of Table 7.

    An object {e escapes} if it is a thread/handler object, is reachable
    from a static field, or is reachable through the fields of an escaped
    object (in particular anything stored into a thread object's fields or
    passed as origin attributes). Every access to an escaped object is
    conservatively thread-shared.

    Contrast with OSA (§3.3): escape analysis answers only {e whether} an
    object may be shared, never {e how}; a static field used by a single
    thread is still "escaped" here but origin-local under OSA, and arrays
    are all-escaping once the array object escapes. The Table 7 benchmark
    runs this baseline over the context-sensitive (2-CFA) points-to facts —
    the configuration that models TLOA's context-sensitive information-flow
    analysis and reproduces its scalability collapse. *)

open O2_pta

type t

(** [run a] classifies all abstract objects of a solved analysis. *)
val run : Solver.result -> t

(** [escaped_objects t] lists escaped object ids, ascending. *)
val escaped_objects : t -> int list

(** [n_escaped_accesses t] counts access sites on escaped locations — the
    quantity comparable to OSA's #S-access (statics always count). *)
val n_escaped_accesses : t -> int
