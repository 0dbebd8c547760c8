(** Abstract memory-access targets.

    A target identifies the abstract location a statement reads or writes:
    an ⟨object, field⟩ pair (arrays use the ["*"] field, §3.2) or a static
    field encoded by its class-qualified signature (§3.3). Shared between
    origin-sharing analysis, the SHB graph and the race engine. *)

open O2_ir

type target =
  | Tfield of int * Types.fname  (** field of interned abstract object *)
  | Tstatic of Types.cname * Types.fname

val compare_target : target -> target -> int

(** [pp_target a ppf t] prints e.g. [Data@12.val] or [Settings::verbose]. *)
val pp_target : Solver.result -> Format.formatter -> target -> unit

(** [of_tid fl tid] decodes a flat-IR location id (see {!Flat.tid_field})
    back to the structural target. Total on tids the flat pipeline emits. *)
val of_tid : Flat.t -> int -> target

(** [tid_of fl t] encodes a structural target as a flat-IR location id;
    [None] only if [t] mentions a field or static the lowered program never
    declares (impossible for targets produced by either pipeline). The
    encoding is injective: [tid_of fl a = tid_of fl b] iff [a = b]. *)
val tid_of : Flat.t -> target -> int option
