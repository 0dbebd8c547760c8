(** Flat IR: a dense, integer-indexed lowering of a checked {!Program.t}.

    [lower] compiles the whole program in one sweep — scan, resolve,
    allocate at once, in the spirit of Wirth's one-pass Oberon compiler —
    into contiguous int tables and int opcode streams. Past this boundary
    the PTA describe phase and the origin walker see no strings and no
    polymorphic hash keys: classes, fields, static fields, methods,
    method names and per-method variable slots are all dense ints, and
    each method body is a single [int array] instruction stream.

    Stream invariants:
    - every source statement lowers to exactly one instruction carrying
      its [sid] (so linear scans count statements exactly like the legacy
      AST walkers);
    - instructions appear in AST DFS order; [Sync]/[If]/[While] are block
      headers carrying the int length of their inlined bodies;
    - name resolution is done here once: static-call targets are method
      ids, virtual calls carry an is-external bit, spawn sites carry
      their in-loop bit. *)

open Types

(** {1 Opcodes}

    Each value is the first int of one instruction; the comment gives the
    operands that follow, in stream order. *)

val op_null : int (* sid *)
val op_assign : int (* sid, dst slot, src slot *)
val op_new : int (* sid, lhs slot, cid, nargs, arg slots... *)
val op_fwrite : int (* sid, base slot, fid, src slot *)
val op_fread : int (* sid, dst slot, base slot, fid *)
val op_awrite : int (* sid, base slot, src slot *)
val op_aread : int (* sid, dst slot, base slot *)

val op_callv : int
(** sid, ret slot or -1, recv slot, name id, external bit, nargs, args... *)

val op_calls : int
(** sid, ret slot or -1, target mid or -1 (unresolved), nargs, args... *)

val op_swrite : int (* sid, static slot, src slot *)
val op_sread : int (* sid, dst slot, static slot *)
val op_start : int (* sid, recv slot, in-loop bit *)
val op_join : int (* sid, recv slot *)
val op_signal : int (* sid, recv slot *)
val op_wait : int (* sid, recv slot *)
val op_post : int (* sid, recv slot, in-loop bit, nargs, arg slots... *)
val op_sync : int (* sid, lock slot, body length; body inlined *)
val op_if : int (* sid, then length, else length; bodies inlined *)
val op_while : int (* sid, body length; body inlined *)
val op_return : int (* sid, value slot or -1 *)

(** [width code j] is the length of the instruction at [j] of [code]: the
    opcode, its operands and its argument slots. Block headers ([Sync],
    [If], [While]) count only themselves; their bodies follow inline. *)
val width : int array -> int -> int

(** {1 Tables} *)

type meth_info = {
  f_meth : Program.meth;  (** back-pointer for string-world consumers *)
  f_mid : int;
  f_cid : int;
  f_nslots : int;
  f_slot_name : string array;  (** slot -> variable name *)
  f_param_slots : int array;  (** parameter index -> slot *)
  f_code : int array;  (** the opcode stream of the body *)
}

type t = {
  f_program : Program.t;
  f_class_name : string array;
  f_class_id : (cname, int) Hashtbl.t;
  f_field_name : string array;
  f_field_id : (fname, int) Hashtbl.t;
  f_star : int;  (** fid of the array pseudo-field "*" *)
  f_static_cid : int array;
  f_static_fid : int array;
  f_static_id : (cname * fname, int) Hashtbl.t;
  f_meths : meth_info array;
  f_meth_id : (cname * mname, int) Hashtbl.t;
  f_name_str : string array;
  f_name_id : (mname, int) Hashtbl.t;
  f_name_defined : bool array;
  f_pos : pos array;
  f_in_loop : bool array;
}

val lower : Program.t -> t
(** One-pass lowering. Deterministic: table ids follow declaration order,
    then first occurrence in bodies. *)

(** {1 Lookups} *)

val n_classes : t -> int
val n_fields : t -> int
val n_statics : t -> int
val n_meths : t -> int
val program : t -> Program.t
val class_name : t -> int -> string
val field_name : t -> int -> string
val name_str : t -> int -> string
val meth : t -> int -> meth_info
val mid : t -> cname -> mname -> int option
val mid_of_meth : t -> Program.meth -> int
val field_id : t -> fname -> int option
val static_slot : t -> cname -> fname -> int option
val static_cid : t -> int -> int
val static_fid : t -> int -> int
val pos_of_sid : t -> int -> pos

(** {1 Location ids}

    A tid names one abstract memory location: static slots occupy
    [0 .. n_statics-1], then the (object id × field id) plane. Injective
    once lowering is done, so int equality on tids coincides with
    structural equality of the legacy access targets. *)

val tid_field : t -> oid:int -> fid:int -> int
val tid_static : t -> int -> int
val tid_is_static : t -> int -> bool
val tid_oid : t -> int -> int
val tid_fid : t -> int -> int

(** {1 Validation} *)

exception Malformed of string

val check : t -> unit
(** Structural validation of every opcode stream (known opcodes, operand
    bounds, block lengths that tile exactly). Used by the property tests.
    @raise Malformed on the first violation. *)

val footprint : t -> int
(** Approximate heap words held by the lowered tables. *)
