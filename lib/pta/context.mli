(** Context abstractions for the pointer-analysis framework.

    The paper's key move is replacing call-string ([k]-CFA) and receiver
    object ([k]-obj) contexts by {e origins} (§3.2). This module defines one
    context type covering all four abstractions so the solver, OSA, SHB and
    race engine are policy-generic, which is what lets the benchmarks sweep
    the whole Table 5/8 policy axis. *)

(** An origin (§3.1): an entry point plus identity-determining structure.
    Attributes (the data pointers passed at the allocation/entry) are
    recorded by the solver per origin; identity is structural:
    allocation site, [k=1] wrapper call site, loop-doubling copy index and
    the (k−1)-truncated parent chain for k-origin. *)
type origin = {
  og_site : int;  (** allocation sid of the thread/handler object; -1 = main *)
  og_wrapper : int;
      (** sid of the call site through which the allocating method was
          entered — the paper's "wrapper functions" k=1 extension; -1 when
          the allocation is in an entry method *)
  og_copy : int;  (** loop-doubling copy index (0 or 1) *)
  og_class : string;  (** thread/handler class; ["<main>"] for the root *)
  og_parent : int list;  (** parent origin ids, most recent first (k−1) *)
}

val main_origin : origin
val pp_origin : Format.formatter -> origin -> unit

(** A calling context. The int payloads are call-site sids ([Ccall]),
    allocation-site object ids ([Cobj]) or origin ids ([Corigin]), most
    recent first. *)
type t =
  | Cempty
  | Ccall of int list
  | Cobj of int list
  | Corigin of int list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Analysis policies of Table 5: [Insensitive] ≙ 0-ctx (D4's engine),
    [Kcfa k], [Kobj k], and [Korigin k] ≙ OPA (k = 1 in the paper's main
    configuration). *)
type policy = Insensitive | Kcfa of int | Kobj of int | Korigin of int

val policy_name : policy -> string

(** [validate_policy p] rejects k-limited policies with [k < 1] — they
    would silently truncate every context to the empty chain and
    masquerade as 0-ctx.

    @raise Invalid_argument on [Kcfa k], [Kobj k] or [Korigin k] with
    [k < 1]. *)
val validate_policy : policy -> unit

(** [policy_of_string s] parses every CLI spelling: ["0-ctx"], ["0ctx"],
    ["insensitive"], ["o2"], ["origin"], ["1-origin"], [k-cfa], [k-obj],
    [k-origin] (case-insensitive). Non-positive [k] and unknown spellings
    yield [Error msg]. *)
val policy_of_string : string -> (policy, string) result

(** [entry policy] is the context of the program's [main]. For [Korigin] the
    chain contains the main origin's id 0.

    @raise Invalid_argument on an invalid policy (see {!validate_policy}). *)
val entry : policy -> t

(** [truncate k xs] keeps the first [k] elements. *)
val truncate : int -> int list -> int list

(** [push_call policy ~ctx ~site] is the callee context for a non-origin
    call with no receiver-object information (static calls): k-CFA pushes
    the call site; 0-ctx stays empty; k-obj and k-origin inherit the caller
    context (Table 2 rule ❼ for origins). *)
val push_call_static : policy -> ctx:t -> site:int -> t

(** [push_call policy ~ctx ~site ~recv_site ~recv_hctx] is the callee
    context for a virtual, non-origin-entry call: k-obj builds the receiver
    chain from the receiver's allocation site and heap context. *)
val push_call : policy -> ctx:t -> site:int -> recv_site:int -> recv_hctx:t -> t
