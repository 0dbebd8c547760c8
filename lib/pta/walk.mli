(** The origin walker: the one per-origin traversal of a solve.

    Walks the statements executed by each origin (a {!Solver.spawn}) in
    program order: it starts at the entry instance and follows every call
    site's callee instances in the {!Solver.icg} — including [init] calls,
    whose body {e executes} in the calling origin even though OPA
    {e analyzes} it in the new origin (§3.2) — but stops at
    [start]/[post] boundaries, which begin other origins. Each
    ⟨method, context⟩ instance is visited at most once per origin (one
    stamp array for the whole solve), making the scan linear: the property
    §3.3 claims for OSA. SHB construction (§4, Table 4: callee traces
    inlined at the call site), OSA (Algorithm 1), over-synchronization and
    the escape baseline each read this one traversal through {!handlers}.

    The walker decodes the flat opcode streams itself; a consumer sees
    resolved events only, and keeps only its own semantics. *)

open O2_util

(** What a consumer does with the events of one origin. Every event
    carries the statement id ([sid]) of its instruction; points-to sets
    are the solved sets of the instruction's operand variable, shared
    with the solve (read-only). *)
type handlers = {
  access : int -> int -> bool -> unit;
      (** [access sid tid is_write], once per location the statement
          touches (a {!O2_ir.Flat.tid_field} or {!O2_ir.Flat.tid_static}
          id): for a field or array access, one per object the base may
          point to, in descending object id. *)
  call : int -> unit;
      (** [call sid] for every [new], virtual and static call, before its
          callees are walked — whether or not it resolved to any. *)
  sync : int -> Bitset.t -> (unit -> unit) -> unit;
      (** [sync sid lock_pts body]: [body ()] walks the region. The
          consumer must call it exactly once; it scopes its lockset and
          lock-region state around the call. *)
  spawn : int -> Bitset.t -> unit;
      (** [spawn sid pts] for a [start] or [post] on the receiver [pts] *)
  join : int -> Bitset.t -> unit;
  signal : int -> Bitset.t -> unit;
  wait : int -> Bitset.t -> unit;
}

(** Handlers that ignore every event (and walk every [sync] body): the
    base for [{ Walk.ignore_all with access = … }]. *)
val ignore_all : handlers

(** [iter_origins a f] walks every origin of [a], in spawn order, calling
    [f sp] once before walking [sp] for the handlers of that origin. It
    returns the number of instructions scanned over all origins: every
    statement of every visited instance, block headers included (OSA's
    [osa.stmts_scanned]). *)
val iter_origins : Solver.result -> (Solver.spawn -> handlers) -> int
