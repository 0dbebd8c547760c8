(** Per-analysis resource budgets.

    A budget caps one analysis run with a wall-clock deadline and/or a
    ceiling on pointer-analysis worklist steps. The hot loop calls
    {!check} with its step count; an exhausted budget raises
    {!Exhausted}, which harnesses (notably [O2_batch]) catch and turn
    into a structured per-file [Timeout] entry instead of an aborted
    run. *)

type reason = [ `Wall | `Steps ]

exception Exhausted of reason

type t

(** [make ?wall ?max_steps ()] starts the clock now: [wall] is seconds
    from now (the stored deadline is absolute), [max_steps] the highest
    permitted step count.

    @raise Invalid_argument on a negative [wall] or [max_steps < 1]. *)
val make : ?wall:float -> ?max_steps:int -> unit -> t

val is_unlimited : t -> bool

(** [check b ~steps] raises [Exhausted `Steps] when [steps] passed the
    ceiling, and [Exhausted `Wall] when the deadline passed. *)
val check : t -> steps:int -> unit

(** Human-readable exhaustion cause, used in batch failure entries. *)
val reason_to_string : reason -> string
