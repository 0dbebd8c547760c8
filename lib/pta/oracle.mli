(** The serial reference solver — the executable specification of Table 2.

    This is the seed's immediate-firing recursive solver, kept verbatim and
    out of the production pipeline. It exists for two jobs:

    - {b certification}: the property tests solve every workload with both
      this oracle and the difference-propagation solver ({!Solver.analyze})
      and assert the {!fingerprint}s are byte-identical — the
      equivalence-class style of validation the paper's artifact used;
    - {b honest baselines}: the benchmark trajectory reports the engine's
      speedup against this oracle, not against itself.

    The oracle has no metrics, budget, jobs or incremental features; it
    supports all four {!Context.policy}s. *)

open O2_ir

type t

(** [analyze ?policy p] runs the reference whole-program analysis from
    [main]. Default policy is [Korigin 1].
    @raise Invalid_argument on a k-limited policy with [k < 1]. *)
val analyze : ?policy:Context.policy -> Program.t -> t

(** [fingerprint a] is a canonical, identifier-free dump of the solved
    facts: every non-empty points-to set, every spawn, every call edge and
    every join site, rendered structurally (interned object/origin ids are
    expanded) and sorted. Two analyses agree on all facts iff their
    fingerprints are equal strings; {!Solver.fingerprint} emits the same
    format. *)
val fingerprint : t -> string

(** [n_spawns a] counts recorded spawns (including [main]). *)
val n_spawns : t -> int

(** {2 Canonical-rendering helpers}

    Shared with {!Solver.fingerprint}; [origin_of] expands an interned
    origin id into its structural record. *)

val fingerprint_parts :
  origin_of:(int -> Context.origin) ->
  iter_nodes:((Pag.node -> O2_util.Bitset.t -> unit) -> unit) ->
  obj_of:(int -> Pag.obj) ->
  spawns:
    (int * string * Program.meth * Context.t * Pag.obj option * bool) list ->
  call_edges:(int * Context.t * Program.meth * Context.t) list ->
  joins:(int * Types.cname * Types.mname * Context.t * Types.vname) list ->
  string
