(** Corpus-scale sweep driver for the differential harness: deterministic
    per-(seed, index) generation, batch-style fault isolation and jobs
    fan-out, greedy spec-level shrinking and [.cir] reproducer emission. *)

open O2_workloads

type status =
  [ `Ok  (** every agreement class held *)
  | `Timeout of string  (** per-program budget exhausted (not a finding) *)
  | `Divergent of Differential.divergence list ]

type entry = {
  f_index : int;
  f_spec : Synth.spec;
  f_status : status;
  f_races : int;
  f_stmts : int;
  f_origins : int;
  f_elapsed : float;
}

type report = {
  r_seed : int;
  r_count : int;
  r_jobs : int;
  r_entries : entry list;  (** in index order, independent of [jobs] *)
  r_elapsed : float;
}

(** Resource gates for one program's check: the wall/step budget handed to
    the solver, plus the statement-count gates on the quadratic naive
    stage and the interpreter stage. *)
type gates = {
  g_policy : O2_pta.Context.policy option;  (** [None] = the default policy *)
  g_wall : float option;
  g_max_steps : int option;
  g_naive_max_stmts : int;
  g_dynamic_max_stmts : int;
}

val default_gates : gates

(** [sweep ~seed ~count ()] generates [count] programs from
    [Synth.spec_of_seed] and checks each under the batch fault boundary:
    budget exhaustion becomes [`Timeout], any other escape [`Divergent]
    of class ["crash"]. [jobs] fans programs out over worker domains
    ({!O2_util.Fanout}); entries come back in index order either way. *)
val sweep : ?jobs:int -> ?gates:gates -> seed:int -> count:int -> unit -> report

(** The sorted distinct [dv_class]es of a divergent status ([[]] otherwise). *)
val divergence_classes : status -> string list

(** [shrink ~classes spec] greedily walks every generator knob toward its
    floor, keeping reductions under which the program still diverges in
    one of [classes]; stops at a fixpoint or after [max_checks]
    re-checks. Every attempt is validated, so the result is always a
    well-formed spec. *)
val shrink : ?gates:gates -> ?max_checks:int -> classes:string list ->
  Synth.spec -> Synth.spec

(** [write_reproducer ~dir ~seed entry] renders the entry's program to
    [dir/seedS-iN-CLASSES.cir] with the spec and divergences as header
    comments; returns the path. *)
val write_reproducer : dir:string -> seed:int -> entry -> string

val counts : report -> int * int * int
(** (ok, timeouts, divergent) *)

val divergent : report -> entry list

(** 0 when no entry diverged, 1 otherwise (timeouts do not fail a sweep). *)
val exit_code : report -> int

val render : ?format:[ `Text | `Json ] -> report -> string
