(** The multi-engine differential harness behind [o2 fuzz].

    One program is driven through the O2 pipeline, the reference solver
    ({!Ref_pta}), the reference engines ({!Ref_stages}), the pairwise-DFS
    naive engine, the RacerD-style syntactic baseline and the dynamic
    vector-clock detector, asserting
    {e agreement classes} rather than exact outputs (the equivalence-class
    differential-testing idiom):

    - {b pta}: the solve's {!O2_pta.Solver.fingerprint} equals that of
      the reference solver ({!Ref_pta});
    - {b oracle}: on one solve, the SHB trace, the detection report and the
      OSA counts and shared locations equal their references
      ({!Ref_stages.check});
    - {b naive = O2}: on the merged and on the unmerged
      ([~lock_region:false]) graph, the pairwise loop reports the same
      witnesses — the §4.1 optimizations are sound and complete w.r.t. it;
    - {b merged ⊆ unmerged}: every lock-region-merged race names a site
      pair present in the unmerged report, and both report the same
      field set;
    - {b RacerD ⊇ must-race subset}: every O2 race whose endpoints are
      syntactically visible to RacerD (distinct roots, un-owned bases,
      not both inside [sync], same syntactic field key) appears among
      its warnings;
    - {b dynamic ⊆ static}: every dynamically-witnessed race is in the
      static report (site pair in the unmerged run, field in the merged
      one).

    Engine crashes (other than budget exhaustion, which propagates) are
    downgraded to ["crash"] divergences, batch-style. *)

type divergence = {
  dv_class : string;
      (** agreement class that broke: ["roundtrip"], ["pta"], ["oracle"],
          ["naive"], ["lock-region"], ["racerd"], ["dynamic"] or
          ["crash"] *)
  dv_detail : string;
}

type dynamic_status =
  [ `Ran of int  (** dynamic races observed *)
  | `Skipped  (** program over the dynamic size gate *)
  | `Runtime_error of string  (** interpreter hit a runtime error *) ]

type outcome = {
  o_divergences : divergence list;  (** empty = all engines agree *)
  o_races : int;  (** default-pipeline race count *)
  o_origins : int;  (** origins beside main *)
  o_stmts : int;
  o_dynamic : dynamic_status;
  o_naive_ran : bool;  (** the quadratic naive stage ran (size gate) *)
  o_must_pairs : int;  (** RacerD must-race pairs checked — 0 = vacuous *)
}

val pp_divergence : Format.formatter -> divergence -> unit

(** [check p] runs every agreement class on [p].

    [budget] bounds the whole check: the PTA worklist checks it per pop
    and each stage boundary re-checks the deadline;
    {!O2_util.Budget.Exhausted} propagates to the caller. [naive_max_stmts]
    (default 1500) gates the quadratic pairwise-DFS stage,
    [dynamic_max_stmts] (default 400) the interpreter stage;
    [dynamic_seeds]/[dynamic_max_steps] bound each dynamic run. *)
val check :
  ?policy:O2_pta.Context.policy ->
  ?budget:O2_util.Budget.t ->
  ?naive_max_stmts:int ->
  ?dynamic_max_stmts:int ->
  ?dynamic_seeds:int list ->
  ?dynamic_max_steps:int ->
  O2_ir.Program.t ->
  outcome
