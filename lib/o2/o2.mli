(** O2 — static race detection with origins (top-level pipeline).

    The one-call API tying the reproduction together: origin-sensitive
    pointer analysis (OPA), origin-sharing analysis (OSA), SHB-graph
    construction and hybrid lockset/happens-before race detection, as
    described in "When Threads Meet Events: Efficient and Precise Static
    Race Detection with Origins" (PLDI 2021).

    {[
      let program = O2_frontend.Parser.parse_file "app.cir" in
      let r = O2.run O2.Config.default program in
      print_endline (O2.render r)
    ]}

    To observe the pipeline, attach a metrics sink:

    {[
      let cfg = O2.Config.with_metrics O2.Config.default in
      let r = O2.run cfg program in
      print_endline (O2.render ~format:`Json r)   (* includes "metrics" *)
    ]} *)

open O2_ir

(** Pipeline configuration. Build one with a record update of
    {!Config.default} rather than from scratch, so new fields keep old code
    compiling. *)
module Config : sig
  type t = {
    policy : O2_pta.Context.policy;
        (** pointer-analysis context policy (paper default: [Korigin 1]) *)
    serial_events : bool;
        (** Android-style single event dispatcher (§4.2) *)
    lock_region : bool;  (** lock-region access merging (§4.1) *)
    metrics : O2_util.Metrics.t option;
        (** observability sink threaded through every stage; [None]
            (default) costs nothing on any hot path *)
    budget : O2_util.Budget.t option;
        (** resource budget: the PTA worklist checks it every step, and the
            wall-clock deadline is re-checked between pipeline stages.
            {!run} lets {!O2_util.Budget.Exhausted} escape; the batch
            driver maps it to a structured timeout entry. [None] (default)
            costs nothing. *)
  }

  (** The paper's defaults: 1-origin OPA, serialized events, lock-region
      merging, no metrics, no budget. *)
  val default : t

  (** [with_metrics cfg] is [cfg] with a fresh metrics sink attached. *)
  val with_metrics : t -> t
end

(** [error_message e] is the one-line message for an input error: a
    parse or lexical error, an ill-formed program, a class list without an
    Activity for the lifecycle harness, or a [Sys_error] (whose message
    names the path). [None] for any other exception, which each caller
    handles by its own policy. The CLI, [o2 diff] and the batch driver all
    report input errors with this text. *)
val error_message : exn -> string option

type result = {
  config : Config.t;  (** the configuration that produced this result *)
  solver : O2_pta.Solver.result;  (** points-to facts, call graph, origins *)
  graph : O2_shb.Graph.t;  (** the static happens-before graph *)
  report : O2_race.Detect.report;  (** detected races *)
  osa : O2_osa.Osa.t;  (** origin-sharing classification *)
  elapsed : float;  (** total wall-clock seconds *)
}

(** [run cfg p] runs the full O2 pipeline under [cfg]: OPA → SHB → race
    detection → OSA. When [cfg.metrics] is set, each stage runs inside a
    trace span ([analyze/pta], [analyze/shb], [analyze/race],
    [analyze/osa]) and records its counters into the sink.

    @raise O2_util.Budget.Exhausted when [cfg.budget] runs out. *)
val run : Config.t -> Program.t -> result

(** [render ?format r] renders the race report as text (default) or JSON
    via the unified {!O2_race.Report.render} path. If the run carried a
    metrics sink, the output includes it (text table / ["metrics"] JSON
    field). *)
val render : ?format:[ `Text | `Json ] -> result -> string

(** [races r] is the deduplicated race list. *)
val races : result -> O2_race.Detect.race list

(** [n_races r] is the race count the paper's tables report. *)
val n_races : result -> int

(** [n_origins r] is the paper's #O. *)
val n_origins : result -> int

(** [shared_locations r] lists the origin-shared abstract locations. *)
val shared_locations : result -> O2_osa.Osa.sharing list

val pp_race : result -> Format.formatter -> O2_race.Detect.race -> unit

(** [pp_report r ppf ()] prints the full race report. *)
val pp_report : result -> Format.formatter -> unit -> unit

(** [pp_sharing r ppf ()] prints the OSA report (Figure 2(d) style). *)
val pp_sharing : result -> Format.formatter -> unit -> unit
