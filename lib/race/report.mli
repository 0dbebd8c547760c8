(** Rendering of race reports for the CLI and examples.

    {!render} is the single output path: a report from the optimized
    detector ({!Detect.run}) or from the naive baseline ({!Naive.run}),
    with the solve and graph it ran on, renders the same way, and the [O2]
    facade delegates here, so text and JSON reports are byte-identical no
    matter which engine ran. *)

open O2_pta
open O2_shb

(** Everything needed to render a race report: the solve, the SHB graph
    and a detector's report on that graph ([O2.result] carries all
    three). *)
type result = {
  solver : Solver.result;
  graph : Graph.t;
  report : Detect.report;
}

(** [render ?format ?metrics r] renders the report as text (default) or
    JSON. When [metrics] is given, the text form appends the metrics table
    after a [--- metrics ---] separator and the JSON form gains a
    ["metrics"] field ({!O2_util.Metrics.to_json}). *)
val render :
  ?format:[ `Text | `Json ] -> ?metrics:O2_util.Metrics.t -> result -> string

(** [pp_race a g ppf r] prints one race with both access sites, their
    origins and locksets, in the style of the paper's §5.4 listings. *)
val pp_race : Solver.result -> Graph.t -> Format.formatter -> Detect.race -> unit

(** [pp a g ppf report] prints the full report with a summary line. *)
val pp : Solver.result -> Graph.t -> Format.formatter -> Detect.report -> unit

(** [origin_name a id] renders an origin (spawn) for messages, e.g.
    ["Thread Worker.run() started at input.cir:12"]. *)
val origin_name : Solver.result -> int -> string

(** [to_json a g report] serializes the report as a stable JSON document
    (for CI integration); no external JSON dependency. *)
val to_json : Solver.result -> Graph.t -> Detect.report -> string
