module Config = struct
  type t = {
    policy : O2_pta.Context.policy;
    serial_events : bool;
    lock_region : bool;
    metrics : O2_util.Metrics.t option;
    budget : O2_util.Budget.t option;
  }

  let default =
    {
      policy = O2_pta.Context.Korigin 1;
      serial_events = true;
      lock_region = true;
      metrics = None;
      budget = None;
    }

  let with_metrics cfg = { cfg with metrics = Some (O2_util.Metrics.create ()) }
end

let error_message = function
  | O2_frontend.Parser.Parse_error (msg, line) ->
      Some (Printf.sprintf "parse error at line %d: %s" line msg)
  | O2_frontend.Lexer.Lex_error (msg, line) ->
      Some (Printf.sprintf "lexical error at line %d: %s" line msg)
  | O2_ir.Program.Ill_formed msg -> Some ("ill-formed program: " ^ msg)
  | O2_ir.Harness.No_activity msg -> Some ("harness error: " ^ msg)
  | Sys_error msg -> Some msg
  | _ -> None

type result = {
  config : Config.t;
  solver : O2_pta.Solver.result;
  graph : O2_shb.Graph.t;
  report : O2_race.Detect.report;
  osa : O2_osa.Osa.t;
  elapsed : float;
}

let run (cfg : Config.t) p =
  let t0 = Unix.gettimeofday () in
  let m = cfg.Config.metrics in
  let sp name f =
    match m with None -> f () | Some mm -> O2_util.Metrics.span mm name f
  in
  (* the budget's step ceiling lives inside the PTA worklist; the deadline
     is polled once per origin inside the SHB and OSA walks, and re-checked
     between stages, so a pipeline whose PTA finished under the wire still
     stops before burning unbounded time in SHB construction or detection *)
  let deadline_gate () =
    match cfg.Config.budget with
    | None -> ()
    | Some b -> O2_util.Budget.check b ~steps:0
  in
  let solver, graph, report, osa =
    sp "analyze" (fun () ->
        let solver =
          sp "pta" (fun () ->
              O2_pta.Solver.analyze ~policy:cfg.Config.policy ?metrics:m
                ?budget:cfg.Config.budget p)
        in
        deadline_gate ();
        let graph =
          sp "shb" (fun () ->
              O2_shb.Graph.build ~serial_events:cfg.Config.serial_events
                ~lock_region:cfg.Config.lock_region ?metrics:m
                ?budget:cfg.Config.budget solver)
        in
        deadline_gate ();
        let report =
          sp "race" (fun () -> O2_race.Detect.run ?metrics:m graph)
        in
        deadline_gate ();
        let osa =
          sp "osa" (fun () ->
              O2_osa.Osa.run ?metrics:m ?budget:cfg.Config.budget solver)
        in
        (solver, graph, report, osa))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match m with
  | None -> ()
  | Some mm ->
      O2_util.Metrics.set mm "o2.races" (O2_race.Detect.n_races report);
      O2_util.Metrics.set mm "o2.origins" (O2_pta.Solver.n_origins solver));
  { config = cfg; solver; graph; report; osa; elapsed }

let render ?format r =
  O2_race.Report.render ?format ?metrics:r.config.Config.metrics
    {
      O2_race.Report.solver = r.solver;
      graph = r.graph;
      report = r.report;
    }

let races r = r.report.O2_race.Detect.races
let n_races r = O2_race.Detect.n_races r.report
let n_origins r = O2_pta.Solver.n_origins r.solver
let shared_locations r = O2_osa.Osa.shared_locations r.osa
let pp_report r ppf () = O2_race.Report.pp r.solver r.graph ppf r.report
let pp_sharing r ppf () = O2_osa.Osa.pp r.solver ppf r.osa
