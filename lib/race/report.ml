open O2_ir
open O2_pta
open O2_shb

let origin_name a id =
  let sps = a.Solver.spawns in
  if id < 0 || id >= Array.length sps then Printf.sprintf "origin %d" id
  else
    let sp = sps.(id) in
    match sp.Solver.sp_kind with
    | `Main -> "main thread"
    | `Thread ->
        let st, _ = Program.stmt (a.Solver.program) sp.Solver.sp_site in
        Format.asprintf "thread %s.%s() started at %a"
          sp.Solver.sp_entry.Program.m_class sp.Solver.sp_entry.Program.m_name
          Types.pp_pos st.Ast.pos
    | `Event ->
        let st, _ = Program.stmt (a.Solver.program) sp.Solver.sp_site in
        Format.asprintf "event %s.%s() posted at %a"
          sp.Solver.sp_entry.Program.m_class sp.Solver.sp_entry.Program.m_name
          Types.pp_pos st.Ast.pos

let pp_access a g ppf (n : Graph.node) =
  let rw =
    match n.Graph.n_kind with
    | Graph.Write _ -> "write"
    | Graph.Read _ -> "read"
    | _ -> "?"
  in
  let ls = Lockset.elements (Graph.locks g) n.Graph.n_lockset in
  Format.fprintf ppf "%s at %a by %s%s" rw Types.pp_pos n.Graph.n_pos
    (origin_name a n.Graph.n_origin)
    (if ls = [] then " [no lock]"
     else
       Printf.sprintf " [locks: %s]"
         (String.concat ","
            (List.map
               (fun l ->
                 if l = Lockset.dispatcher_lock then "<dispatcher>"
                 else "o" ^ string_of_int l)
               ls)))

let pp_race a g ppf (r : Detect.race) =
  Format.fprintf ppf "@[<v 2>RACE on %a:@,%a@,%a@]"
    (Access.pp_target a) r.Detect.r_target (pp_access a g) r.Detect.r_a
    (pp_access a g) r.Detect.r_b

let summary (report : Detect.report) =
  Printf.sprintf
    "%d race(s) (%d pairs checked, %d HB-pruned, %d lock-pruned, %d \
     class-pruned)"
    (Detect.n_races report) report.Detect.n_pairs_checked
    report.Detect.n_hb_pruned report.Detect.n_lock_pruned
    report.Detect.n_class_pruned

let pp a g ppf (report : Detect.report) =
  Format.fprintf ppf "@[<v>%s@," (summary report);
  List.iter
    (fun r -> Format.fprintf ppf "%a@," (pp_race a g) r)
    report.Detect.races;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* JSON serialization, dependency-free *)

let access_json a g (n : Graph.node) =
  let kind =
    match n.Graph.n_kind with
    | Graph.Write _ -> "write"
    | Graph.Read _ -> "read"
    | _ -> "other"
  in
  let locks =
    Lockset.elements (Graph.locks g) n.Graph.n_lockset
    |> List.map (fun l ->
           if l = Lockset.dispatcher_lock then "\"<dispatcher>\""
           else Printf.sprintf "\"o%d\"" l)
    |> String.concat ","
  in
  Printf.sprintf
    {|{"kind":"%s","file":"%s","line":%d,"origin":"%s","locks":[%s]}|}
    kind
    (O2_util.Metrics.json_escape n.Graph.n_pos.Types.file)
    n.Graph.n_pos.Types.line
    (O2_util.Metrics.json_escape (origin_name a n.Graph.n_origin))
    locks

let json_body a g (report : Detect.report) =
  let races =
    List.map
      (fun (r : Detect.race) ->
        Printf.sprintf {|{"target":"%s","a":%s,"b":%s}|}
          (O2_util.Metrics.json_escape
             (Format.asprintf "%a" (Access.pp_target a) r.Detect.r_target))
          (access_json a g r.Detect.r_a)
          (access_json a g r.Detect.r_b))
      report.Detect.races
  in
  Printf.sprintf
    {|"races":[%s],"summary":{"n_races":%d,"pairs_checked":%d,"hb_pruned":%d,"lock_pruned":%d,"class_pruned":%d}|}
    (String.concat "," races)
    (Detect.n_races report)
    report.Detect.n_pairs_checked report.Detect.n_hb_pruned
    report.Detect.n_lock_pruned report.Detect.n_class_pruned

let to_json a g (report : Detect.report) =
  Printf.sprintf "{%s}" (json_body a g report)

(* ------------------------------------------------------------------ *)
(* the one render entry point shared by every detector and the CLI *)

type result = {
  solver : Solver.result;
  graph : Graph.t;
  report : Detect.report;
}

let render ?(format = `Text) ?metrics { solver; graph; report } =
  match format with
  | `Json -> (
      match metrics with
      | None -> to_json solver graph report
      | Some m ->
          Printf.sprintf {|{%s,"metrics":%s}|}
            (json_body solver graph report)
            (O2_util.Metrics.to_json m))
  | `Text -> (
      let base = Format.asprintf "%a" (pp solver graph) report in
      match metrics with
      | None -> base
      | Some m ->
          Format.asprintf "%s@.--- metrics ---@.%a" base O2_util.Metrics.pp m)
