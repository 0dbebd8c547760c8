open O2_pta

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '"' -> "\\\""
         | '\\' -> "\\\\"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let node_label g (n : Graph.node) =
  let a = Graph.solver g in
  Format.asprintf "#%d %s" n.Graph.n_id
    (match n.Graph.n_kind with
    | Graph.Read t ->
        Format.asprintf "rd %a" (Access.pp_target a) (Graph.target_of g t)
    | Graph.Write t ->
        Format.asprintf "wr %a" (Access.pp_target a) (Graph.target_of g t)
    | Graph.Acq l -> Printf.sprintf "lock o%d" l
    | Graph.Rel l -> Printf.sprintf "unlock o%d" l
    | Graph.SpawnTo s -> Printf.sprintf "spawn O%d" s
    | Graph.JoinOf s -> Printf.sprintf "join O%d" s
    | Graph.SemSignal o -> Printf.sprintf "signal o%d" o
    | Graph.SemWait o -> Printf.sprintf "wait o%d" o)

let origin_label g o =
  let a = Graph.solver g in
  let sps = a.Solver.spawns in
  if o >= 0 && o < Array.length sps then
    let sp = sps.(o) in
    match sp.Solver.sp_kind with
    | `Main -> "main"
    | `Thread | `Event ->
        Printf.sprintf "%s.%s@%d" sp.Solver.sp_entry.O2_ir.Program.m_class
          sp.Solver.sp_entry.O2_ir.Program.m_name sp.Solver.sp_site
  else Printf.sprintf "O%d" o

let shb ppf g =
  Format.fprintf ppf "digraph shb {@.  rankdir=TB;@.  node [shape=box, fontsize=9];@.";
  let n_origins = Graph.n_origins g in
  for o = 0 to n_origins - 1 do
    Format.fprintf ppf "  subgraph cluster_%d {@.    label=\"%s%s\";@." o
      (escape (origin_label g o))
      (if Graph.self_parallel g o then " (self-parallel)" else "");
    let lo, hi = Graph.origin_nodes g o in
    for id = lo to hi - 1 do
      Format.fprintf ppf "    n%d [label=\"%s\"];@." id
        (escape (node_label g (Graph.node g id)));
      if id > lo then
        Format.fprintf ppf "    n%d -> n%d [style=dotted];@." (id - 1) id
    done;
    Format.fprintf ppf "  }@."
  done;
  (* inter-origin edges, to a child's first node or from its last *)
  List.iter
    (fun (_, child, nid) ->
      let lo, hi = Graph.origin_nodes g child in
      if lo < hi then
        Format.fprintf ppf "  n%d -> n%d [style=dashed, color=blue];@." nid lo)
    (Graph.spawn_edges g);
  List.iter
    (fun (child, _, nid) ->
      let lo, hi = Graph.origin_nodes g child in
      if lo < hi then
        Format.fprintf ppf "  n%d -> n%d [style=dashed, color=red];@." (hi - 1)
          nid)
    (Graph.join_edges g);
  List.iter
    (fun (_, sid, _, wid) ->
      Format.fprintf ppf "  n%d -> n%d [style=dashed, color=green];@." sid wid)
    (Graph.sem_edges g);
  Format.fprintf ppf "}@."

let origins ppf g =
  Format.fprintf ppf "digraph origins {@.  node [shape=ellipse];@.";
  for o = 0 to Graph.n_origins g - 1 do
    Format.fprintf ppf "  o%d [label=\"%s\"];@." o (escape (origin_label g o))
  done;
  List.iter
    (fun (parent, child, _) ->
      Format.fprintf ppf "  o%d -> o%d [label=spawn];@." parent child)
    (Graph.spawn_edges g);
  List.iter
    (fun (child, parent, _) ->
      Format.fprintf ppf "  o%d -> o%d [label=join, style=dashed];@." child
        parent)
    (Graph.join_edges g);
  Format.fprintf ppf "}@."

let callgraph ppf a =
  Format.fprintf ppf "digraph callgraph {@.  node [shape=box];@.";
  let methods = Query.reachable_methods a in
  List.iter
    (fun m -> Format.fprintf ppf "  \"%s\";@." (escape m))
    methods;
  List.iter
    (fun (caller, callee, _) ->
      Format.fprintf ppf "  \"%s\" -> \"%s\";@." (escape caller)
        (escape callee))
    (Query.call_graph_edges a);
  Format.fprintf ppf "}@."
